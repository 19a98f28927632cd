//! Newline-delimited JSON framing over TCP — the workspace's stand-in for
//! the XRP websocket API (paper §3.1; `crates/netsim/README.md` lists the
//! loopback stand-ins).
//!
//! Request/response semantics of the `ledger` method are preserved: each
//! line is one JSON object; responses echo the request `id`.

use serde_json::Value;
use std::io::{BufRead, Read, Write};

/// Framing errors.
#[derive(Debug)]
pub enum NdjsonError {
    Io(std::io::Error),
    Parse(serde_json::Error),
    Closed,
    LineTooLong(usize),
}

impl From<std::io::Error> for NdjsonError {
    fn from(e: std::io::Error) -> Self {
        NdjsonError::Io(e)
    }
}

impl std::fmt::Display for NdjsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NdjsonError::Io(e) => write!(f, "io: {e}"),
            NdjsonError::Parse(e) => write!(f, "json: {e}"),
            NdjsonError::Closed => write!(f, "connection closed"),
            NdjsonError::LineTooLong(n) => write!(f, "line of {n}+ bytes exceeds limit"),
        }
    }
}

impl std::error::Error for NdjsonError {}

/// Upper bound on a single frame.
pub(crate) const MAX_LINE: usize = 64 * 1024 * 1024;

/// Read one JSON frame; `Ok(None)` on clean EOF. A line longer than
/// [`MAX_LINE`] is refused once `MAX_LINE + 1` of its bytes are in, so a
/// peer cannot make the reader buffer an endless line.
pub(crate) fn read_frame(stream: &mut impl BufRead) -> Result<Option<(Value, usize)>, NdjsonError> {
    let mut line = Vec::new();
    let n = Read::take(stream, MAX_LINE as u64 + 1).read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > MAX_LINE {
        return Err(NdjsonError::LineTooLong(n));
    }
    let v = serde_json::from_slice(line.trim_ascii_end()).map_err(NdjsonError::Parse)?;
    Ok(Some((v, n)))
}

/// Write one JSON frame with one `write_all`; returns bytes written.
pub(crate) fn write_frame(w: &mut impl Write, value: &Value) -> Result<usize, NdjsonError> {
    let mut text = serde_json::to_string(value).map_err(NdjsonError::Parse)?;
    text.push('\n');
    w.write_all(text.as_bytes())?;
    Ok(text.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::loopback_pair;
    use serde_json::json;

    #[test]
    fn frames_roundtrip() {
        let (mut client, mut stream) = loopback_pair();
        let server = std::thread::spawn(move || {
            while let Some((v, _)) = read_frame(&mut stream).unwrap() {
                let id = v["id"].clone();
                write_frame(stream.get_mut(), &json!({"id": id, "status": "success"})).unwrap();
            }
        });
        for i in 0..3 {
            write_frame(client.get_mut(), &json!({"id": i, "command": "ledger"})).unwrap();
            let (resp, bytes) = read_frame(&mut client).unwrap().unwrap();
            assert_eq!(resp["id"], i);
            assert_eq!(resp["status"], "success");
            assert!(bytes > 10);
        }
        drop(client);
        server.join().unwrap();
    }

    /// Hands out its reader's bytes and counts them.
    struct Counting<R> {
        inner: R,
        given: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.given += n;
            Ok(n)
        }
    }

    #[test]
    fn an_overlong_line_is_refused_without_buffering_the_rest() {
        let line = std::io::repeat(b'a').take(2 * MAX_LINE as u64).chain(&b"\n"[..]);
        let mut reader = std::io::BufReader::new(Counting { inner: line, given: 0 });
        let capacity = reader.capacity();
        assert!(matches!(read_frame(&mut reader), Err(NdjsonError::LineTooLong(_))));
        let given = reader.get_ref().given;
        assert!(given <= MAX_LINE + 1 + capacity, "read {given} of {} bytes", 2 * MAX_LINE + 1);
    }

    #[test]
    fn parse_error_is_reported() {
        assert!(matches!(
            read_frame(&mut &b"this is not json\n"[..]),
            Err(NdjsonError::Parse(_))
        ));
    }
}
