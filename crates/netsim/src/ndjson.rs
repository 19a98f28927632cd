//! Newline-delimited JSON framing over TCP — the workspace's stand-in for
//! the XRP websocket API (paper §3.1; `crates/netsim/README.md` lists the
//! loopback stand-ins).
//!
//! Request/response semantics of the `ledger` method are preserved: each
//! line is one JSON object; responses echo the request `id`.

use serde_json::Value;
use std::io::{BufRead, Write};

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
            NdjsonError::LineTooLong(n) => write!(f, "line of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for NdjsonError {}

/// Upper bound on a single frame.
pub(crate) const MAX_LINE: usize = 64 * 1024 * 1024;

/// Read one JSON frame; `Ok(None)` on clean EOF.
pub(crate) fn read_frame(stream: &mut impl BufRead) -> Result<Option<(Value, usize)>, NdjsonError> {
    let mut line = String::new();
    let n = stream.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > MAX_LINE {
        return Err(NdjsonError::LineTooLong(n));
    }
    let v = serde_json::from_str(line.trim_end()).map_err(NdjsonError::Parse)?;
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

    #[test]
    fn parse_error_is_reported() {
        assert!(matches!(
            read_frame(&mut &b"this is not json\n"[..]),
            Err(NdjsonError::Parse(_))
        ));
    }
}
