//! Newline-delimited JSON framing over TCP — the workspace's stand-in for
//! the XRP websocket API (paper §3.1; `crates/netsim/README.md` lists the
//! loopback stand-ins).
//!
//! Request/response semantics of the `ledger` method are preserved: each
//! line is one JSON object; responses echo the request `id`.

use serde_json::Value;
use tokio::io::{AsyncBufReadExt, AsyncWrite, AsyncWriteExt, BufStream};
use tokio::net::TcpStream;

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
pub const MAX_LINE: usize = 64 * 1024 * 1024;

/// Read one JSON frame; `Ok(None)` on clean EOF.
pub async fn read_frame(
    stream: &mut BufStream<TcpStream>,
) -> Result<Option<(Value, usize)>, NdjsonError> {
    let mut line = String::new();
    let n = stream.read_line(&mut line).await?;
    if n == 0 {
        return Ok(None);
    }
    if n > MAX_LINE {
        return Err(NdjsonError::LineTooLong(n));
    }
    let v = serde_json::from_str(line.trim_end()).map_err(NdjsonError::Parse)?;
    Ok(Some((v, n)))
}

/// Write one JSON frame; returns bytes written.
pub async fn write_frame<W: AsyncWrite + Unpin>(
    w: &mut W,
    value: &Value,
) -> Result<usize, NdjsonError> {
    let mut text = serde_json::to_string(value).map_err(NdjsonError::Parse)?;
    text.push('\n');
    w.write_all(text.as_bytes()).await?;
    w.flush().await?;
    Ok(text.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use tokio::net::TcpListener;

    #[tokio::test]
    async fn frames_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let server = tokio::spawn(async move {
            let (sock, _) = listener.accept().await.unwrap();
            let mut stream = BufStream::new(sock);
            loop {
                match read_frame(&mut stream).await.unwrap() {
                    None => break,
                    Some((v, _)) => {
                        let id = v["id"].clone();
                        write_frame(&mut stream, &json!({"id": id, "status": "success"}))
                            .await
                            .unwrap();
                    }
                }
            }
        });
        let sock = TcpStream::connect(addr).await.unwrap();
        let mut stream = BufStream::new(sock);
        for i in 0..3 {
            write_frame(&mut stream, &json!({"id": i, "command": "ledger"})).await.unwrap();
            let (resp, bytes) = read_frame(&mut stream).await.unwrap().unwrap();
            assert_eq!(resp["id"], i);
            assert_eq!(resp["status"], "success");
            assert!(bytes > 10);
        }
        drop(stream);
        server.await.unwrap();
    }

    #[tokio::test]
    async fn parse_error_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            let (sock, _) = listener.accept().await.unwrap();
            use tokio::io::AsyncWriteExt;
            let mut sock = sock;
            sock.write_all(b"this is not json\n").await.unwrap();
        });
        let sock = TcpStream::connect(addr).await.unwrap();
        let mut stream = BufStream::new(sock);
        assert!(matches!(
            read_frame(&mut stream).await,
            Err(NdjsonError::Parse(_))
        ));
    }
}
