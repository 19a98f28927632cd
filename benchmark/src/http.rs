//! A std-only, blocking HTTP/1.1 client: one keep-alive connection,
//! `Content-Length` bodies. It exists so the harness can measure the
//! server over a real socket without linking any code of the system under
//! test into the client side.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest body the client will allocate for (the server's own limit).
const MAX_BODY: usize = 64 * 1024 * 1024;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    /// Only a 200 counts: a 429 shed by admission control is a failed
    /// request, not a fast one.
    pub fn is_ok(&self) -> bool {
        self.status == 200
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Read one response: status line, headers up to the blank line, then
/// exactly `Content-Length` body bytes (so the next response on the same
/// connection starts at the right byte).
pub fn read_response<R: BufRead>(r: &mut R) -> std::io::Result<Response> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    let mut parts = line.trim_end().splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    let status = parts.next().and_then(|s| s.parse::<u16>().ok());
    let status = match (version.starts_with("HTTP/1."), status) {
        (true, Some(s)) => s,
        _ => return Err(invalid(format!("bad status line {:?}", line.trim_end()))),
    };
    let mut content_length = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof in headers",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header
            .split_once(':')
            .ok_or_else(|| invalid(format!("bad header {header:?}")))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .ok()
                .filter(|n| *n <= MAX_BODY)
                .ok_or_else(|| invalid(format!("bad content-length {value:?}")))?;
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok(Response { status, body })
}

/// One keep-alive connection.
pub struct Conn {
    stream: BufReader<TcpStream>,
}

impl Conn {
    /// Connect with `timeout` applied to the connect and to every later
    /// read and write, so a stalled server fails the op instead of hanging.
    pub fn connect(addr: &str, timeout: Duration) -> std::io::Result<Conn> {
        let addr: SocketAddr = addr
            .parse()
            .map_err(|_| invalid(format!("bad server address {addr:?}")))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            stream: BufReader::new(stream),
        })
    }

    pub fn request(&mut self, method: &str, path: &str) -> std::io::Result<Response> {
        let head = format!("{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: 0\r\n\r\n");
        self.stream.get_mut().write_all(head.as_bytes())?;
        read_response(&mut self.stream)
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::TcpListener;

    #[test]
    fn parses_status_and_content_length_case_insensitively() {
        let mut wire = Cursor::new(
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nContent-LENGTH: 5\r\n\r\nhelloHTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n".to_vec(),
        );
        let first = read_response(&mut wire).unwrap();
        assert_eq!((first.status, first.body.as_slice()), (200, &b"hello"[..]));
        assert!(first.is_ok());
        // The second response starts exactly where the first body ended.
        let second = read_response(&mut wire).unwrap();
        assert_eq!((second.status, second.body.len()), (404, 0));
        assert!(!second.is_ok());
        assert!(read_response(&mut wire).is_err());
    }

    #[test]
    fn a_429_is_a_failure_and_damage_is_an_error() {
        let shed = read_response(&mut Cursor::new(
            b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 2\r\n\r\n{}".to_vec(),
        ))
        .unwrap();
        assert_eq!(shed.status, 429);
        assert!(!shed.is_ok());
        for damaged in [
            &b"NOT-HTTP\r\n\r\n"[..],
            b"HTTP/1.1 abc OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno-colon\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort",
        ] {
            assert!(read_response(&mut Cursor::new(damaged.to_vec())).is_err());
        }
    }

    #[test]
    fn one_connection_carries_several_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // A single accept: a second connection would fail the test.
            let (sock, _) = listener.accept().unwrap();
            let mut r = BufReader::new(sock);
            let mut seen = Vec::new();
            for body in ["one", "two", "three"] {
                let mut request_line = String::new();
                r.read_line(&mut request_line).unwrap();
                seen.push(request_line.trim_end().to_owned());
                let mut line = String::new();
                while r.read_line(&mut line).unwrap() > 2 {
                    line.clear();
                }
                let out = format!(
                    "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                );
                r.get_mut().write_all(out.as_bytes()).unwrap();
            }
            seen
        });
        let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        assert_eq!(conn.get("/a").unwrap().body, b"one");
        assert_eq!(conn.get("/b").unwrap().body, b"two");
        assert_eq!(
            conn.request("POST", "/admin/shutdown").unwrap().body,
            b"three"
        );
        let seen = server.join().unwrap();
        assert_eq!(
            seen,
            [
                "GET /a HTTP/1.1",
                "GET /b HTTP/1.1",
                "POST /admin/shutdown HTTP/1.1"
            ]
        );
    }
}
