//! A minimal HTTP/1.1 implementation over blocking `std::io` — request
//! line, headers, `Content-Length` bodies, keep-alive.
//!
//! EOS and Tezos node RPCs are plain HTTP+JSON (§3.1); this module gives
//! the simulated endpoints and the crawler a real wire protocol over real
//! loopback sockets without pulling a full HTTP stack into the workspace.

use std::io::{BufRead, Read, Write};

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpRequest {
    pub fn get(path: &str) -> Self {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    pub fn post(path: &str, body: Vec<u8>) -> Self {
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            headers: vec![("content-type".into(), "application/json".into())],
            body,
        }
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    pub status: u16,
    pub reason: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpResponse {
    pub fn ok(body: Vec<u8>) -> Self {
        HttpResponse {
            status: 200,
            reason: "OK".into(),
            headers: vec![("content-type".into(), "application/json".into())],
            body,
        }
    }

    pub fn status(status: u16, reason: &str, body: Vec<u8>) -> Self {
        HttpResponse {
            status,
            reason: reason.into(),
            headers: Vec::new(),
            body,
        }
    }

    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Protocol errors.
#[derive(Debug)]
pub enum HttpError {
    Io(std::io::Error),
    BadRequestLine(String),
    BadStatusLine(String),
    BadHeader(String),
    BodyTooLarge(usize),
    /// A head line above `MAX_LINE` bytes, or over `MAX_HEADERS` headers.
    HeadTooLarge,
    Closed,
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io: {e}"),
            HttpError::BadRequestLine(l) => write!(f, "bad request line {l:?}"),
            HttpError::BadStatusLine(l) => write!(f, "bad status line {l:?}"),
            HttpError::BadHeader(l) => write!(f, "bad header {l:?}"),
            HttpError::BodyTooLarge(n) => write!(f, "body of {n} bytes exceeds limit"),
            HttpError::HeadTooLarge => write!(f, "head line or header count exceeds limit"),
            HttpError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Upper bound on accepted bodies (blocks are large but bounded).
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// Most bytes a body grows by per read. A peer's `content-length` is only
/// a claim: memory follows the bytes that actually arrive.
const BODY_STEP: usize = 64 * 1024;

/// Upper bounds on a message head, so no peer can grow it without limit:
/// bytes per request, status or header line, and headers.
pub(crate) const MAX_LINE: usize = 8 * 1024;
pub(crate) const MAX_HEADERS: usize = 100;

/// One line of a head, line ending included; empty at EOF.
fn read_head_line(stream: &mut impl BufRead) -> Result<String, HttpError> {
    let mut line = String::new();
    let n = Read::take(stream, MAX_LINE as u64 + 1).read_line(&mut line)?;
    if n > MAX_LINE {
        return Err(HttpError::HeadTooLarge);
    }
    Ok(line)
}

/// The headers of a head and its body length. A second `content-length`, or
/// one that is not all ASCII digits (`+5`), is a `BadHeader`: two framings of
/// one message are a smuggling ambiguity (RFC 9112 §6.3).
fn read_headers(stream: &mut impl BufRead) -> Result<(Vec<(String, String)>, usize), HttpError> {
    let mut headers = Vec::new();
    let mut content_length = None;
    loop {
        let line = read_head_line(stream)?;
        if line.is_empty() {
            return Err(HttpError::Closed);
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::HeadTooLarge);
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(line.to_owned()))?;
        let k = k.trim().to_ascii_lowercase();
        let v = v.trim().to_owned();
        if k == "content-length" {
            let digits = !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit());
            if content_length.is_some() || !digits {
                return Err(HttpError::BadHeader(line.to_owned()));
            }
            let len: usize = v
                .parse()
                .map_err(|_| HttpError::BadHeader(line.to_owned()))?;
            if len > MAX_BODY {
                return Err(HttpError::BodyTooLarge(len));
            }
            content_length = Some(len);
        }
        headers.push((k, v));
    }
    Ok((headers, content_length.unwrap_or(0)))
}

/// A body of `len` announced bytes, read in steps of at most [`BODY_STEP`]
/// so the buffer never runs ahead of what arrived. An empty body reads and
/// allocates nothing; a peer that closes early is an `UnexpectedEof`.
fn read_body(stream: &mut impl BufRead, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    while body.len() < len {
        let have = body.len();
        body.resize(have + BODY_STEP.min(len - have), 0);
        stream.read_exact(&mut body[have..])?;
    }
    Ok(body)
}

/// Read one request from a connection; `Ok(None)` on clean EOF between
/// requests (keep-alive end).
pub fn read_request(stream: &mut impl BufRead) -> Result<Option<HttpRequest>, HttpError> {
    let line = read_head_line(stream)?;
    if line.is_empty() {
        return Ok(None);
    }
    let line_t = line.trim_end();
    let mut parts = line_t.split(' ');
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::BadRequestLine(line_t.to_owned()))?
        .to_owned();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") || method.is_empty() {
        return Err(HttpError::BadRequestLine(line_t.to_owned()));
    }
    let (headers, content_length) = read_headers(stream)?;
    let body = read_body(stream, content_length)?;
    Ok(Some(HttpRequest {
        method,
        path,
        headers,
        body,
    }))
}

/// One message: `start` line, headers, `content-length`, body, written to
/// `w` with one `write_all`.
fn write_message(
    w: &mut impl Write,
    start: String,
    headers: &[(String, String)],
    body: &[u8],
) -> Result<(), HttpError> {
    let mut head = start;
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    w.write_all(&message)?;
    Ok(())
}

/// Write a request.
pub(crate) fn write_request(w: &mut impl Write, req: &HttpRequest) -> Result<(), HttpError> {
    write_message(
        w,
        format!("{} {} HTTP/1.1\r\n", req.method, req.path),
        &req.headers,
        &req.body,
    )
}

/// Read one response.
pub fn read_response(stream: &mut impl BufRead) -> Result<HttpResponse, HttpError> {
    let line = read_head_line(stream)?;
    if line.is_empty() {
        return Err(HttpError::Closed);
    }
    let line_t = line.trim_end();
    let mut parts = line_t.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadStatusLine(line_t.to_owned()));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::BadStatusLine(line_t.to_owned()))?;
    let reason = parts.next().unwrap_or("").to_owned();
    let (headers, content_length) = read_headers(stream)?;
    let body = read_body(stream, content_length)?;
    Ok(HttpResponse {
        status,
        reason,
        headers,
        body,
    })
}

/// Write a response.
pub fn write_response(w: &mut impl Write, resp: &HttpResponse) -> Result<(), HttpError> {
    let start = format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason);
    write_message(w, start, &resp.headers, &resp.body)
}

/// Approximate wire size of a request (for byte accounting).
pub(crate) fn request_wire_size(req: &HttpRequest) -> usize {
    req.method.len()
        + req.path.len()
        + 12
        + req
            .headers
            .iter()
            .map(|(k, v)| k.len() + v.len() + 4)
            .sum::<usize>()
        + 20
        + req.body.len()
}

/// Approximate wire size of a response.
pub(crate) fn response_wire_size(resp: &HttpResponse) -> usize {
    16 + resp.reason.len()
        + resp
            .headers
            .iter()
            .map(|(k, v)| k.len() + v.len() + 4)
            .sum::<usize>()
        + 20
        + resp.body.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::loopback_pair;

    #[test]
    fn roundtrip_request_response() {
        let (mut client, mut stream) = loopback_pair();
        let server = std::thread::spawn(move || {
            let req = read_request(&mut stream).unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/chain/get_block");
            assert_eq!(req.body, br#"{"block_num_or_id":5}"#);
            write_response(
                stream.get_mut(),
                &HttpResponse::ok(b"{\"ok\":true}".to_vec()),
            )
            .unwrap();
            // Second request on the same connection (keep-alive).
            let req2 = read_request(&mut stream).unwrap().unwrap();
            assert_eq!(req2.method, "GET");
            assert_eq!(req2.body.capacity(), 0, "an empty body allocates nothing");
            write_response(
                stream.get_mut(),
                &HttpResponse::status(404, "Not Found", vec![]),
            )
            .unwrap();
            // Clean EOF.
            assert!(read_request(&mut stream).unwrap().is_none());
        });

        write_request(
            client.get_mut(),
            &HttpRequest::post("/v1/chain/get_block", br#"{"block_num_or_id":5}"#.to_vec()),
        )
        .unwrap();
        let resp = read_response(&mut client).unwrap();
        assert!(resp.is_ok());
        assert_eq!(resp.body, b"{\"ok\":true}");
        write_request(client.get_mut(), &HttpRequest::get("/missing")).unwrap();
        let resp = read_response(&mut client).unwrap();
        assert_eq!(resp.status, 404);
        assert!(!resp.is_ok());
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn binary_bodies_survive() {
        let (mut client, mut stream) = loopback_pair();
        let payload: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        let expect = payload.clone();
        let server = std::thread::spawn(move || {
            let req = read_request(&mut stream).unwrap().unwrap();
            assert_eq!(req.body, expect);
            write_response(stream.get_mut(), &HttpResponse::ok(req.body)).unwrap();
        });
        write_request(
            client.get_mut(),
            &HttpRequest::post("/echo", payload.clone()),
        )
        .unwrap();
        let resp = read_response(&mut client).unwrap();
        assert_eq!(resp.body, payload);
        server.join().unwrap();
    }

    /// What `read_request` makes of `head`, sent raw by a peer that then
    /// closes.
    fn parse_raw(head: String) -> Result<Option<HttpRequest>, HttpError> {
        read_request(&mut head.as_bytes())
    }

    #[test]
    fn oversized_heads_are_rejected_and_full_ones_served() {
        // "GET /" + path + " HTTP/1.1\r\n" is 16 bytes around the path.
        let request_line = |len: usize| format!("GET /{} HTTP/1.1\r\n", "a".repeat(len - 16));
        let headers = |n: usize| (0..n).map(|i| format!("x-h{i}: v\r\n")).collect::<String>();
        for head in [
            request_line(MAX_LINE + 1),
            format!("GET / HTTP/1.1\r\nx-long: {}\r\n\r\n", "v".repeat(MAX_LINE)),
            format!("GET / HTTP/1.1\r\n{}\r\n", headers(MAX_HEADERS + 1)),
        ] {
            match parse_raw(head) {
                Err(HttpError::HeadTooLarge) => {}
                other => panic!("expected HeadTooLarge, got {other:?}"),
            }
        }
        let full = format!("{}{}\r\n", request_line(MAX_LINE), headers(MAX_HEADERS));
        let req = parse_raw(full)
            .unwrap()
            .expect("a request at both caps is served");
        assert_eq!(
            (req.path.len(), req.headers.len()),
            (MAX_LINE - 15, MAX_HEADERS)
        );
    }

    #[test]
    fn oversized_content_length_is_rejected() {
        let head = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        match parse_raw(head) {
            Err(HttpError::BodyTooLarge(n)) => assert!(n > MAX_BODY),
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn a_body_shorter_than_announced_is_a_typed_error() {
        let head = format!("POST /x HTTP/1.1\r\ncontent-length: {MAX_BODY}\r\n\r\n0123456789");
        match parse_raw(head) {
            Err(HttpError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn malformed_request_line_is_rejected() {
        let parsed = parse_raw("NOT-HTTP-AT-ALL\r\n\r\n".to_owned());
        assert!(
            matches!(parsed, Err(HttpError::BadRequestLine(_))),
            "{parsed:?}"
        );
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let mut req = HttpRequest::get("/");
        req.headers.push(("X-Rate-Limit".into(), "10".into()));
        assert_eq!(req.header("x-rate-limit"), Some("10"));
        assert_eq!(req.header("missing"), None);
    }

    #[test]
    fn wire_size_includes_body() {
        let req = HttpRequest::post("/p", vec![0u8; 100]);
        assert!(request_wire_size(&req) > 100);
        let resp = HttpResponse::ok(vec![0u8; 500]);
        assert!(response_wire_size(&resp) > 500);
    }
}
