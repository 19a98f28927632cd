//! A minimal HTTP/1.1 implementation over tokio — request line, headers,
//! `Content-Length` bodies, keep-alive.
//!
//! EOS and Tezos node RPCs are plain HTTP+JSON (§3.1); this module gives
//! the simulated endpoints and the crawler a real wire protocol over real
//! loopback sockets without pulling a full HTTP stack into the workspace.

use tokio::io::{AsyncBufReadExt, AsyncReadExt, AsyncWrite, AsyncWriteExt, BufStream};
use tokio::net::TcpStream;

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
        HttpResponse { status, reason: reason.into(), headers: Vec::new(), body }
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
    /// A head line above [`MAX_LINE`] bytes, or over [`MAX_HEADERS`] headers.
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

/// Upper bounds on a message head, so no peer can grow it without limit:
/// bytes per request, status or header line, and headers.
pub const MAX_LINE: usize = 8 * 1024;
pub const MAX_HEADERS: usize = 100;

/// One line of a head, line ending included; empty at EOF.
async fn read_head_line(stream: &mut BufStream<TcpStream>) -> Result<String, HttpError> {
    let mut line = String::new();
    let n = (&mut *stream).take(MAX_LINE as u64 + 1).read_line(&mut line).await?;
    if n > MAX_LINE {
        return Err(HttpError::HeadTooLarge);
    }
    Ok(line)
}

async fn read_headers(
    stream: &mut BufStream<TcpStream>,
) -> Result<(Vec<(String, String)>, usize), HttpError> {
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let line = read_head_line(stream).await?;
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
            content_length = v
                .parse()
                .map_err(|_| HttpError::BadHeader(line.to_owned()))?;
            if content_length > MAX_BODY {
                return Err(HttpError::BodyTooLarge(content_length));
            }
        }
        headers.push((k, v));
    }
    Ok((headers, content_length))
}

/// Read one request from a connection; `Ok(None)` on clean EOF between
/// requests (keep-alive end).
pub async fn read_request(
    stream: &mut BufStream<TcpStream>,
) -> Result<Option<HttpRequest>, HttpError> {
    let line = read_head_line(stream).await?;
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
    let (headers, content_length) = read_headers(stream).await?;
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).await?;
    Ok(Some(HttpRequest { method, path, headers, body }))
}

/// Write a request.
pub async fn write_request<W: AsyncWrite + Unpin>(
    w: &mut W,
    req: &HttpRequest,
) -> Result<(), HttpError> {
    let mut head = format!("{} {} HTTP/1.1\r\n", req.method, req.path);
    for (k, v) in &req.headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", req.body.len()));
    w.write_all(head.as_bytes()).await?;
    w.write_all(&req.body).await?;
    w.flush().await?;
    Ok(())
}

/// Read one response.
pub async fn read_response(
    stream: &mut BufStream<TcpStream>,
) -> Result<HttpResponse, HttpError> {
    let line = read_head_line(stream).await?;
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
    let (headers, content_length) = read_headers(stream).await?;
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).await?;
    Ok(HttpResponse { status, reason, headers, body })
}

/// Write a response.
pub async fn write_response<W: AsyncWrite + Unpin>(
    w: &mut W,
    resp: &HttpResponse,
) -> Result<(), HttpError> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason);
    for (k, v) in &resp.headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", resp.body.len()));
    w.write_all(head.as_bytes()).await?;
    w.write_all(&resp.body).await?;
    w.flush().await?;
    Ok(())
}

/// Approximate wire size of a request (for byte accounting).
pub fn request_wire_size(req: &HttpRequest) -> usize {
    req.method.len() + req.path.len() + 12
        + req.headers.iter().map(|(k, v)| k.len() + v.len() + 4).sum::<usize>()
        + 20
        + req.body.len()
}

/// Approximate wire size of a response.
pub fn response_wire_size(resp: &HttpResponse) -> usize {
    16 + resp.reason.len()
        + resp.headers.iter().map(|(k, v)| k.len() + v.len() + 4).sum::<usize>()
        + 20
        + resp.body.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokio::net::TcpListener;

    #[tokio::test]
    async fn roundtrip_request_response() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let server = tokio::spawn(async move {
            let (sock, _) = listener.accept().await.unwrap();
            let mut stream = BufStream::new(sock);
            let req = read_request(&mut stream).await.unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/chain/get_block");
            assert_eq!(req.body, br#"{"block_num_or_id":5}"#);
            write_response(&mut stream, &HttpResponse::ok(b"{\"ok\":true}".to_vec()))
                .await
                .unwrap();
            // Second request on the same connection (keep-alive).
            let req2 = read_request(&mut stream).await.unwrap().unwrap();
            assert_eq!(req2.method, "GET");
            write_response(&mut stream, &HttpResponse::status(404, "Not Found", vec![]))
                .await
                .unwrap();
            // Clean EOF.
            assert!(read_request(&mut stream).await.unwrap().is_none());
        });

        let sock = TcpStream::connect(addr).await.unwrap();
        let mut stream = BufStream::new(sock);
        write_request(
            &mut stream,
            &HttpRequest::post("/v1/chain/get_block", br#"{"block_num_or_id":5}"#.to_vec()),
        )
        .await
        .unwrap();
        let resp = read_response(&mut stream).await.unwrap();
        assert!(resp.is_ok());
        assert_eq!(resp.body, b"{\"ok\":true}");
        write_request(&mut stream, &HttpRequest::get("/missing")).await.unwrap();
        let resp = read_response(&mut stream).await.unwrap();
        assert_eq!(resp.status, 404);
        assert!(!resp.is_ok());
        drop(stream);
        server.await.unwrap();
    }

    #[tokio::test]
    async fn binary_bodies_survive() {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let payload: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        let expect = payload.clone();
        let server = tokio::spawn(async move {
            let (sock, _) = listener.accept().await.unwrap();
            let mut stream = BufStream::new(sock);
            let req = read_request(&mut stream).await.unwrap().unwrap();
            assert_eq!(req.body, expect);
            write_response(&mut stream, &HttpResponse::ok(req.body)).await.unwrap();
        });
        let sock = TcpStream::connect(addr).await.unwrap();
        let mut stream = BufStream::new(sock);
        write_request(&mut stream, &HttpRequest::post("/echo", payload.clone())).await.unwrap();
        let resp = read_response(&mut stream).await.unwrap();
        assert_eq!(resp.body, payload);
        server.await.unwrap();
    }

    /// What `read_request` makes of `head`, sent raw.
    async fn parse_raw(head: String) -> Result<Option<HttpRequest>, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        let server = tokio::spawn(async move {
            let (sock, _) = listener.accept().await.unwrap();
            read_request(&mut BufStream::new(sock)).await
        });
        let mut stream = BufStream::new(TcpStream::connect(addr).await.unwrap());
        stream.write_all(head.as_bytes()).await.unwrap();
        stream.flush().await.unwrap();
        server.await.unwrap()
    }

    #[tokio::test]
    async fn oversized_heads_are_rejected_and_full_ones_served() {
        // "GET /" + path + " HTTP/1.1\r\n" is 16 bytes around the path.
        let request_line = |len: usize| format!("GET /{} HTTP/1.1\r\n", "a".repeat(len - 16));
        let headers = |n: usize| (0..n).map(|i| format!("x-h{i}: v\r\n")).collect::<String>();
        for head in [
            request_line(MAX_LINE + 1),
            format!("GET / HTTP/1.1\r\nx-long: {}\r\n\r\n", "v".repeat(MAX_LINE)),
            format!("GET / HTTP/1.1\r\n{}\r\n", headers(MAX_HEADERS + 1)),
        ] {
            match parse_raw(head).await {
                Err(HttpError::HeadTooLarge) => {}
                other => panic!("expected HeadTooLarge, got {other:?}"),
            }
        }
        let full = format!("{}{}\r\n", request_line(MAX_LINE), headers(MAX_HEADERS));
        let req = parse_raw(full).await.unwrap().expect("a request at both caps is served");
        assert_eq!((req.path.len(), req.headers.len()), (MAX_LINE - 15, MAX_HEADERS));
    }

    #[tokio::test]
    async fn oversized_content_length_is_rejected() {
        let head = format!("POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        match parse_raw(head).await {
            Err(HttpError::BodyTooLarge(n)) => assert!(n > MAX_BODY),
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[tokio::test]
    async fn malformed_request_line_is_rejected() {
        let parsed = parse_raw("NOT-HTTP-AT-ALL\r\n\r\n".to_owned()).await;
        assert!(matches!(parsed, Err(HttpError::BadRequestLine(_))), "{parsed:?}");
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
