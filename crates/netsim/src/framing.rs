//! The substrate's two wire framings — an HTTP head + body ([`Http`]) and
//! one NDJSON line ([`Ndjson`]) — behind one trait, so the server's
//! connection loop ([`crate::server`]) and the crawler's `exchange` are each
//! written once and pick a framing by type.

use crate::http::{self, HttpError, HttpRequest, HttpResponse};
use crate::ndjson::{self, NdjsonError};
use serde_json::{json, Value};
use std::future::Future;
use tokio::io::BufStream;
use tokio::net::TcpStream;

/// One connection, buffered both ways.
pub type Conn = BufStream<TcpStream>;

/// How requests and replies cross a [`Conn`]. The `usize` beside a message
/// is its wire size, for byte accounting.
pub trait Framing: Send + Sync + 'static {
    type Request: Send + Sync + 'static;
    type Reply: Send + 'static;
    type Error: std::fmt::Display + Send;

    /// Server side: the next request; `Ok(None)` when the peer closed
    /// between requests (keep-alive end).
    fn read_request(
        conn: &mut Conn,
    ) -> impl Future<Output = Result<Option<(Self::Request, usize)>, Self::Error>> + Send;

    /// Server side: write one reply.
    fn write_reply(
        conn: &mut Conn,
        reply: &Self::Reply,
    ) -> impl Future<Output = Result<usize, Self::Error>> + Send;

    /// Client side: write one request and read its reply.
    fn call(
        conn: &mut Conn,
        request: &Self::Request,
    ) -> impl Future<Output = Result<(Self::Reply, usize), Self::Error>> + Send;

    /// What a peer whose request could not be read is told before the
    /// hang-up, if anything.
    fn refusal(error: &Self::Error) -> Option<Self::Reply>;

    /// The protocol's "slow down" answer to `request`.
    fn throttled(request: &Self::Request) -> Self::Reply;
}

/// HTTP/1.1 with `Content-Length` bodies (the EOS and Tezos node RPCs, and
/// the query server).
pub struct Http;

impl Framing for Http {
    type Request = HttpRequest;
    type Reply = HttpResponse;
    type Error = HttpError;

    async fn read_request(conn: &mut Conn) -> Result<Option<(HttpRequest, usize)>, HttpError> {
        let request = http::read_request(conn).await?;
        Ok(request.map(|r| {
            let size = http::request_wire_size(&r);
            (r, size)
        }))
    }

    async fn write_reply(conn: &mut Conn, reply: &HttpResponse) -> Result<usize, HttpError> {
        http::write_response(conn, reply).await?;
        Ok(http::response_wire_size(reply))
    }

    async fn call(
        conn: &mut Conn,
        request: &HttpRequest,
    ) -> Result<(HttpResponse, usize), HttpError> {
        http::write_request(conn, request).await?;
        let reply = http::read_response(conn).await?;
        let size = http::response_wire_size(&reply);
        Ok((reply, size))
    }

    fn refusal(error: &HttpError) -> Option<HttpResponse> {
        matches!(error, HttpError::HeadTooLarge)
            .then(|| HttpResponse::status(431, "Request Header Fields Too Large", vec![]))
    }

    fn throttled(_: &HttpRequest) -> HttpResponse {
        HttpResponse::status(429, "Too Many Requests", b"{\"error\":\"rate limited\"}".to_vec())
    }
}

/// One JSON object per line, replies echoing the request `id` (the XRP
/// websocket stand-in).
pub struct Ndjson;

impl Framing for Ndjson {
    type Request = Value;
    type Reply = Value;
    type Error = NdjsonError;

    async fn read_request(conn: &mut Conn) -> Result<Option<(Value, usize)>, NdjsonError> {
        ndjson::read_frame(conn).await
    }

    async fn write_reply(conn: &mut Conn, reply: &Value) -> Result<usize, NdjsonError> {
        ndjson::write_frame(conn, reply).await
    }

    async fn call(conn: &mut Conn, request: &Value) -> Result<(Value, usize), NdjsonError> {
        ndjson::write_frame(conn, request).await?;
        ndjson::read_frame(conn).await?.ok_or(NdjsonError::Closed)
    }

    fn refusal(_: &NdjsonError) -> Option<Value> {
        None
    }

    fn throttled(request: &Value) -> Value {
        json!({"id": request.get("id").cloned().unwrap_or(Value::Null),
               "status": "error", "error": "slowDown"})
    }
}
