//! The substrate's two wire framings — an HTTP head + body ([`Http`]) and
//! one NDJSON line ([`Ndjson`]) — behind one trait, so the server's
//! connection loop ([`crate::server`]) and the crawler's `exchange` are each
//! written once and pick a framing by type.

use crate::deadline::Timed;
use crate::http::{self, HttpError, HttpRequest, HttpResponse};
use crate::ndjson::{self, NdjsonError};
use serde_json::{json, Value};
use std::io::BufReader;

/// One connection: reads go through the buffer, and every message is
/// written whole, with one `write_all` on the [`Timed`] socket underneath
/// (`get_mut`), so no message leaves in pieces. Each stage of it (a
/// request read, a reply write, a client's whole call) is given its limit
/// by whoever drives it, through [`Timed::restart`].
pub type Conn = BufReader<Timed>;

/// How requests and replies cross a [`Conn`]. The `usize` beside a message
/// is its wire size, for byte accounting.
pub trait Framing: 'static {
    type Request;
    type Reply;
    type Error: std::fmt::Display;

    /// Server side: the next request; `Ok(None)` when the peer closed
    /// between requests (keep-alive end).
    fn read_request(conn: &mut Conn) -> Result<Option<(Self::Request, usize)>, Self::Error>;

    /// Server side: write one reply.
    fn write_reply(conn: &mut Conn, reply: &Self::Reply) -> Result<usize, Self::Error>;

    /// Client side: write one request and read its reply.
    fn call(conn: &mut Conn, request: &Self::Request) -> Result<(Self::Reply, usize), Self::Error>;

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

    fn read_request(conn: &mut Conn) -> Result<Option<(HttpRequest, usize)>, HttpError> {
        let request = http::read_request(conn)?;
        Ok(request.map(|r| {
            let size = http::request_wire_size(&r);
            (r, size)
        }))
    }

    fn write_reply(conn: &mut Conn, reply: &HttpResponse) -> Result<usize, HttpError> {
        http::write_response(conn.get_mut(), reply)?;
        Ok(http::response_wire_size(reply))
    }

    fn call(conn: &mut Conn, request: &HttpRequest) -> Result<(HttpResponse, usize), HttpError> {
        http::write_request(conn.get_mut(), request)?;
        let reply = http::read_response(conn)?;
        let size = http::response_wire_size(&reply);
        Ok((reply, size))
    }

    fn refusal(error: &HttpError) -> Option<HttpResponse> {
        matches!(error, HttpError::HeadTooLarge)
            .then(|| HttpResponse::status(431, "Request Header Fields Too Large", vec![]))
    }

    fn throttled(_: &HttpRequest) -> HttpResponse {
        HttpResponse::status(
            429,
            "Too Many Requests",
            b"{\"error\":\"rate limited\"}".to_vec(),
        )
    }
}

/// One JSON object per line, replies echoing the request `id` (the XRP
/// websocket stand-in).
pub struct Ndjson;

impl Framing for Ndjson {
    type Request = Value;
    type Reply = Value;
    type Error = NdjsonError;

    fn read_request(conn: &mut Conn) -> Result<Option<(Value, usize)>, NdjsonError> {
        ndjson::read_frame(conn)
    }

    fn write_reply(conn: &mut Conn, reply: &Value) -> Result<usize, NdjsonError> {
        ndjson::write_frame(conn.get_mut(), reply)
    }

    fn call(conn: &mut Conn, request: &Value) -> Result<(Value, usize), NdjsonError> {
        ndjson::write_frame(conn.get_mut(), request)?;
        ndjson::read_frame(conn)?.ok_or(NdjsonError::Closed)
    }

    fn refusal(_: &NdjsonError) -> Option<Value> {
        None
    }

    fn throttled(request: &Value) -> Value {
        json!({"id": request.get("id").cloned().unwrap_or(Value::Null),
               "status": "error", "error": "slowDown"})
    }
}

/// A client connection to `addr`, with a 60 s stage.
#[cfg(test)]
pub(crate) fn connect(addr: std::net::SocketAddr) -> Conn {
    BufReader::new(Timed::connect(addr, std::time::Duration::from_secs(60)).unwrap())
}

/// A connected loopback pair: (client side, server side), each with a
/// 60 s stage.
#[cfg(test)]
pub(crate) fn loopback_pair() -> (Conn, Conn) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let client = connect(listener.local_addr().unwrap());
    let (server, _) = listener.accept().unwrap();
    let server = Timed::new(server, std::time::Duration::from_secs(60)).unwrap();
    (client, BufReader::new(server))
}
