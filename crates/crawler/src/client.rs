//! The client side of the substrate: one [`exchange`] (connect, write,
//! read, under one deadline) over either [`Framing`], and one
//! retry-rotate-backoff loop around it. Only what a reply *means* — throttled,
//! fatal, accepted — is per protocol (`http_with_retries`,
//! `ndjson_with_retries`).

use crate::pool::RotatingPool;
use serde_json::Value;
use std::io::{BufReader, ErrorKind};
use std::net::SocketAddr;
use std::time::Duration;
use txstat_netsim::framing::{Framing, Http, Ndjson};
use txstat_netsim::http::{HttpRequest, HttpResponse};
use txstat_netsim::Timed;

/// Crawl-level errors.
#[derive(Debug)]
pub enum CrawlError {
    Io(std::io::Error),
    Timeout,
    HttpStatus(u16),
    Protocol(String),
    /// All retries exhausted.
    Exhausted {
        attempts: u32,
        last: String,
    },
}

impl std::fmt::Display for CrawlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrawlError::Io(e) => write!(f, "io: {e}"),
            CrawlError::Timeout => write!(f, "timeout"),
            CrawlError::HttpStatus(s) => write!(f, "http status {s}"),
            CrawlError::Protocol(m) => write!(f, "protocol: {m}"),
            CrawlError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for CrawlError {}

impl From<std::io::Error> for CrawlError {
    fn from(e: std::io::Error) -> Self {
        CrawlError::Io(e)
    }
}

/// Client tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub request_timeout: Duration,
    pub max_retries: u32,
    /// Base backoff; grows linearly with the attempt number.
    pub backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            request_timeout: Duration::from_secs(5),
            max_retries: 6,
            backoff: Duration::from_millis(10),
        }
    }
}

/// One request/reply on a fresh connection to `addr`; the reply comes with
/// its wire size. Every caller makes one call per connection, so there is
/// no connection to keep. The connect, the write and the read share one
/// deadline, `timeout` from the call: running out of it anywhere, however
/// the peer paces its bytes, is a [`CrawlError::Timeout`].
pub fn exchange<F: Framing>(
    addr: SocketAddr,
    request: &F::Request,
    timeout: Duration,
) -> Result<(F::Reply, usize), CrawlError> {
    let mut conn = BufReader::new(Timed::connect(addr, timeout).map_err(|e| match e.kind() {
        ErrorKind::TimedOut => CrawlError::Timeout,
        _ => CrawlError::Io(e),
    })?);
    F::call(&mut conn, request).map_err(|e| {
        if conn.get_ref().expired() {
            CrawlError::Timeout
        } else {
            CrawlError::Protocol(e.to_string())
        }
    })
}

/// What a reply that did arrive means to the retry loop.
enum Verdict {
    Accept,
    /// The endpoint is throttling: back off, rotate, try again.
    Retry(&'static str),
    Fail(CrawlError),
}

/// [`exchange`] with retries, rotating endpoints from the pool: transport
/// errors and replies `classify` calls throttled back off (linearly with
/// the attempt number, between attempts only) and rotate to the request's
/// next endpoint.
fn with_retries<F: Framing>(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    request: &F::Request,
    classify: impl Fn(&F::Reply) -> Verdict,
) -> Result<(F::Reply, usize), CrawlError> {
    let mut last = String::new();
    for (attempt, endpoint) in (0..cfg.max_retries).zip(pool.rotation()) {
        if attempt > 0 {
            std::thread::sleep(cfg.backoff * attempt);
        }
        match exchange::<F>(endpoint.addr, request, cfg.request_timeout) {
            Ok((reply, size)) => match classify(&reply) {
                Verdict::Accept => return Ok((reply, size)),
                Verdict::Retry(why) => last = why.into(),
                Verdict::Fail(e) => return Err(e),
            },
            Err(e) => last = e.to_string(),
        }
    }
    Err(CrawlError::Exhausted {
        attempts: cfg.max_retries,
        last,
    })
}

/// Issue an HTTP request with retries: `429` is throttling, any other
/// non-2xx status is fatal.
pub(crate) fn http_with_retries(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    req: &HttpRequest,
) -> Result<(HttpResponse, usize), CrawlError> {
    with_retries::<Http>(pool, cfg, req, |resp| match resp.status {
        429 => Verdict::Retry("429"),
        _ if resp.is_ok() => Verdict::Accept,
        status => Verdict::Fail(CrawlError::HttpStatus(status)),
    })
}

/// Issue an NDJSON command with retries: `"slowDown"` is throttling, any
/// other `error` is fatal.
pub(crate) fn ndjson_with_retries(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    request: &Value,
) -> Result<(Value, usize), CrawlError> {
    with_retries::<Ndjson>(pool, cfg, request, |v| {
        match v.get("error").and_then(Value::as_str) {
            Some("slowDown") => Verdict::Retry("slowDown"),
            Some(other) => Verdict::Fail(CrawlError::Protocol(other.to_owned())),
            None => Verdict::Accept,
        }
    })
}
