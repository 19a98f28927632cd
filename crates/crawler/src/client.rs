//! The client side of the substrate: one [`exchange`] (connect, write,
//! read, under a timeout) over either [`Framing`], and one
//! retry-rotate-backoff loop around it. Only what a reply *means* — throttled,
//! fatal, accepted — is per protocol ([`http_with_retries`],
//! [`ndjson_with_retries`]).

use crate::pool::RotatingPool;
use serde_json::Value;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tokio::io::BufStream;
use tokio::net::TcpStream;
use txstat_netsim::framing::{Framing, Http, Ndjson};
use txstat_netsim::http::{HttpRequest, HttpResponse};

/// Crawl-level errors.
#[derive(Debug)]
pub enum CrawlError {
    Io(std::io::Error),
    Timeout,
    HttpStatus(u16),
    Protocol(String),
    /// All retries exhausted.
    Exhausted { attempts: u32, last: String },
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
/// no connection to keep.
pub async fn exchange<F: Framing>(
    addr: SocketAddr,
    request: &F::Request,
    timeout: Duration,
) -> Result<(F::Reply, usize), CrawlError> {
    tokio::time::timeout(timeout, async {
        let mut conn = BufStream::new(TcpStream::connect(addr).await?);
        F::call(&mut conn, request).await.map_err(|e| CrawlError::Protocol(e.to_string()))
    })
    .await
    .unwrap_or(Err(CrawlError::Timeout))
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
/// the attempt number, between attempts only) and rotate.
async fn with_retries<F: Framing>(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    request: &F::Request,
    classify: impl Fn(&F::Reply) -> Verdict,
) -> Result<(F::Reply, usize), CrawlError> {
    let mut last = String::new();
    for attempt in 0..cfg.max_retries {
        if attempt > 0 {
            tokio::time::sleep(cfg.backoff * attempt).await;
        }
        match exchange::<F>(pool.pick().addr, request, cfg.request_timeout).await {
            Ok((reply, size)) => match classify(&reply) {
                Verdict::Accept => return Ok((reply, size)),
                Verdict::Retry(why) => last = why.into(),
                Verdict::Fail(e) => return Err(e),
            },
            Err(e) => last = e.to_string(),
        }
    }
    Err(CrawlError::Exhausted { attempts: cfg.max_retries, last })
}

/// Issue an HTTP request with retries: `429` is throttling, any other
/// non-2xx status is fatal.
pub async fn http_with_retries(
    pool: &Arc<RotatingPool>,
    cfg: &ClientConfig,
    req: &HttpRequest,
) -> Result<(HttpResponse, usize), CrawlError> {
    with_retries::<Http>(pool, cfg, req, |resp| match resp.status {
        429 => Verdict::Retry("429"),
        _ if resp.is_ok() => Verdict::Accept,
        status => Verdict::Fail(CrawlError::HttpStatus(status)),
    })
    .await
}

/// Issue an NDJSON command with retries: `"slowDown"` is throttling, any
/// other `error` is fatal.
pub async fn ndjson_with_retries(
    pool: &Arc<RotatingPool>,
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
    .await
}
