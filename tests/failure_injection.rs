//! Failure-injection tests: the measurement pipeline must fail loudly and
//! correctly when the network misbehaves — dead endpoints, permanent rate
//! limiting, malformed wire data.

mod support;

use std::sync::Arc;
use std::time::Duration;
use txstat::crawler::{
    crawl_eos, eos_head, Advertised, ClientConfig, CrawlError, RotatingPool,
};
use txstat::netsim::handlers::EosRpcHandler;
use txstat::netsim::server::{spawn_http, HttpHandler};
use txstat::netsim::{EndpointProfile, HttpRequest, HttpResponse};
use txstat::types::time::{ChainTime, Period};
use txstat::workload::Scenario;

fn tiny_chain() -> Arc<txstat::eos::EosChain> {
    let mut sc = Scenario::small(3);
    sc.period = Period::new(ChainTime::from_ymd(2019, 10, 30), ChainTime::from_ymd(2019, 10, 31));
    Arc::new(txstat::workload::eos::build_eos(&sc))
}

fn quick_cfg() -> ClientConfig {
    ClientConfig {
        request_timeout: Duration::from_millis(300),
        max_retries: 3,
        backoff: Duration::from_millis(5),
    }
}

#[tokio::test]
async fn dead_endpoint_exhausts_retries() {
    // A port with no listener: connection refused every time.
    let dead = Advertised { name: "dead".into(), addr: "127.0.0.1:1".parse().expect("addr") };
    let pool = Arc::new(RotatingPool::new(vec![dead]));
    let err = eos_head(&pool, &quick_cfg()).await.expect_err("must fail");
    assert!(matches!(err, CrawlError::Exhausted { attempts: 3, .. }), "{err}");
}

#[tokio::test]
async fn permanently_rate_limited_endpoint_exhausts() {
    let chain = tiny_chain();
    let handler = Arc::new(EosRpcHandler::new(chain));
    let mut p = EndpointProfile::generous("jammed", 5);
    p.rate_limit_per_sec = 0.000_1; // effectively never refills
    p.burst = 0.0;
    let h = spawn_http(handler, p).await.expect("endpoint");
    let pool = Arc::new(RotatingPool::new(vec![Advertised {
        name: h.name.clone(),
        addr: h.addr,
    }]));
    let err = eos_head(&pool, &quick_cfg()).await.expect_err("429 forever");
    match err {
        CrawlError::Exhausted { last, .. } => assert_eq!(last, "429"),
        other => panic!("expected exhaustion, got {other}"),
    }
}

/// A handler that returns syntactically valid HTTP but garbage JSON.
struct GarbageHandler;
impl HttpHandler for GarbageHandler {
    fn handle(&self, _req: &HttpRequest) -> HttpResponse {
        HttpResponse::ok(b"{not json at all".to_vec())
    }
}

#[tokio::test]
async fn garbage_payloads_surface_as_protocol_errors() {
    let h = spawn_http(Arc::new(GarbageHandler), EndpointProfile::generous("garbage", 6))
        .await
        .expect("endpoint");
    let pool = Arc::new(RotatingPool::new(vec![Advertised {
        name: h.name.clone(),
        addr: h.addr,
    }]));
    let err = eos_head(&pool, &quick_cfg()).await.expect_err("bad json");
    assert!(matches!(err, CrawlError::Protocol(_)), "{err}");
}

/// A handler that serves valid get_info but 404s every block: the block
/// fetch must error out, not hang or fabricate data.
struct InfoOnlyHandler {
    inner: Arc<EosRpcHandler>,
}
impl HttpHandler for InfoOnlyHandler {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        if req.path == "/v1/chain/get_info" {
            self.inner.handle(req)
        } else {
            HttpResponse::status(404, "Not Found", b"{\"error\":\"nope\"}".to_vec())
        }
    }
}

#[tokio::test]
async fn missing_blocks_fail_the_crawl() {
    let chain = tiny_chain();
    let handler = Arc::new(InfoOnlyHandler { inner: Arc::new(EosRpcHandler::new(chain.clone())) });
    let h = spawn_http(handler, EndpointProfile::generous("partial", 7)).await.expect("endpoint");
    let pool = Arc::new(RotatingPool::new(vec![Advertised {
        name: h.name.clone(),
        addr: h.addr,
    }]));
    let cfg = quick_cfg();
    let head = eos_head(&pool, &cfg).await.expect("info works");
    let err = match crawl_eos(pool, cfg, head - 3, head, 2).await {
        Ok(_) => panic!("crawl must fail when blocks 404"),
        Err(e) => e,
    };
    assert!(matches!(err, CrawlError::HttpStatus(404)), "{err}");
}

#[tokio::test]
async fn one_good_endpoint_rescues_a_bad_pool() {
    // Rotation + retries must route around a dead peer.
    let chain = tiny_chain();
    let handler = Arc::new(EosRpcHandler::new(chain.clone()));
    let good = spawn_http(handler, EndpointProfile::generous("good", 8)).await.expect("endpoint");
    let pool = Arc::new(RotatingPool::new(vec![
        Advertised { name: "dead".into(), addr: "127.0.0.1:1".parse().expect("addr") },
        Advertised { name: good.name.clone(), addr: good.addr },
    ]));
    let cfg = ClientConfig {
        request_timeout: Duration::from_millis(400),
        max_retries: 6,
        backoff: Duration::from_millis(2),
    };
    let head = eos_head(&pool, &cfg).await.expect("rescued by rotation");
    let crawl = crawl_eos(pool, cfg, head - 5, head, 2).await.expect("crawl completes");
    assert_eq!(crawl.blocks.len(), 6);
}

/// The HTTP request parser under the shared damage harness: every
/// truncation and every single-bit flip of a valid `GET` and a valid `POST`
/// with body, delivered by a peer that then closes, parses to a request,
/// a clean end of stream or a typed [`HttpError`] — it never panics, and it
/// never waits for (or hands out) bytes the peer did not send.
#[tokio::test]
async fn damaged_http_requests_are_typed_never_a_panic() {
    use tokio::io::{AsyncWriteExt, BufStream};
    use tokio::net::{TcpListener, TcpStream};
    use txstat::netsim::http::read_request;

    let listener = TcpListener::bind("127.0.0.1:0").await.expect("bind");
    let addr = listener.local_addr().expect("addr");
    for (healthy, method, path, body) in [
        (
            &b"GET /chains/main/blocks/head HTTP/1.1\r\ncontent-length: 0\r\n\r\n"[..],
            "GET",
            "/chains/main/blocks/head",
            &b""[..],
        ),
        (
            b"POST /v1/chain/get_block HTTP/1.1\r\ncontent-type: application/json\r\n\
              content-length: 21\r\n\r\n{\"block_num_or_id\":5}",
            "POST",
            "/v1/chain/get_block",
            br#"{"block_num_or_id":5}"#,
        ),
    ] {
        let damaged = support::truncations(healthy)
            .map(<[u8]>::to_vec)
            .chain(support::bit_flips(healthy))
            .chain([healthy.to_vec()]);
        for (case, bytes) in damaged.enumerate() {
            let sent = bytes.clone();
            let peer = tokio::spawn(async move {
                let mut sock = TcpStream::connect(addr).await.expect("connect");
                sock.write_all(&sent).await.expect("send");
            });
            let (sock, _) = listener.accept().await.expect("accept");
            let parsed = read_request(&mut BufStream::new(sock)).await;
            peer.await.expect("peer");
            match parsed {
                Ok(Some(req)) => {
                    // A flip in the header's name leaves a body-less request.
                    let declared = req.header("content-length").and_then(|v| v.parse().ok());
                    assert_eq!(declared.unwrap_or(0), req.body.len(), "case {case}: {req:?}");
                    let parts = req.method.len() + req.path.len() + req.body.len();
                    assert!(parts < bytes.len(), "case {case} read past its input: {req:?}");
                    if bytes == healthy {
                        assert_eq!((&*req.method, &*req.path, &*req.body), (method, path, body));
                    }
                }
                Ok(None) => assert!(bytes.is_empty(), "case {case} vanished: {bytes:?}"),
                Err(e) => assert!(!e.to_string().is_empty(), "case {case}"),
            }
        }
    }
}
