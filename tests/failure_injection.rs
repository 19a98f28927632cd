//! Failure-injection tests: the measurement pipeline must fail loudly and
//! correctly when the network misbehaves — dead endpoints, permanent rate
//! limiting, malformed wire data.

mod support;

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txstat::crawler::{
    crawl_eos, crawl_range, eos_head, exchange, Advertised, ClientConfig, CrawlError, RotatingPool,
};
use txstat::netsim::handlers::EosRpcHandler;
use txstat::netsim::server::{spawn_http, HttpHandler};
use txstat::netsim::{EndpointProfile, Http, HttpRequest, HttpResponse, Ndjson};
use txstat::types::time::{ChainTime, Period};
use txstat::workload::Scenario;

fn tiny_chain() -> Arc<txstat::eos::EosChain> {
    let mut sc = Scenario::small(3);
    sc.period = Period::new(
        ChainTime::from_ymd(2019, 10, 30),
        ChainTime::from_ymd(2019, 10, 31),
    );
    Arc::new(txstat::workload::eos::build_eos(&sc))
}

fn quick_cfg() -> ClientConfig {
    ClientConfig {
        request_timeout: Duration::from_millis(300),
        max_retries: 3,
        backoff: Duration::from_millis(5),
    }
}

#[test]
fn dead_endpoint_exhausts_retries() {
    // A port with no listener: connection refused every time.
    let dead = Advertised {
        name: "dead".into(),
        addr: "127.0.0.1:1".parse().expect("addr"),
    };
    let pool = RotatingPool::new(vec![dead]);
    let err = eos_head(&pool, &quick_cfg()).expect_err("must fail");
    assert!(
        matches!(err, CrawlError::Exhausted { attempts: 3, .. }),
        "{err}"
    );
}

#[test]
fn permanently_rate_limited_endpoint_exhausts() {
    let chain = tiny_chain();
    let handler = Arc::new(EosRpcHandler::new(chain));
    let mut p = EndpointProfile::generous("jammed", 5);
    p.rate_limit_per_sec = 0.000_1; // effectively never refills
    p.burst = 0.0;
    let h = spawn_http(handler, p).expect("endpoint");
    let pool = RotatingPool::new(vec![Advertised {
        name: h.name.clone(),
        addr: h.addr,
    }]);
    let err = eos_head(&pool, &quick_cfg()).expect_err("429 forever");
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

#[test]
fn garbage_payloads_surface_as_protocol_errors() {
    let h = spawn_http(
        Arc::new(GarbageHandler),
        EndpointProfile::generous("garbage", 6),
    )
    .expect("endpoint");
    let pool = RotatingPool::new(vec![Advertised {
        name: h.name.clone(),
        addr: h.addr,
    }]);
    let err = eos_head(&pool, &quick_cfg()).expect_err("bad json");
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

#[test]
fn missing_blocks_fail_the_crawl() {
    let chain = tiny_chain();
    let handler = Arc::new(InfoOnlyHandler {
        inner: Arc::new(EosRpcHandler::new(chain.clone())),
    });
    let h = spawn_http(handler, EndpointProfile::generous("partial", 7)).expect("endpoint");
    let pool = RotatingPool::new(vec![Advertised {
        name: h.name.clone(),
        addr: h.addr,
    }]);
    let cfg = quick_cfg();
    let head = eos_head(&pool, &cfg).expect("info works");
    let err = match crawl_eos(&pool, &cfg, head - 3, head, 2) {
        Ok(_) => panic!("crawl must fail when blocks 404"),
        Err(e) => e,
    };
    assert!(matches!(err, CrawlError::HttpStatus(404)), "{err}");
}

/// The first failed fetch ends the crawl: no worker takes another index,
/// and `crawl_range` returns its error only once every worker is joined,
/// so nothing `emit` owns outlives the call and no fetch goes on behind
/// the caller's back.
#[test]
fn a_failed_fetch_stops_every_worker_before_the_crawl_returns() {
    const HEAD: u64 = 200;
    const CONCURRENCY: usize = 4;
    let fetches = AtomicUsize::new(0);
    let fetch = |n: u64| {
        fetches.fetch_add(1, Ordering::SeqCst);
        if n == HEAD {
            return Err(CrawlError::HttpStatus(404));
        }
        std::thread::sleep(Duration::from_millis(5));
        Ok(((), Vec::new(), 0))
    };
    let marker = Arc::new(());
    let held = marker.clone();
    let emit = move |_n: u64, _block: ()| {
        let _held = &held;
        Ok::<(), CrawlError>(())
    };
    let err = crawl_range(HEAD, 1, CONCURRENCY, fetch, emit).expect_err("the head 404s");
    assert!(matches!(err, CrawlError::HttpStatus(404)), "{err}");
    assert_eq!(
        Arc::strong_count(&marker),
        1,
        "a worker still holds emit after the Err"
    );
    let fetched = fetches.load(Ordering::SeqCst);
    assert!(
        fetched < HEAD as usize,
        "all {fetched} blocks fetched despite the 404 at the head"
    );
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        fetches.load(Ordering::SeqCst),
        fetched,
        "a worker went on fetching"
    );
}

/// A fetch that panics is joined like one that fails: `crawl_range`
/// returns a typed `Protocol` error, not the panic, and only once every
/// worker is joined.
#[test]
fn a_panicking_fetch_is_a_typed_error_once_every_worker_is_joined() {
    const HEAD: u64 = 50;
    let fetches = AtomicUsize::new(0);
    let fetch = |n: u64| {
        fetches.fetch_add(1, Ordering::SeqCst);
        if n == HEAD {
            panic!("block {n} cannot be decoded");
        }
        std::thread::sleep(Duration::from_millis(2));
        Ok(((), Vec::new(), 0))
    };
    let marker = Arc::new(());
    let held = marker.clone();
    let emit = move |_n: u64, _block: ()| {
        let _held = &held;
        Ok::<(), CrawlError>(())
    };
    let err = crawl_range(HEAD, 1, 4, fetch, emit).expect_err("the head panics");
    match &err {
        CrawlError::Protocol(m) => {
            assert!(
                m.starts_with("worker panicked") && m.contains("cannot be decoded"),
                "{m}"
            )
        }
        other => panic!("expected a Protocol error, got {other}"),
    }
    assert_eq!(
        Arc::strong_count(&marker),
        1,
        "a worker still holds emit after the Err"
    );
    let fetched = fetches.load(Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        fetches.load(Ordering::SeqCst),
        fetched,
        "a worker went on fetching"
    );
}

/// A peer that accepts the connection and never answers costs `exchange`
/// its own deadline, not the socket's 60 s read timeout. The call runs on
/// a thread of its own, so a hang fails the test after 10 s instead of
/// stalling it.
#[test]
fn a_silent_peer_is_a_timeout_at_the_exchange_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (done, outcome) = std::sync::mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        let probe = HttpRequest::get("/chains/main/blocks/head");
        let _ = done.send(exchange::<Http>(addr, &probe, Duration::from_millis(200)));
    });
    // Held open, never read from or written to.
    let (_silent, _) = listener.accept().expect("accept");
    let result = outcome
        .recv_timeout(Duration::from_secs(10))
        .expect("exchange hung for 10 s");
    let took = started.elapsed();
    assert!(matches!(result, Err(CrawlError::Timeout)), "{result:?}");
    assert!(took < Duration::from_secs(2), "the exchange took {took:?}");
}

/// A 40 kB reply nested 20 000 arrays deep is a `Protocol` error for
/// `exchange`, on a worker thread with the default 2 MiB stack, the way
/// the crawler's fetch workers run. The parser refuses it at depth 129;
/// an uncapped recursive parse overflows that stack and aborts the process.
#[test]
fn a_deeply_nested_reply_is_a_protocol_error_not_a_stack_overflow() {
    use std::io::{BufRead, BufReader, Write};
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (sock, _) = listener.accept().expect("accept");
        let mut conn = BufReader::new(sock);
        conn.read_line(&mut String::new()).expect("request line");
        let bomb = "[".repeat(20_000) + &"]".repeat(20_000) + "\n";
        conn.get_mut().write_all(bomb.as_bytes()).expect("reply");
    });
    let caller = std::thread::spawn(move || {
        let request = serde_json::json!({"id": 1, "command": "server_info"});
        exchange::<Ndjson>(addr, &request, Duration::from_secs(5))
    });
    let result = caller.join().expect("the caller thread returned");
    peer.join().expect("peer");
    assert!(matches!(result, Err(CrawlError::Protocol(_))), "{result:?}");
}

#[test]
fn one_good_endpoint_rescues_a_bad_pool() {
    // Rotation + retries must route around a dead peer.
    let chain = tiny_chain();
    let handler = Arc::new(EosRpcHandler::new(chain.clone()));
    let good = spawn_http(handler, EndpointProfile::generous("good", 8)).expect("endpoint");
    let pool = RotatingPool::new(vec![
        Advertised {
            name: "dead".into(),
            addr: "127.0.0.1:1".parse().expect("addr"),
        },
        Advertised {
            name: good.name.clone(),
            addr: good.addr,
        },
    ]);
    let cfg = ClientConfig {
        request_timeout: Duration::from_millis(400),
        max_retries: 6,
        backoff: Duration::from_millis(2),
    };
    let head = eos_head(&pool, &cfg).expect("rescued by rotation");
    let crawl = crawl_eos(&pool, &cfg, head - 5, head, 2).expect("crawl completes");
    assert_eq!(crawl.blocks.len(), 6);
}

/// The HTTP request parser under the shared damage harness: every
/// truncation and every single-bit flip of a valid `GET` and a valid `POST`
/// with body, delivered by a peer that then closes, parses to a request,
/// a clean end of stream or a typed [`HttpError`] — it never panics, and it
/// never waits for (or hands out) bytes the peer did not send.
#[test]
fn damaged_http_requests_are_typed_never_a_panic() {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use txstat::netsim::http::{read_request, HttpError};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    for (healthy, served) in [
        (
            &b"GET /chains/main/blocks/head HTTP/1.1\r\ncontent-length: 0\r\n\r\n"[..],
            Some(("GET", "/chains/main/blocks/head", &b""[..])),
        ),
        (
            b"POST /v1/chain/get_block HTTP/1.1\r\ncontent-type: application/json\r\n\
              content-length: 21\r\n\r\n{\"block_num_or_id\":5}",
            Some(("POST", "/v1/chain/get_block", br#"{"block_num_or_id":5}"#)),
        ),
        // A signed length is no length: refused even undamaged.
        (
            b"POST /v1/chain/get_block HTTP/1.1\r\ncontent-length: +5\r\n\r\nhello",
            None,
        ),
    ] {
        let damaged = support::truncations(healthy)
            .map(<[u8]>::to_vec)
            .chain(support::bit_flips(healthy))
            .chain([healthy.to_vec()]);
        for (case, bytes) in damaged.enumerate() {
            TcpStream::connect(addr)
                .and_then(|mut peer| peer.write_all(&bytes))
                .expect("send");
            let (sock, _) = listener.accept().expect("accept");
            match read_request(&mut BufReader::new(sock)) {
                Ok(Some(req)) => {
                    // A flip in the header's name leaves a body-less request.
                    let declared = req.header("content-length").and_then(|v| v.parse().ok());
                    assert_eq!(
                        declared.unwrap_or(0),
                        req.body.len(),
                        "case {case}: {req:?}"
                    );
                    let parts = req.method.len() + req.path.len() + req.body.len();
                    assert!(
                        parts < bytes.len(),
                        "case {case} read past its input: {req:?}"
                    );
                    if bytes == healthy {
                        assert_eq!(Some((&*req.method, &*req.path, &*req.body)), served);
                    }
                }
                Ok(None) => assert!(bytes.is_empty(), "case {case} vanished: {bytes:?}"),
                Err(e) => {
                    assert!(!e.to_string().is_empty(), "case {case}");
                    if bytes == healthy {
                        assert!(
                            served.is_none() && matches!(e, HttpError::BadHeader(_)),
                            "{e}"
                        );
                    }
                }
            }
        }
    }
}
