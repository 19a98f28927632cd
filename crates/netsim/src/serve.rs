//! The serving layer: a long-lived loopback query server with token-bucket
//! admission control and explicit 429 load shedding, plus the load
//! generator that drives it.
//!
//! This promotes the crate's HTTP substrate from test scaffolding (the
//! crawl-side [`crate::server`] endpoints, which *simulate* remote node
//! behaviour — latency, faults, stingy limits) into infrastructure for our
//! own service: no artificial latency or fault injection, a shared
//! admission token bucket with an in-flight ceiling, and per-route-class
//! latency/shed accounting ([`EndpointStats::shed`],
//! [`EndpointStats::latency`]) so overload decisions are observable.

use crate::endpoint::{EndpointStats, TokenBucket};
use crate::framing::Http;
use crate::http::{read_response, write_request, HttpRequest, HttpResponse};
use crate::server::{serve_connections, Gatekeeper};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txstat_telemetry::{Gauge, MetricKind, Registry, Sample, SampleValue};
use tokio::io::BufStream;
use tokio::net::{TcpListener, TcpStream};
use tokio::task::JoinHandle;

pub use crate::server::HttpHandler;

/// Admission knobs for one query server.
#[derive(Debug, Clone)]
pub struct QueryServerConfig {
    pub name: String,
    /// Bind address; port 0 picks an ephemeral port.
    pub bind: String,
    /// Sustained admitted requests per second across all routes.
    pub rate_per_sec: f64,
    /// Token-bucket burst capacity.
    pub burst: f64,
    /// Hard ceiling on concurrently admitted requests; excess sheds 429.
    pub max_in_flight: u64,
}

impl Default for QueryServerConfig {
    fn default() -> Self {
        QueryServerConfig {
            name: "stats-serve".into(),
            bind: "127.0.0.1:0".into(),
            rate_per_sec: 50_000.0,
            burst: 5_000.0,
            max_in_flight: 256,
        }
    }
}

/// Per-route-class counters: exhibits, accounts, and everything else get
/// separate latency histograms and shed counts.
#[derive(Debug, Default)]
pub struct RouteStats {
    pub exhibit: Arc<EndpointStats>,
    pub account: Arc<EndpointStats>,
    pub other: Arc<EndpointStats>,
}

impl RouteStats {
    pub fn for_path(&self, path: &str) -> &Arc<EndpointStats> {
        if path.starts_with("/exhibit/") || path == "/report" {
            &self.exhibit
        } else if path.starts_with("/account/") {
            &self.account
        } else {
            &self.other
        }
    }

    /// `(label, stats)` per class, for reporting loops.
    pub fn classes(&self) -> [(&'static str, &Arc<EndpointStats>); 3] {
        [
            ("exhibit", &self.exhibit),
            ("account", &self.account),
            ("other", &self.other),
        ]
    }

    /// Register a collector exposing every route class in `registry` as
    /// `txstat_serve_*{route=...}` families (counters, the in-flight
    /// gauge + peak, and the latency histogram), so a serve process's
    /// `/metrics` endpoint reports the same numbers its load-shed logic
    /// acts on.
    pub fn register_into(self: &Arc<Self>, registry: &Registry) {
        let routes = self.clone();
        registry.register_collector(move |out| {
            let counter = |name: &str, help: &str, route: &'static str, v: u64| Sample {
                name: format!("txstat_serve_{name}"),
                help: help.to_string(),
                kind: MetricKind::Counter,
                labels: vec![("route".to_string(), route.to_string())],
                value: SampleValue::Int(v),
            };
            for (route, s) in routes.classes() {
                out.push(counter("requests_total", "Requests received", route, s.requests.get()));
                out.push(counter("served_total", "Requests served", route, s.served.get()));
                out.push(counter(
                    "shed_total",
                    "Requests shed 429 by admission control",
                    route,
                    s.shed.get(),
                ));
                out.push(counter("bytes_in_total", "Request bytes read", route, s.bytes_in.get()));
                out.push(counter(
                    "bytes_out_total",
                    "Response bytes written",
                    route,
                    s.bytes_out.get(),
                ));
                out.push(Sample {
                    name: "txstat_serve_in_flight".to_string(),
                    help: "Requests currently being handled".to_string(),
                    kind: MetricKind::Gauge,
                    labels: vec![("route".to_string(), route.to_string())],
                    value: SampleValue::Int(s.in_flight.get()),
                });
                out.push(Sample {
                    name: "txstat_serve_in_flight_peak".to_string(),
                    help: "Peak concurrent in-flight requests".to_string(),
                    kind: MetricKind::Gauge,
                    labels: vec![("route".to_string(), route.to_string())],
                    value: SampleValue::Int(s.max_in_flight()),
                });
                out.push(Sample {
                    name: "txstat_serve_latency_us".to_string(),
                    help: "Service latency of served requests (µs)".to_string(),
                    kind: MetricKind::Histogram,
                    labels: vec![("route".to_string(), route.to_string())],
                    value: SampleValue::Hist(s.latency.snapshot()),
                });
            }
        });
    }
}

/// Shared admission state: one token bucket plus a global in-flight gauge
/// (the per-route gauges in [`EndpointStats`] count the same requests, but
/// the ceiling applies across routes) in front of the handler.
struct Admission {
    bucket: Mutex<TokenBucket>,
    in_flight: Gauge,
    max_in_flight: u64,
    routes: Arc<RouteStats>,
    handler: Arc<dyn HttpHandler>,
}

impl Admission {
    fn try_admit(&self) -> bool {
        if self.in_flight.get() >= self.max_in_flight {
            return false;
        }
        self.bucket.lock().try_take()
    }
}

/// RAII decrement of the global in-flight gauge.
struct AdmitGuard<'a>(&'a Admission);

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight.dec();
    }
}

const SHED_BODY: &[u8] = b"{\"error\":\"overloaded\",\"retry\":true}";

impl Gatekeeper<Http> for Admission {
    fn stats(&self, request: &HttpRequest) -> &EndpointStats {
        self.routes.for_path(&request.path)
    }

    async fn decide(&self, request: &HttpRequest, stats: &EndpointStats) -> Option<HttpResponse> {
        if !self.try_admit() {
            stats.shed.inc();
            return Some(HttpResponse::status(429, "Too Many Requests", SHED_BODY.to_vec()));
        }
        self.in_flight.inc();
        let _admit = AdmitGuard(self);
        let started = Instant::now();
        let reply = self.handler.handle(request);
        stats.latency.record(started.elapsed());
        stats.served.inc();
        Some(reply)
    }
}

/// A running query server.
pub struct QueryServerHandle {
    pub name: String,
    pub addr: SocketAddr,
    pub routes: Arc<RouteStats>,
    _task: JoinHandle<()>,
}

/// Spawn the query server: keep-alive HTTP/1.1 over loopback TCP on the
/// substrate's one connection loop ([`crate::server`]), every request gated
/// by the shared admission bucket before it reaches the handler. Shed
/// requests are answered 429 immediately (never queued), so overload
/// degrades into fast refusals instead of stalls.
pub async fn spawn_query_server(
    handler: Arc<dyn HttpHandler>,
    cfg: QueryServerConfig,
) -> std::io::Result<QueryServerHandle> {
    let listener = TcpListener::bind(&cfg.bind).await?;
    let addr = listener.local_addr()?;
    let routes = Arc::new(RouteStats::default());
    let admission = Admission {
        bucket: Mutex::new(TokenBucket::new(cfg.rate_per_sec, cfg.burst)),
        in_flight: Gauge::new(),
        max_in_flight: cfg.max_in_flight,
        routes: routes.clone(),
        handler,
    };
    let task = serve_connections::<Http, _>(listener, admission);
    Ok(QueryServerHandle { name: cfg.name, addr, routes, _task: task })
}

// ---- Load generation --------------------------------------------------------

/// A mixed-distribution load plan: `connections` concurrent keep-alive
/// clients each issue `requests_per_conn` GETs, cycling through `paths`
/// from a per-connection offset so the mix interleaves across clients.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    pub connections: usize,
    pub requests_per_conn: usize,
    pub paths: Vec<String>,
}

/// Aggregated outcome of one load run, with exact (sample-sorted)
/// latency quantiles.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    pub elapsed: Duration,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

impl LoadReport {
    /// Completed requests (200 + 429) per wall-clock second — the
    /// saturation throughput when the plan oversubscribes the server.
    pub fn req_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.ok + self.shed) as f64 / secs
    }
}

/// Run the plan against `addr`. Each connection records per-request
/// round-trip latency; the report merges and sorts every sample, so the
/// quantiles are exact (not histogram edges).
pub async fn run_load(addr: SocketAddr, plan: &LoadPlan) -> LoadReport {
    let started = Instant::now();
    let mut tasks = Vec::with_capacity(plan.connections);
    for conn_idx in 0..plan.connections {
        let paths = plan.paths.clone();
        let n = plan.requests_per_conn;
        tasks.push(tokio::spawn(async move {
            let mut latencies_us: Vec<u64> = Vec::with_capacity(n);
            let (mut ok, mut shed, mut errors, mut sent) = (0u64, 0u64, 0u64, 0u64);
            let sock = match TcpStream::connect(addr).await {
                Ok(s) => s,
                Err(_) => {
                    return (latencies_us, ok, shed, n as u64, 0);
                }
            };
            let mut stream = BufStream::new(sock);
            for i in 0..n {
                let path = &paths[(conn_idx + i) % paths.len()];
                let req = HttpRequest::get(path);
                sent += 1;
                let t0 = Instant::now();
                if write_request(&mut stream, &req).await.is_err() {
                    errors += 1;
                    break;
                }
                match read_response(&mut stream).await {
                    Ok(resp) => {
                        latencies_us
                            .push(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
                        if resp.status == 429 {
                            shed += 1;
                        } else {
                            ok += 1;
                        }
                    }
                    Err(_) => {
                        errors += 1;
                        break;
                    }
                }
            }
            (latencies_us, ok, shed, errors, sent)
        }));
    }
    let mut all_latencies: Vec<u64> = Vec::new();
    let mut report = LoadReport::default();
    for t in tasks {
        if let Ok((lat, ok, shed, errors, sent)) = t.await {
            all_latencies.extend(lat);
            report.ok += ok;
            report.shed += shed;
            report.errors += errors;
            report.sent += sent;
        }
    }
    report.elapsed = started.elapsed();
    all_latencies.sort_unstable();
    if !all_latencies.is_empty() {
        let q = |f: f64| {
            let idx = ((f * all_latencies.len() as f64).ceil() as usize)
                .clamp(1, all_latencies.len());
            all_latencies[idx - 1]
        };
        report.p50_us = q(0.50);
        report.p99_us = q(0.99);
        report.max_us = *all_latencies.last().expect("non-empty");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Hello;
    impl HttpHandler for Hello {
        fn handle(&self, req: &HttpRequest) -> HttpResponse {
            if req.path == "/exhibit/x" || req.path == "/account/eos/a" {
                HttpResponse::ok(b"hello".to_vec())
            } else {
                HttpResponse::status(404, "Not Found", b"nope".to_vec())
            }
        }
    }

    #[tokio::test]
    async fn serves_and_classifies_routes() {
        let h = spawn_query_server(Arc::new(Hello), QueryServerConfig::default())
            .await
            .unwrap();
        let sock = TcpStream::connect(h.addr).await.unwrap();
        let mut stream = BufStream::new(sock);
        for (path, status) in
            [("/exhibit/x", 200), ("/account/eos/a", 200), ("/nope", 404)]
        {
            write_request(&mut stream, &HttpRequest::get(path)).await.unwrap();
            assert_eq!(read_response(&mut stream).await.unwrap().status, status);
        }
        assert_eq!(h.routes.exhibit.requests.get(), 1);
        assert_eq!(h.routes.account.requests.get(), 1);
        assert_eq!(h.routes.other.requests.get(), 1);
        assert_eq!(h.routes.exhibit.latency.total(), 1);
        assert!(h.routes.classes().iter().all(|(_, s)| s.shed.get() == 0));
    }

    #[tokio::test]
    async fn an_oversized_head_is_answered_431_and_the_connection_closed() {
        use crate::{spawn_http, EndpointProfile};
        use tokio::io::AsyncWriteExt;
        // The query server and a crawl-side endpoint: one loop, one answer.
        let query =
            spawn_query_server(Arc::new(Hello), QueryServerConfig::default()).await.unwrap();
        let sim = spawn_http(Arc::new(Hello), EndpointProfile::generous("sim", 1)).await.unwrap();
        for addr in [query.addr, sim.addr] {
            let mut stream = BufStream::new(TcpStream::connect(addr).await.unwrap());
            // No line end: the server must not wait for one.
            stream.write_all(&vec![b'a'; crate::http::MAX_LINE + 1]).await.unwrap();
            assert_eq!(read_response(&mut stream).await.unwrap().status, 431, "{addr}");
            assert!(read_response(&mut stream).await.is_err(), "{addr}: connection left open");
        }
    }

    #[tokio::test]
    async fn admission_sheds_with_429_and_counts() {
        let cfg = QueryServerConfig {
            rate_per_sec: 1.0,
            burst: 3.0,
            ..QueryServerConfig::default()
        };
        let h = spawn_query_server(Arc::new(Hello), cfg).await.unwrap();
        let sock = TcpStream::connect(h.addr).await.unwrap();
        let mut stream = BufStream::new(sock);
        let mut codes = Vec::new();
        for _ in 0..20 {
            write_request(&mut stream, &HttpRequest::get("/exhibit/x")).await.unwrap();
            codes.push(read_response(&mut stream).await.unwrap().status);
        }
        let shed = codes.iter().filter(|c| **c == 429).count();
        let served = codes.iter().filter(|c| **c == 200).count();
        assert!(shed >= 15, "shed={shed} codes={codes:?}");
        assert!(served >= 3, "served={served}");
        let s = &h.routes.exhibit;
        assert_eq!(s.shed.get(), shed as u64);
        assert_eq!(s.served.get(), served as u64);
        assert_eq!(s.requests.get(), 20);
        // Only served requests are timed.
        assert_eq!(s.latency.total(), served as u64);
        assert!(s.latency.quantile_us(0.5) <= s.latency.quantile_us(0.99));
    }

    #[tokio::test]
    async fn load_generator_reports_mix_and_quantiles() {
        let h = spawn_query_server(Arc::new(Hello), QueryServerConfig::default())
            .await
            .unwrap();
        let plan = LoadPlan {
            connections: 4,
            requests_per_conn: 25,
            paths: vec!["/exhibit/x".into(), "/account/eos/a".into()],
        };
        let r = run_load(h.addr, &plan).await;
        assert_eq!(r.sent, 100);
        assert_eq!(r.ok, 100);
        assert_eq!((r.shed, r.errors), (0, 0));
        assert!(r.p50_us <= r.p99_us && r.p99_us <= r.max_us);
        assert!(r.req_per_sec() > 0.0);
    }
}
