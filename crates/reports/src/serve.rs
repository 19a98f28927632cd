//! The stats-serving layer behind `reproduce serve`: immutable per-epoch
//! snapshots of the pipeline dataset, a keyed response cache that dies with
//! its snapshot, and the HTTP routing that answers per-exhibit and
//! per-account queries byte-identically to the one-shot report.
//!
//! Consistency model: a [`ServeSnapshot`] is immutable once published
//! through an [`EpochCell`] — readers load an `Arc`, so a concurrent epoch
//! swap can never tear a response (it either came wholly from the old
//! snapshot or wholly from the new one). The response cache lives *inside*
//! the snapshot, so cache invalidation on swap is not a protocol, it is
//! reachability: the new epoch starts with an empty cache and the old
//! cache is dropped with the last reference to the old snapshot.
//!
//! # The serve session
//!
//! [`serve_session`] is `reproduce serve`: it answers `/report`,
//! `/exhibit/<name>`, `/account/<chain>/<name>`, `/healthz`, `/metrics`
//! (Prometheus text) and `/statusz` (JSON) from immutable epoch snapshots —
//! byte-identical to the one-shot report once the head is reached — sheds
//! excess load with 429s, and runs until `POST /admin/shutdown` (`--load`:
//! until its built-in 64 × 200-request load run has printed its quantiles).

use crate::exhibits::{comparison_section, render_report, SECTIONS};
use crate::follow::Follower;
use crate::pipeline::PipelineData;
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use txstat_ingest::EpochCell;
use txstat_netsim::http::{HttpRequest, HttpResponse};
use txstat_netsim::{run_load, spawn_query_server, HttpHandler, LoadPlan, QueryServerConfig};
use txstat_telemetry::{Counter, MetricKind, Registry, Sample, SampleValue};

/// One epoch's immutable serving state: the forked dataset plus the keyed
/// response cache for everything rendered from it.
pub struct ServeSnapshot {
    epoch: u64,
    /// Whether the follow loop has reached the chain heads (responses are
    /// byte-identical to the full one-shot report only once true).
    head: bool,
    data: PipelineData,
    /// path → rendered body. Filled on first request per path, shared by
    /// `Arc` so cache hits are a lookup + clone of a pointer.
    cache: Mutex<HashMap<String, Arc<Vec<u8>>>>,
}

impl ServeSnapshot {
    pub fn new(epoch: u64, head: bool, data: PipelineData) -> Self {
        ServeSnapshot { epoch, head, data, cache: Mutex::new(HashMap::new()) }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn head(&self) -> bool {
        self.head
    }

    pub fn data(&self) -> &PipelineData {
        &self.data
    }

    /// Cached responses currently held (observability + tests).
    pub fn cached_responses(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// Look the path up in this snapshot's cache, rendering and inserting
    /// on miss. `None` = not a renderable route (404, never cached).
    fn get(&self, path: &str, hits: &Counter, misses: &Counter) -> Option<Arc<Vec<u8>>> {
        if let Some(body) = self.cache.lock().expect("cache lock").get(path) {
            hits.inc();
            return Some(body.clone());
        }
        // Render outside the lock: a concurrent miss on the same path
        // renders twice but both render identical bytes from the immutable
        // snapshot, so last-insert-wins is harmless.
        let body = Arc::new(self.render(path)?);
        misses.inc();
        self.cache
            .lock()
            .expect("cache lock")
            .insert(path.to_owned(), body.clone());
        Some(body)
    }

    /// Render one route from the snapshot's dataset.
    fn render(&self, path: &str) -> Option<Vec<u8>> {
        if path == "/report" {
            return Some(render_report(&self.data).into_bytes());
        }
        if let Some(name) = path.strip_prefix("/exhibit/") {
            if name == "comparison" {
                return Some(comparison_section(&self.data).into_bytes());
            }
            let (_, render) = SECTIONS.iter().find(|(n, _)| *n == name)?;
            return Some(render(&self.data).into_bytes());
        }
        if let Some(rest) = path.strip_prefix("/account/") {
            let (chain, name) = rest.split_once('/')?;
            return self.render_account(chain, name);
        }
        None
    }

    fn render_account(&self, chain: &str, name: &str) -> Option<Vec<u8>> {
        let sweeps = self.data.sweeps();
        let body = match chain {
            "eos" => {
                let account = txstat_eos::Name::from_str(name).ok()?;
                let s = sweeps.eos.account_stats(account)?;
                let top: Vec<serde_json::Value> = s
                    .top_actions
                    .into_iter()
                    .map(|(name, count)| serde_json::json!({"name": name, "count": count}))
                    .collect();
                serde_json::json!({
                    "chain": "eos",
                    "account": s.account.to_string_repr(),
                    "received_txs": s.received_txs,
                    "sent_actions": s.sent_actions,
                    "unique_send_targets": s.unique_send_targets,
                    "top_actions": top,
                })
            }
            "tezos" => {
                let address = txstat_tezos::address::Address::from_str(name).ok()?;
                let s = sweeps.tezos.account_stats(address)?;
                let top: Vec<serde_json::Value> = s
                    .top_receivers
                    .into_iter()
                    .map(|(addr, count)| serde_json::json!({"address": addr, "count": count}))
                    .collect();
                serde_json::json!({
                    "chain": "tezos",
                    "address": s.address.to_string(),
                    "sent_ops": s.sent_ops,
                    "unique_receivers": s.unique_receivers,
                    "top_receivers": top,
                })
            }
            "xrp" => {
                let account = txstat_xrp::AccountId::from_str(name).ok()?;
                let s = sweeps.xrp.account_stats(account)?;
                serde_json::json!({
                    "chain": "xrp",
                    "account": s.account.to_string(),
                    "offer_creates": s.offer_creates,
                    "payments": s.payments,
                    "others": s.others,
                    "total": s.total,
                    "share_pct": s.share_pct,
                    "top_tag": s.top_tag.map(|(tag, count)| serde_json::json!({
                        "tag": tag, "count": count,
                    })),
                })
            }
            _ => return None,
        };
        let mut bytes = serde_json::to_vec(&body).ok()?;
        bytes.push(b'\n');
        Some(bytes)
    }
}

/// The query service: routes requests against the currently published
/// snapshot. Cache hit/miss counters live in the service's metric
/// registry, so they survive epoch swaps (the caches themselves do not)
/// but never leak across services — each `new()` gets a private registry,
/// which is what keeps concurrent tests from seeing each other's traffic.
pub struct StatsService {
    cell: Arc<EpochCell<ServeSnapshot>>,
    registry: Arc<Registry>,
    pub cache_hits: Arc<Counter>,
    pub cache_misses: Arc<Counter>,
    /// Raised by `POST /admin/shutdown`; the serve session polls it.
    shutdown: AtomicBool,
}

impl StatsService {
    /// Service with a private registry — right for tests and embedding.
    pub fn new(cell: Arc<EpochCell<ServeSnapshot>>) -> Self {
        Self::with_registry(cell, Arc::new(Registry::new()))
    }

    /// Service exporting through `registry`. The serve binary passes the
    /// process-global registry so `/metrics` also carries the ingest,
    /// reduce, and epoch families contributed by the follow loop.
    pub fn with_registry(cell: Arc<EpochCell<ServeSnapshot>>, registry: Arc<Registry>) -> Self {
        let cache_hits = registry
            .counter("txstat_serve_cache_hits_total", "Response-cache hits across all epochs");
        let cache_misses = registry.counter(
            "txstat_serve_cache_misses_total",
            "Response-cache misses (responses rendered from the snapshot)",
        );
        // Epoch number, head flag, and cache size are properties of the
        // *currently published* snapshot, not monotone counters: a gather-
        // time collector reads them off the cell instead of mirroring them
        // into instruments that could lag a swap.
        let watched = cell.clone();
        registry.register_collector(move |out| {
            let snap = watched.load();
            let gauge = |name: &str, help: &str, v: u64| Sample {
                name: name.to_string(),
                help: help.to_string(),
                kind: MetricKind::Gauge,
                labels: Vec::new(),
                value: SampleValue::Int(v),
            };
            out.push(gauge("txstat_epoch_current", "Currently published serve epoch", snap.epoch()));
            out.push(gauge(
                "txstat_epoch_at_head",
                "1 once the follow loop has reached the chain heads",
                snap.head() as u64,
            ));
            out.push(gauge(
                "txstat_serve_cached_responses",
                "Responses cached in the live snapshot",
                snap.cached_responses() as u64,
            ));
        });
        StatsService { cell, registry, cache_hits, cache_misses, shutdown: AtomicBool::new(false) }
    }

    pub fn snapshot(&self) -> Arc<ServeSnapshot> {
        self.cell.load()
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn not_found(path: &str) -> HttpResponse {
        let body = serde_json::json!({
            "error": "not found",
            "path": path,
            "routes": ["/report", "/exhibit/<name>", "/account/<chain>/<name>",
                       "/healthz", "/metrics", "/statusz"],
        });
        let bytes = serde_json::to_vec(&body).unwrap_or_default();
        HttpResponse::status(404, "Not Found", bytes)
    }

    /// `/statusz`: the JSON observability snapshot — epoch/cache headline
    /// numbers plus the full registry snapshot and, when the dataset came
    /// off an archive, its `archive.memo` coverage.
    fn statusz(&self, snap: &ServeSnapshot) -> serde_json::Value {
        let mut body = serde_json::json!({
            "epoch": snap.epoch(),
            "head": snap.head(),
            "cache_hits": self.cache_hits.get(),
            "cache_misses": self.cache_misses.get(),
            "cached_responses": snap.cached_responses(),
            "metrics": self.registry.snapshot_json(),
        });
        if let (Some(memo), serde_json::Value::Object(map)) =
            (snap.data().memo_status(), &mut body)
        {
            map.insert(
                "memo".to_string(),
                serde_json::json!({
                    "segments": memo.segments,
                    "hits": memo.hits,
                    "memoized": memo.memoized,
                    "write_error": memo.write_error,
                }),
            );
        }
        body
    }

    /// Answer one request. Every response is computed against exactly one
    /// snapshot (loaded once up front), so a concurrent epoch swap can
    /// never mix epochs within a response.
    pub fn respond(&self, method: &str, path: &str) -> HttpResponse {
        let snap = self.cell.load();
        match (method, path) {
            ("GET", "/healthz") => {
                let body = serde_json::json!({
                    "epoch": snap.epoch(),
                    "head": snap.head(),
                    "cache_hits": self.cache_hits.get(),
                    "cache_misses": self.cache_misses.get(),
                    "cached_responses": snap.cached_responses(),
                });
                HttpResponse::ok(serde_json::to_vec(&body).unwrap_or_default())
            }
            // Exposition routes render live registry state, never cached.
            ("GET", "/metrics") => {
                HttpResponse::ok(self.registry.render_prometheus().into_bytes())
            }
            ("GET", "/statusz") => {
                let body = self.statusz(&snap);
                HttpResponse::ok(serde_json::to_vec(&body).unwrap_or_default())
            }
            ("POST", "/admin/shutdown") => {
                self.shutdown.store(true, Ordering::Release);
                HttpResponse::ok(b"{\"shutting_down\":true}".to_vec())
            }
            ("GET", _) => {
                match snap.get(path, &self.cache_hits, &self.cache_misses) {
                    Some(body) => HttpResponse::ok(body.as_ref().clone()),
                    None => Self::not_found(path),
                }
            }
            _ => Self::not_found(path),
        }
    }
}

impl HttpHandler for StatsService {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        self.respond(&req.method, &req.path)
    }
}

/// One known-present `/account/...` path per chain: the busiest account of
/// each in `data`'s sweeps — for the `--load` mix and the serving tests.
pub fn sample_account_paths(data: &PipelineData) -> Vec<String> {
    let sweeps = data.sweeps();
    let mut out = Vec::new();
    if let Some(r) = sweeps.eos.top_received(1).first() {
        out.push(format!("/account/eos/{}", r.account.to_string_repr()));
    }
    if let Some(s) = sweeps.tezos.top_senders(1).first() {
        out.push(format!("/account/tezos/{}", s.sender));
    }
    if let Some(a) = sweeps.xrp.most_active(1, &data.cluster).first() {
        out.push(format!("/account/xrp/{}", a.account));
    }
    out
}

/// What `reproduce serve` asks of a [`serve_session`]: one field per flag,
/// named after it; the scenario and `--archive` flags chose the dataset.
/// It binds 127.0.0.1:`port` (0: any free port) with a token bucket of
/// `rate` requests per second and depth `burst`, and sleeps `epoch_ms`
/// before each epoch after the first. With `load` it returns once the
/// built-in load run at the head is done, else on `POST /admin/shutdown`.
pub struct ServePlan {
    pub port: u16,
    pub batch: usize,
    pub epoch_ms: u64,
    pub rate: f64,
    pub burst: f64,
    pub load: bool,
}

/// A line a [`serve_session`] has for its operator.
pub enum ServeLine {
    /// For scripts to scrape (stdout): `serving on http://ADDR` once bound,
    /// the `--load` summary.
    Announce(String),
    /// Progress (stderr).
    Progress(String),
}

/// Serve `data` while following it to its head — see the module docs. The
/// first epoch is published before the server binds, so every response
/// has sweeps; then one epoch per `--batch` until the head.
pub fn serve_session(
    data: PipelineData,
    plan: &ServePlan,
    mut say: impl FnMut(ServeLine),
) -> Result<(), String> {
    say(ServeLine::Progress(format!("serving in epochs of {} blocks…", plan.batch)));
    // The process-global registry, so `/metrics` carries every layer's
    // families (the fleet, generation and archive ones the binary
    // registered at zero, ingest counters from the shard pools,
    // reduce/epoch progress from the follower, route stats) in one
    // exposition.
    let registry = txstat_telemetry::registry().clone();
    // No reorg guard: nothing can hand this session a reorged chain, so it
    // hashes no block and retains no snapshot.
    let mut follower = Follower::new(data, plan.batch);
    follower.bind_metrics(&registry);
    let first = follower.advance().map_err(|e| e.to_string())?;
    let mut epoch = 1u64;
    let cell =
        Arc::new(EpochCell::new(Arc::new(ServeSnapshot::new(epoch, follower.head(), first))));
    let service = Arc::new(StatsService::with_registry(cell.clone(), registry.clone()));

    let rt = tokio::runtime::Runtime::new().map_err(|e| e.to_string())?;
    rt.block_on(async {
        let handler: Arc<dyn HttpHandler> = service.clone();
        let server = spawn_query_server(
            handler,
            QueryServerConfig {
                name: "stats-serve".to_owned(),
                bind: format!("127.0.0.1:{}", plan.port),
                rate_per_sec: plan.rate,
                burst: plan.burst,
                ..QueryServerConfig::default()
            },
        )
        .await
        .map_err(|e| e.to_string())?;
        // Route-class counters (requests/served/shed/bytes/latency) join
        // the same registry the service exposes on /metrics.
        server.routes.register_into(&registry);
        say(ServeLine::Announce(format!("serving on http://{}", server.addr)));

        while !follower.head() {
            if plan.epoch_ms > 0 {
                std::thread::sleep(Duration::from_millis(plan.epoch_ms));
            }
            let fork = follower.advance().map_err(|e| e.to_string())?;
            epoch += 1;
            let head = follower.head();
            cell.publish(Arc::new(ServeSnapshot::new(epoch, head, fork)));
            let (e, t, x) = follower.observed();
            say(ServeLine::Progress(format!(
                "epoch {epoch}: EOS {e} | Tezos {t} | XRP {x} blocks observed{}",
                if head { " — head reached" } else { "" }
            )));
        }

        if plan.load {
            let mut paths: Vec<String> = ["headline", "fig1", "fig4", "fig7", "fig8", "comparison"]
                .iter()
                .map(|n| format!("/exhibit/{n}"))
                .collect();
            paths.push("/report".to_owned());
            paths.extend(sample_account_paths(service.snapshot().data()));
            let load = LoadPlan { connections: 64, requests_per_conn: 200, paths };
            say(ServeLine::Progress(format!(
                "load: {} connections × {} requests over {} paths…",
                load.connections,
                load.requests_per_conn,
                load.paths.len()
            )));
            let report = run_load(server.addr, &load).await;
            say(ServeLine::Announce(format!(
                "load: {} requests in {:.2?} → {:.0} req/s | ok {} shed {} errors {} | \
                 p50 {}µs p99 {}µs max {}µs | cache hits {} misses {}",
                report.sent,
                report.elapsed,
                report.req_per_sec(),
                report.ok,
                report.shed,
                report.errors,
                report.p50_us,
                report.p99_us,
                report.max_us,
                service.cache_hits.get(),
                service.cache_misses.get(),
            )));
            return Ok(());
        }

        say(ServeLine::Progress("head reached; serving until POST /admin/shutdown…".to_owned()));
        while !service.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(25));
        }
        say(ServeLine::Progress("shutdown requested; exiting".to_owned()));
        Ok(())
    })
}
