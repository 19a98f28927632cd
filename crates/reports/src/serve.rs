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

use crate::exhibits::{comparison_section, render_report, SECTIONS};
use crate::pipeline::PipelineData;
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use txstat_ingest::EpochCell;
use txstat_netsim::http::{HttpRequest, HttpResponse};
use txstat_netsim::HttpHandler;
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
    /// Raised by `POST /admin/shutdown`; the serve loop polls it.
    pub shutdown: AtomicBool,
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

    /// The registry this service exports through (`/metrics`, `/statusz`).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    pub fn snapshot(&self) -> Arc<ServeSnapshot> {
        self.cell.load()
    }

    pub fn shutdown_requested(&self) -> bool {
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
