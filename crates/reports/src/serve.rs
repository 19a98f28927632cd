//! The stats-serving layer behind `reproduce serve`: immutable per-epoch
//! snapshots of the pipeline dataset, a keyed response cache that dies with
//! its snapshot, and the HTTP routing that answers per-exhibit and
//! per-account queries byte-identically to the one-shot report.
//!
//! Consistency model: a [`ServeSnapshot`] is immutable once published
//! through an [`EpochCell`] — readers load an `Arc`, so a concurrent epoch
//! swap can never tear a response (it either came wholly from the old
//! snapshot or wholly from the new one). A snapshot is its dataset's
//! sweeps, its response cache, the views its sections share (the
//! Figure 3a series, the vote curves, the value flow, …, each derived
//! once from the sweeps and read again by the comparison) and the parts
//! of its split sections. The cache, the views and the parts live
//! *inside* the snapshot, so invalidating them on swap is not a protocol,
//! it is reachability: the old ones are dropped with the last reference
//! to the old snapshot.
//!
//! What a new epoch starts with is what cannot have changed. The three
//! chains run out at different epochs, and an epoch's sweeps differ from
//! the previous epoch's only in the chains its advance observed blocks of
//! (`Follower::moved`). Every section, account route, view and section
//! part names the chains it reads (`Section::reads`, `Part::reads`), so
//! [`StatsService::publish_next`] carries each cache entry, view and part
//! of the previous snapshot that reads none of the moved chains into the
//! next one by `Arc` (`txstat_serve_cache_carried_total` counts the
//! entries, `txstat_serve_views_carried_total` the views and parts); the
//! rest starts empty. The headline, Figure 1 and Figure 3 read all three
//! chains, so their routes start empty at every epoch that moved one; but
//! they are the concatenation of one part per chain, and a miss renders
//! only the moved chains' parts afresh. That is sound because an epoch's
//! bytes equal the one-shot render of its observed prefix, and a chain
//! whose prefix did not grow has the same sweep. [`ServeSnapshot::new`]
//! starts empty.
//!
//! `/report` is not rendered as a whole: it is laid out from the cache
//! entries of the section routes (`/exhibit/<name>`, the comparison last),
//! filling those it misses. Each section therefore renders once per epoch,
//! whichever route asks for it first, and a section rendered for
//! `/report` counts as one miss of its own route (a cold `/report` is one
//! miss per section and one for itself). All of it comes from the one
//! snapshot the request loaded, so the assembled report cannot mix epochs
//! either.
//!
//! # The serve session
//!
//! [`serve_session`] is `reproduce serve`: it answers `/report`,
//! `/exhibit/<name>`, `/account/<chain>/<name>`, `/healthz`, `/metrics`
//! (Prometheus text) and `/statusz` (JSON) from immutable epoch snapshots —
//! byte-identical to the one-shot report once the head is reached — sheds
//! excess load with 429s, and runs until `POST /admin/shutdown` (`--load`:
//! until its built-in 64 × 200-request load run has printed its quantiles).
//!
//! Over `--archive DIR` the session serves a block-free dataset
//! ([`crate::streamed_from_archive`]): its follower decodes the corpus's
//! segments a window at a time, and the facts (Figure 2, block bounds, CPU
//! peaks) are summed from `archive.memo` when a section first reads them, a
//! miss summarized from that segment's bytes. A segment that passes the
//! hash check but does not decode is an error naming it, never a panic:
//! met by the follower, it ends the session (`reproduce serve` exits 2);
//! met first by a facts miss, it fails the facts, and so does a corpus
//! whose segments hold other chain lengths than its manifest names. Then
//! the sections that read the facts (Figure 2 and the case studies), and
//! `/report` with them, answer 500 with the failure and are not cached;
//! every other route is served as before.

use crate::exhibits::{render_section, report_layout, section};
use crate::follow::Follower;
use crate::pipeline::{Chains, PipelineData};
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use txstat_ingest::{EpochCell, IngestError};
use txstat_netsim::http::{HttpRequest, HttpResponse};
use txstat_netsim::{run_load, start_query_server, HttpHandler, LoadPlan, QueryServerConfig};
use txstat_telemetry::{Counter, MetricKind, Registry, Sample, SampleValue};

/// One epoch's immutable serving state: the forked dataset (with the
/// views derived from its sweeps) plus the keyed response cache for
/// everything rendered from it.
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

/// The chains a cached route's bytes read: its section's, the account's
/// chain, all three for `/report`. `None`: no such route.
fn route_reads(path: &str) -> Option<Chains> {
    if path == "/report" {
        return Some(Chains::ALL);
    }
    if let Some(name) = path.strip_prefix("/exhibit/") {
        return Some(section(name)?.1.reads);
    }
    let (chain, _) = path.strip_prefix("/account/")?.split_once('/')?;
    Chains::named(chain)
}

impl ServeSnapshot {
    /// A snapshot with an empty cache and no views.
    pub fn new(epoch: u64, head: bool, data: PipelineData) -> Self {
        ServeSnapshot {
            epoch,
            head,
            data,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The next epoch's snapshot over `data`, whose sweeps differ from this
    /// snapshot's in the chains `moved` alone: every cache entry, view and
    /// section part of this one that reads none of them is shared by `Arc`,
    /// the rest start empty. Returns it with the number of cache entries
    /// carried.
    fn succeed(&self, head: bool, data: PipelineData, moved: Chains) -> (ServeSnapshot, usize) {
        let cache: HashMap<String, Arc<Vec<u8>>> = self
            .cache
            .lock()
            .expect("cache lock")
            .iter()
            .filter(|(path, _)| route_reads(path).is_some_and(|reads| !reads.meets(moved)))
            .map(|(path, body)| (path.clone(), Arc::clone(body)))
            .collect();
        let carried = cache.len();
        let next = ServeSnapshot {
            epoch: self.epoch + 1,
            head,
            data: data.carrying_views(&self.data, moved),
            cache: Mutex::new(cache),
        };
        (next, carried)
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
    /// on miss. `Ok(None)` = not a renderable route (404, never cached);
    /// `Err` = the route read facts that failed to resolve (500, never
    /// cached).
    fn get(
        &self,
        path: &str,
        hits: &Counter,
        misses: &Counter,
    ) -> Result<Option<Arc<Vec<u8>>>, String> {
        if let Some(body) = self.cache.lock().expect("cache lock").get(path) {
            hits.inc();
            return Ok(Some(body.clone()));
        }
        // Render outside the lock: a concurrent miss on the same path
        // renders twice but both render identical bytes from the immutable
        // snapshot, so last-insert-wins is harmless.
        let Some(body) = self.render(path, hits, misses)? else {
            return Ok(None);
        };
        let body = Arc::new(body);
        misses.inc();
        self.cache
            .lock()
            .expect("cache lock")
            .insert(path.to_owned(), body.clone());
        Ok(Some(body))
    }

    /// Render one route from the snapshot's dataset; `/report` is laid out
    /// from the section routes' cache entries (see the module docs). A
    /// section that reads the facts, once they have failed to resolve, is
    /// the facts' error, not bytes with defaults in their place.
    fn render(
        &self,
        path: &str,
        hits: &Counter,
        misses: &Counter,
    ) -> Result<Option<Vec<u8>>, String> {
        if path == "/report" {
            let mut out = Vec::new();
            for ((name, _), separator) in report_layout() {
                let Some(body) = self.get(&format!("/exhibit/{name}"), hits, misses)? else {
                    return Ok(None);
                };
                out.extend_from_slice(&body);
                out.extend_from_slice(separator.as_bytes());
            }
            return Ok(Some(out));
        }
        if let Some(name) = path.strip_prefix("/exhibit/") {
            let Some(row) = section(name) else {
                return Ok(None);
            };
            let body = render_section(row, &self.data);
            if row.1.facts {
                self.data.check_facts()?;
            }
            return Ok(Some(body.into_bytes()));
        }
        Ok(path
            .strip_prefix("/account/")
            .and_then(|rest| rest.split_once('/'))
            .and_then(|(chain, name)| self.render_account(chain, name)))
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
    pub cache_carried: Arc<Counter>,
    pub views_carried: Arc<Counter>,
    /// Raised once the reply to `POST /admin/shutdown` has left, which
    /// then notifies `shutdown_raised`; the serve session waits on the
    /// pair. Raising it any earlier would let the process exit before the
    /// reply is written.
    shutdown: Mutex<bool>,
    shutdown_raised: Condvar,
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
        let cache_hits = registry.counter(
            "txstat_serve_cache_hits_total",
            "Response-cache hits across all epochs (incl. each section a /report reuses)",
        );
        let cache_misses = registry.counter(
            "txstat_serve_cache_misses_total",
            "Response-cache misses (responses rendered from the snapshot; a section rendered \
             for /report counts as one miss of its own route)",
        );
        let cache_carried = registry.counter(
            "txstat_serve_cache_carried_total",
            "Response-cache entries a new epoch took over from the one before it, \
             because none of the chains they read moved",
        );
        let views_carried = registry.counter(
            "txstat_serve_views_carried_total",
            "Shared views and section parts a new epoch took over from the one before it, \
             because none of the chains they read moved",
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
            out.push(gauge(
                "txstat_epoch_current",
                "Currently published serve epoch",
                snap.epoch(),
            ));
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
        StatsService {
            cell,
            registry,
            cache_hits,
            cache_misses,
            cache_carried,
            views_carried,
            shutdown: Mutex::new(false),
            shutdown_raised: Condvar::new(),
        }
    }

    pub fn snapshot(&self) -> Arc<ServeSnapshot> {
        self.cell.load()
    }

    /// One serve epoch: advance `follower` and publish its fork as the
    /// next snapshot, carrying over what the advance cannot have changed
    /// (see the module docs). The current snapshot is loaded only once the
    /// advance has returned and is dropped before this does: held into the
    /// next advance, it would pin the copy the follower reclaims there and
    /// make it clone the front instead. Returns the new epoch.
    pub fn publish_next(&self, follower: &mut Follower) -> Result<u64, IngestError> {
        let fork = follower.advance()?;
        let (next, carried) = self
            .cell
            .load()
            .succeed(follower.head(), fork, follower.moved());
        self.cache_carried.add(carried as u64);
        self.views_carried.add(next.data().views_held() as u64);
        let epoch = next.epoch();
        self.cell.publish(Arc::new(next));
        Ok(epoch)
    }

    /// Block until the reply to `POST /admin/shutdown` has been written.
    fn wait_for_shutdown(&self) {
        let raised = self.shutdown.lock().expect("shutdown lock");
        let _raised = self
            .shutdown_raised
            .wait_while(raised, |r| !*r)
            .expect("shutdown lock");
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
            "cache_carried": self.cache_carried.get(),
            "views_carried": self.views_carried.get(),
            "cached_responses": snap.cached_responses(),
            "metrics": self.registry.snapshot_json(),
        });
        if let (Some(memo), serde_json::Value::Object(map)) = (snap.data().memo_status(), &mut body)
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
            ("GET", "/metrics") => HttpResponse::ok(self.registry.render_prometheus().into_bytes()),
            ("GET", "/statusz") => {
                let body = self.statusz(&snap);
                HttpResponse::ok(serde_json::to_vec(&body).unwrap_or_default())
            }
            ("POST", "/admin/shutdown") => HttpResponse::ok(b"{\"shutting_down\":true}".to_vec()),
            ("GET", _) => match snap.get(path, &self.cache_hits, &self.cache_misses) {
                Ok(Some(body)) => HttpResponse::ok(body.as_ref().clone()),
                Ok(None) => Self::not_found(path),
                Err(why) => {
                    let body = serde_json::json!({"error": why, "path": path});
                    let bytes = serde_json::to_vec(&body).unwrap_or_default();
                    HttpResponse::status(500, "Internal Server Error", bytes)
                }
            },
            _ => Self::not_found(path),
        }
    }
}

impl HttpHandler for StatsService {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        self.respond(&req.method, &req.path)
    }

    fn replied(&self, req: &HttpRequest, reply: &HttpResponse) {
        let shutdown = req.method == "POST" && req.path == "/admin/shutdown";
        if shutdown && reply.status == 200 {
            *self.shutdown.lock().expect("shutdown lock") = true;
            self.shutdown_raised.notify_all();
        }
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
    say(ServeLine::Progress(format!(
        "serving in epochs of {} blocks…",
        plan.batch
    )));
    // The process-global registry, so `/metrics` carries every layer's
    // families (the fleet, generation and archive ones the binary
    // registered at zero, ingest, reduce and epoch progress from the
    // follower, route stats) in one
    // exposition.
    let registry = txstat_telemetry::registry().clone();
    // No reorg guard: nothing can hand this session a reorged chain, so it
    // hashes no block and retains no snapshot.
    let mut follower = Follower::new(data, plan.batch);
    follower.bind_metrics(&registry);
    let first = follower.advance().map_err(|e| e.to_string())?;
    let cell = Arc::new(EpochCell::new(Arc::new(ServeSnapshot::new(
        1,
        follower.head(),
        first,
    ))));
    let service = Arc::new(StatsService::with_registry(cell, registry.clone()));

    let handler: Arc<dyn HttpHandler> = service.clone();
    let server = start_query_server(
        handler,
        QueryServerConfig {
            name: "stats-serve".to_owned(),
            bind: format!("127.0.0.1:{}", plan.port),
            rate_per_sec: plan.rate,
            burst: plan.burst,
            ..QueryServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    // Route-class counters (requests/served/shed/bytes/latency) join
    // the same registry the service exposes on /metrics.
    server.routes.register_into(&registry);
    say(ServeLine::Announce(format!(
        "serving on http://{}",
        server.addr
    )));

    while !follower.head() {
        if plan.epoch_ms > 0 {
            std::thread::sleep(Duration::from_millis(plan.epoch_ms));
        }
        let epoch = service
            .publish_next(&mut follower)
            .map_err(|e| e.to_string())?;
        let head = follower.head();
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
        let load = LoadPlan {
            connections: 64,
            requests_per_conn: 200,
            paths,
        };
        say(ServeLine::Progress(format!(
            "load: {} connections × {} requests over {} paths…",
            load.connections,
            load.requests_per_conn,
            load.paths.len()
        )));
        let report = run_load(server.addr, &load);
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

    say(ServeLine::Progress(
        "head reached; serving until POST /admin/shutdown…".to_owned(),
    ));
    service.wait_for_shutdown();
    say(ServeLine::Progress(
        "shutdown requested; exiting".to_owned(),
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhibits::parts;
    use crate::pipeline::generate;
    use crate::tests::emptied;
    use txstat_workload::Scenario;

    /// Per route — every section, the comparison, the busiest account of each
    /// chain and `/report` — and per part of a split section: it is carried
    /// into the next epoch over a dataset whose sweeps differ in one chain
    /// exactly when emptying that chain leaves its bytes unchanged, and every
    /// route answers what a fresh snapshot of that dataset renders. So
    /// emptying a chain outside a row's or a part's set leaves its bytes
    /// unchanged and emptying one inside changes them: the sets are sound and
    /// minimal.
    #[test]
    fn a_route_is_carried_exactly_when_the_moved_chain_leaves_it_unchanged() {
        let data = generate(&Scenario::small(7));
        let mut paths: Vec<String> = report_layout()
            .map(|((name, _), _)| format!("/exhibit/{name}"))
            .collect();
        paths.extend(sample_account_paths(&data));
        paths.push("/report".to_owned());
        assert_eq!(paths.len(), 18);
        let serve = |snapshot: ServeSnapshot| {
            StatsService::new(Arc::new(EpochCell::new(Arc::new(snapshot))))
        };
        let answers = |service: &StatsService| -> Vec<(u16, Vec<u8>)> {
            paths
                .iter()
                .map(|path| {
                    let reply = service.respond("GET", path);
                    (reply.status, reply.body)
                })
                .collect()
        };
        let whole = serve(ServeSnapshot::new(1, true, data));
        let before = answers(&whole);
        for chain in [Chains::EOS, Chains::TEZOS, Chains::XRP] {
            let current = whole.snapshot();
            let (next, _) = current.succeed(true, emptied(current.data(), chain), chain);
            let carried: Vec<bool> = {
                let cache = next.cache.lock().expect("cache lock");
                paths.iter().map(|path| cache.contains_key(path)).collect()
            };
            let held: Vec<bool> = parts().map(|part| next.data().holds_part(part)).collect();
            let after = answers(&serve(next));
            let fresh = answers(&serve(ServeSnapshot::new(
                2,
                true,
                emptied(current.data(), chain),
            )));
            for (i, path) in paths.iter().enumerate() {
                assert!(after[i] == fresh[i], "{path}, {chain:?} moved: stale bytes");
                assert_eq!(carried[i], before[i] == fresh[i], "{path}, {chain:?} moved");
            }
            let emptied = emptied(current.data(), chain);
            for (part, held) in parts().zip(held) {
                let unchanged = current.data().part(part) == emptied.part(part);
                assert_eq!(held, unchanged, "{}, {chain:?} moved", part.label);
            }
        }
    }

    /// Per section, the comparison included: over the same sweeps with
    /// facts that failed to resolve, it renders other bytes exactly when it
    /// is declared to read the facts. A facts-free section is served as
    /// before; a reader, and `/report` with it, answers 500 with the failure.
    /// So the declarations are sound and minimal.
    #[test]
    fn a_facts_failure_fails_exactly_the_sections_that_read_the_facts() {
        const WHY: &str = "segment [0, 256) eos columns: the facts failed";
        let data = generate(&Scenario::small(7));
        let failed = data.failing_facts(WHY);
        let service = StatsService::new(Arc::new(EpochCell::new(Arc::new(ServeSnapshot::new(
            1,
            true,
            data.failing_facts(WHY),
        )))));
        for (row, _) in report_layout() {
            let (name, section) = row;
            let healthy = render_section(row, &data);
            assert_eq!(
                render_section(row, &failed) != healthy,
                section.facts,
                "{name}"
            );
            let reply = service.respond("GET", &format!("/exhibit/{name}"));
            if section.facts {
                assert_eq!(reply.status, 500, "{name}");
                assert!(String::from_utf8_lossy(&reply.body).contains(WHY), "{name}");
            } else {
                assert_eq!(
                    (reply.status, reply.body),
                    (200, healthy.into_bytes()),
                    "{name}"
                );
            }
        }
        assert_eq!(service.respond("GET", "/report").status, 500);
    }
}
