//! The traced layer run: the in-process analog of each workload, timed
//! from outside. Every span is an `Instant` pair around one *public* call
//! into a txstat crate — nothing inside the libraries is instrumented, so
//! the ledger keeps working while they are refactored. Spans carry their
//! parent; a layer's self time is its span minus what its children cover,
//! and whatever the op's root span has left over is printed as
//! unattributed, not hidden. It performs as many ops as the end-to-end
//! run of the same `--seconds` (the plan in `txstat_benchmark::Scale`), all
//! on the first round's scenario, pinned to the same single CPU.
//!
//! The only library entry points used are `generate`, `PipelineData::
//! {sweeps, storage_stats, fork_with_sweeps}`, `SECTIONS`, `render_report`,
//! `write_archive`, `pipeline_from_archive`, `Archive::{open, replay_all}`,
//! `archive_io::chains_of`, `ShardContext::{from_archive, frames,
//! total_blocks, cache_stats}`, `encode_all`/`decode_all`, `reduce_fleet`,
//! `serve_assignments`, `ReduceSession`, `Checkpoint::{new, observe_tail,
//! merged}` over the `*Columnar` accumulators, `ServeSnapshot::new`,
//! `EpochCell`, `StatsService::respond` and `spawn_query_server` — none of
//! which ROADMAP items 2–3 plan to delete.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use txstat_archive::Archive;
use txstat_benchmark::http::Conn;
use txstat_benchmark::proc::pin_to_one_cpu;
use txstat_benchmark::{fingerprint, round_seed, stats, target_dir};
use txstat_benchmark::{Args, Metric, RunResult, Scale, TempRoot, OP_DEADLINE, ROUTES};
use txstat_core::{ChainSweeps, EosColumnar, TezosColumnar, XrpColumnar};
use txstat_ingest::{
    reduce_fleet, serve_assignments, Checkpoint, EpochCell, FleetConfig, ReduceSession,
};
use txstat_netsim::{spawn_query_server, HttpHandler, QueryServerConfig};
use txstat_reports::archive_io::chains_of;
use txstat_reports::{
    generate, pipeline_from_archive, render_report, write_archive, PipelineData, SegmentFormat,
    ServeSnapshot, ShardContext, StatsService, SECTIONS,
};
use txstat_wire::{decode_all, encode_all, PayloadFormat, ShardFrame};
use txstat_workload::Scenario;

/// Every per-layer metric, with its unit. A workload that never enters a
/// layer reports 0 for it: the ledger is per workload, and "this workload
/// spends nothing there" is what lets a later change be checked against
/// the workloads it must not move.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("workload.generate_ms", "ms"),
    ("workload.blocks", "count"),
    ("workload.transactions", "count"),
    ("core.sweep_ms", "ms"),
    ("core.sweep_blocks_per_s", "1/s"),
    ("reports.fig2_storage_ms", "ms"),
    ("reports.render_rest_ms", "ms"),
    ("reports.report_bytes", "B"),
    ("archive.seal_ms", "ms"),
    ("archive.seal_mb_per_s", "MB/s"),
    ("archive.raw_bytes", "B"),
    ("archive.compressed_bytes", "B"),
    ("archive.segments", "count"),
    ("archive.open_ms", "ms"),
    ("archive.replay_all_ms", "ms"),
    ("reports.chains_of_ms", "ms"),
    ("reports.cold_start_ms", "ms"),
    ("reports.shard_frames_cold_ms", "ms"),
    ("reports.shard_frames_warm_ms", "ms"),
    ("archive.cache_hits", "count"),
    ("archive.cache_misses", "count"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.frame_bytes", "B"),
    ("ingest.fleet_roundtrip_ms", "ms"),
    ("ingest.fleet_transport_ms", "ms"),
    ("ingest.reduce_submit_ms", "ms"),
    ("ingest.reduce_finalize_ms", "ms"),
    ("ingest.observe_tail_ms", "ms"),
    ("core.merge_finalize_first_ms", "ms"),
    ("core.merge_finalize_last_ms", "ms"),
    ("reports.fork_snapshot_ms", "ms"),
    ("ingest.epoch_publish_us", "us"),
    // The two `follow.*` figures are a client's view: the end-to-end
    // harness fills them in from its `/healthz` sightings of real
    // catch-ups (`follow_sightings` in `main.rs`); here they stay 0.
    ("follow.epoch_interval_p50_ms", "ms"),
    ("follow.publish_growth", "ratio"),
    ("reports.respond_report_miss_ms", "ms"),
    ("reports.respond_exhibit_miss_ms", "ms"),
    ("reports.respond_hit_us", "us"),
    ("netsim.http_roundtrip_us", "us"),
    ("netsim.http_rps_2conn", "1/s"),
    ("trace.op_ms", "ms"),
    ("trace.layers_sum_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
];

/// The fleet script: 8 chunks over 2 sub-shards, as the CLI workload runs.
const CHUNKS: u64 = 8;
const SHARDS: usize = 2;
/// Cached GETs per connection behind the two `netsim` figures.
const HTTP_PROBES: usize = 2000;

// ---- tracer ------------------------------------------------------------------

/// One finished span. `op` is 0 for set-up and probes, k for the k-th op.
struct Rec {
    parent: Option<usize>,
    name: &'static str,
    op: usize,
    start: Duration,
    end: Duration,
}

impl Rec {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1000.0
    }
}

/// Spans are kept in memory and written out when the run ends. Worker
/// threads record into the same list, naming their parent explicitly.
struct Tracer {
    t0: Instant,
    /// The op being recorded (0 between ops) and how many have started.
    op: AtomicUsize,
    ops: AtomicUsize,
    recs: Mutex<Vec<Rec>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            op: AtomicUsize::new(0),
            ops: AtomicUsize::new(0),
            recs: Mutex::new(Vec::new()),
        }
    }

    fn recs(&self) -> std::sync::MutexGuard<'_, Vec<Rec>> {
        self.recs
            .lock()
            .expect("no span is recorded while panicking")
    }

    /// Time `f` as a span called `name` under `parent`; `f` gets the new
    /// span's id so it can parent its own children.
    fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce(usize) -> T) -> T {
        let id = {
            let mut recs = self.recs();
            let start = self.t0.elapsed();
            let op = self.op.load(Ordering::Relaxed);
            recs.push(Rec {
                parent,
                name,
                op,
                start,
                end: start,
            });
            recs.len() - 1
        };
        let out = f(id);
        let end = self.t0.elapsed();
        self.recs()[id].end = end;
        out
    }

    /// Duration of the latest finished span called `name`.
    fn last_ms(&self, name: &str) -> f64 {
        self.recs()
            .iter()
            .rev()
            .find(|r| r.name == name)
            .map_or(0.0, Rec::ms)
    }

    /// Run `f` as the next op, under a root span called `op`.
    fn op<T>(&self, f: impl FnOnce(usize) -> T) -> T {
        self.op.store(
            self.ops.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        let out = self.time("op", None, f);
        // Anything recorded until the next op starts is set-up or probe.
        self.op.store(0, Ordering::Relaxed);
        out
    }
}

/// The spans of a finished run, folded into per-op and per-span figures.
struct Ledger {
    recs: Vec<Rec>,
    self_ms: Vec<f64>,
    ops: usize,
}

impl Ledger {
    fn new(recs: Vec<Rec>, ops: usize) -> Ledger {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); recs.len()];
        for (i, r) in recs.iter().enumerate() {
            if let Some(p) = r.parent {
                children[p].push(i);
            }
        }
        // Self time: the span minus the part of it its children cover
        // (children may overlap each other — the two fleet workers do).
        let self_ms = recs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut cover: Vec<(Duration, Duration)> = children[i]
                    .iter()
                    .map(|&c| (recs[c].start.max(r.start), recs[c].end.min(r.end)))
                    .filter(|(s, e)| e > s)
                    .collect();
                cover.sort();
                let mut covered = Duration::ZERO;
                let mut reach = r.start;
                for (s, e) in cover {
                    if e > reach {
                        covered += e - s.max(reach);
                        reach = e;
                    }
                }
                ((r.end - r.start).saturating_sub(covered)).as_secs_f64() * 1000.0
            })
            .collect();
        Ledger { recs, self_ms, ops }
    }

    /// Per op, the summed time (self or whole) of the spans called `name`.
    fn per_op(&self, name: &str, self_only: bool) -> Vec<f64> {
        let mut sums = vec![0.0; self.ops + 1];
        for (i, r) in self.recs.iter().enumerate() {
            if r.op > 0 && r.name == name {
                sums[r.op] += if self_only { self.self_ms[i] } else { r.ms() };
            }
        }
        sums.split_off(1)
    }

    /// Durations of every span called `name`, inside ops or outside them.
    fn spans(&self, name: &str, in_ops: bool) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.name == name && (r.op > 0) == in_ops)
            .map(Rec::ms)
            .collect()
    }

    /// A layer's cost: median per-op self time when ops enter it, else the
    /// median of its set-up/probe spans, else 0.
    fn layer_ms(&self, name: &str) -> f64 {
        if self.recs.iter().any(|r| r.op > 0 && r.name == name) {
            stats::median(&self.per_op(name, true))
        } else {
            stats::median(&self.spans(name, false))
        }
    }

    /// Per op, the first and the last span called `name`.
    fn first_last(&self, name: &str) -> (Vec<f64>, Vec<f64>) {
        let mut by_op: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for r in self.recs.iter().filter(|r| r.op > 0 && r.name == name) {
            by_op.entry(r.op).or_default().push(r.ms());
        }
        by_op.values().map(|v| (v[0], v[v.len() - 1])).unzip()
    }

    /// Layer names entered by ops, in first-seen order, without the root.
    fn op_layers(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for r in self.recs.iter().filter(|r| r.op > 0 && r.name != "op") {
            if !names.contains(&r.name) {
                names.push(r.name);
            }
        }
        names
    }

    fn write_ndjson(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, r) in self.recs.iter().enumerate() {
            let line = serde_json::json!({
                "workload": workload,
                "id": id,
                "parent": r.parent,
                "name": r.name,
                "op": r.op,
                "start_us": r.start.as_micros() as u64,
                "end_us": r.end.as_micros() as u64,
            });
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("serializable")
            )?;
        }
        out.flush()
    }
}

// ---- run context -------------------------------------------------------------

struct Ctx {
    sc: Scenario,
    scale: Scale,
    tmp: TempRoot,
    /// Shared with the in-process fleet workers' threads.
    tr: Arc<Tracer>,
    /// Rounds and ops per round of the end-to-end run; the traced run does
    /// as many ops (for `serve_refresh`, as many sessions), all on the
    /// first round's scenario.
    rounds: usize,
    ops_per_round: usize,
    metrics: BTreeMap<&'static str, f64>,
    /// Ops whose output differed from the reference.
    failed: u64,
}

impl Ctx {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    fn ops(&self) -> usize {
        self.rounds * self.ops_per_round
    }

    fn check(&mut self, what: &str, got: &[u8], want: &[u8]) {
        if got != want {
            self.failed += 1;
            println!("note {what}: output differs from the reference report");
        }
    }
}

fn blocks_and_transactions(d: &PipelineData) -> (u64, u64) {
    let blocks = d.eos_blocks.len() + d.tezos_blocks.len() + d.xrp_blocks.len();
    let txs = d
        .eos_blocks
        .iter()
        .map(|b| b.transactions.len())
        .sum::<usize>()
        + d.tezos_blocks
            .iter()
            .map(|b| b.operations.len())
            .sum::<usize>()
        + d.xrp_blocks
            .iter()
            .map(|b| b.transactions.len())
            .sum::<usize>();
    (blocks as u64, txs as u64)
}

fn longest_chain(d: &PipelineData) -> usize {
    d.eos_blocks
        .len()
        .max(d.tezos_blocks.len())
        .max(d.xrp_blocks.len())
}

/// What the three archive workloads set up: the sealed corpus and the
/// report it must reproduce.
struct Corpus {
    dir: PathBuf,
    reference: Vec<u8>,
}

/// Generate, render the reference, seal, and probe the cold-start parts
/// (`pipeline_from_archive` is one call; its three stages are timed on
/// their own so a codec change shows where it lands).
fn seal_corpus(c: &mut Ctx) -> Result<Corpus, String> {
    let dir = c.tmp.path().join("corpus");
    let data = c.tr.time("workload.generate", None, |_| generate(&c.sc));
    let (blocks, txs) = blocks_and_transactions(&data);
    let reference = render_report(&data).into_bytes();
    let sealed = c.tr.time("archive.seal", None, |_| {
        write_archive(&dir, &data, c.scale.name, 256, SegmentFormat::default())
    })?;
    drop(data);
    for _ in 0..3 {
        let archive = c.tr.time("archive.open", None, |_| Archive::open(&dir));
        let archive = archive.map_err(|e| e.to_string())?;
        let segments =
            c.tr.time("archive.replay_all", None, |_| archive.replay_all());
        let segments = segments.map_err(|e| e.to_string())?;
        // The decoded chains are dropped outside the span.
        let _chains =
            c.tr.time("reports.chains_of", None, |_| chains_of(&segments))?;
    }
    let seal_s = c.tr.last_ms("archive.seal") / 1000.0;
    c.set("workload.blocks", blocks as f64);
    c.set("workload.transactions", txs as f64);
    c.set("archive.raw_bytes", sealed.raw_bytes as f64);
    c.set("archive.compressed_bytes", sealed.compressed_bytes as f64);
    c.set("archive.segments", sealed.segments as f64);
    c.set(
        "archive.seal_mb_per_s",
        sealed.raw_bytes as f64 / 1e6 / seal_s.max(1e-9),
    );
    Ok(Corpus { dir, reference })
}

// ---- report ------------------------------------------------------------------

/// generate → sweep → Figure 2 storage → render → write → drop.
fn report(c: &mut Ctx) -> Result<(), String> {
    let out = c.tmp.path().join("report.txt");
    let mut first: Option<Vec<u8>> = None;
    for _ in 0..c.ops() {
        let (counts, text) = c.tr.op(|op| {
            let data =
                c.tr.time("workload.generate", Some(op), |_| generate(&c.sc));
            let counts = blocks_and_transactions(&data);
            c.tr.time("core.sweep", Some(op), |_| {
                data.sweeps();
            });
            c.tr.time("reports.fig2_storage", Some(op), |_| {
                data.storage_stats();
            });
            let text =
                c.tr.time("reports.render_rest", Some(op), |_| render_report(&data));
            c.tr.time("harness.write_file", Some(op), |_| {
                std::fs::write(&out, &text)
            })
            .map_err(|e| e.to_string())?;
            c.tr.time("harness.drop", Some(op), |_| drop(data));
            Ok::<_, String>((counts, text.into_bytes()))
        })?;
        c.set("workload.blocks", counts.0 as f64);
        c.set("workload.transactions", counts.1 as f64);
        c.set("reports.report_bytes", text.len() as f64);
        let want = first.get_or_insert_with(|| text.clone()).clone();
        c.check("report", &text, &want);
    }
    Ok(())
}

// ---- fleet_reduce --------------------------------------------------------------

/// `[0, total)` in `CHUNKS` contiguous ranges, the last taking the rest.
fn chunk_ranges(total: u64) -> Vec<(u64, u64)> {
    let size = total / CHUNKS;
    (0..CHUNKS)
        .map(|i| {
            (
                i * size,
                if i + 1 == CHUNKS {
                    total
                } else {
                    (i + 1) * size
                },
            )
        })
        .collect()
}

/// The fixed worker script, twice over one fresh context: the first pass
/// decodes every segment (cold), the second is served from the cache.
fn frames_script(c: &mut Ctx, dir: &Path) -> Result<(), String> {
    let (mut hits, mut misses, mut frame_bytes) = (0, 0, 0);
    for _ in 0..3 {
        let (ctx, manifest) = ShardContext::from_archive(dir)?;
        let ranges = chunk_ranges(ctx.total_blocks());
        let pass = |name: &'static str| {
            c.tr.time(name, None, |_| {
                let mut all: Vec<ShardFrame> = Vec::new();
                for &(a, b) in &ranges {
                    all.extend(ctx.frames(
                        manifest.meta.clone(),
                        a,
                        b,
                        SHARDS,
                        PayloadFormat::Bin,
                    )?);
                }
                Ok::<_, String>(all)
            })
        };
        pass("reports.shard_frames_cold")?;
        let frames = pass("reports.shard_frames_warm")?;
        let cache = ctx
            .cache_stats()
            .ok_or("archived context without a cache")?;
        (hits, misses) = (cache.hits, cache.misses);
        let bytes = c.tr.time("wire.encode", None, |_| encode_all(&frames));
        frame_bytes = bytes.len();
        let back = c.tr.time("wire.decode", None, |_| decode_all(&bytes));
        if back.map_err(|e| e.to_string())?.len() != frames.len() {
            return Err("decode_all lost frames".to_owned());
        }
    }
    c.set("archive.cache_hits", hits as f64);
    c.set("archive.cache_misses", misses as f64);
    c.set("wire.frame_bytes", frame_bytes as f64);
    Ok(())
}

/// One in-process fleet worker: a warm archived context behind a socket.
/// Its handler spans hang under whichever round trip is in flight. The
/// thread blocks in `accept` for good and ends with the process.
fn spawn_worker(
    dir: &Path,
    tr: &Arc<Tracer>,
    in_flight: &Arc<AtomicUsize>,
) -> Result<String, String> {
    let (ctx, _) = ShardContext::from_archive(dir)?;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let (tr, in_flight) = (tr.clone(), in_flight.clone());
    std::thread::spawn(move || {
        let _ = serve_assignments(&listener, None, OP_DEADLINE, |a| {
            let parent = Some(in_flight.load(Ordering::SeqCst)).filter(|p| *p != usize::MAX);
            tr.time("reports.shard_frames", parent, |_| {
                ctx.frames(a.meta.clone(), a.start, a.end, a.shards, a.payload)
            })
        });
    });
    Ok(addr)
}

/// cold start → fleet round trip over sockets → submit → finalize → fork →
/// Figure 2 storage → render → write → drop.
fn fleet_reduce(c: &mut Ctx) -> Result<(), String> {
    let corpus = seal_corpus(c)?;
    frames_script(c, &corpus.dir)?;
    let tr = c.tr.clone();
    let in_flight = Arc::new(AtomicUsize::new(usize::MAX));
    let workers = vec![
        spawn_worker(&corpus.dir, &tr, &in_flight)?,
        spawn_worker(&corpus.dir, &tr, &in_flight)?,
    ];
    let mut cfg = FleetConfig::new(workers);
    cfg.chunks = CHUNKS as usize;
    cfg.seed = c.sc.seed;
    let meta = ShardContext::from_archive(&corpus.dir)?.1.meta;
    let out = c.tmp.path().join("reduce.txt");

    let run = |c: &mut Ctx, op: Option<usize>| -> Result<Vec<u8>, String> {
        let (data, archive) = c.tr.time("reports.cold_start", op, |_| {
            pipeline_from_archive(&corpus.dir)
        })?;
        let total = longest_chain(&data) as u64;
        let labeled = c.tr.time("ingest.fleet_roundtrip", op, |rt| {
            in_flight.store(rt, Ordering::SeqCst);
            let r = reduce_fleet(&cfg, total, SHARDS, PayloadFormat::Bin, meta.clone());
            in_flight.store(usize::MAX, Ordering::SeqCst);
            r
        });
        let labeled = labeled.map_err(|e| e.to_string())?;
        let mut session = ReduceSession::new();
        c.tr.time("ingest.reduce_submit", op, |_| {
            labeled
                .iter()
                .try_for_each(|(_, frame)| session.submit(frame))
        })
        .map_err(|e| e.to_string())?;
        let sweeps =
            c.tr.time("ingest.reduce_finalize", op, |_| session.finalize());
        let sweeps = sweeps.map_err(|e| e.to_string())?;
        let reduced = c.tr.time("reports.fork_snapshot", op, |_| {
            data.fork_with_sweeps(sweeps)
        });
        c.tr.time("reports.fig2_storage", op, |_| {
            reduced.storage_stats();
        });
        let text =
            c.tr.time("reports.render_rest", op, |_| render_report(&reduced));
        c.tr.time("harness.write_file", op, |_| std::fs::write(&out, &text))
            .map_err(|e| e.to_string())?;
        c.tr.time("harness.drop", op, |_| {
            drop((reduced, data, archive, labeled))
        });
        Ok(text.into_bytes())
    };

    // The warm-up fills both workers' segment caches; it is not an op.
    run(c, None)?;
    for _ in 0..c.ops() {
        let text = tr.op(|op| run(c, Some(op)))?;
        c.set("reports.report_bytes", text.len() as f64);
        c.check("fleet reduce", &text, &corpus.reference);
    }
    Ok(())
}

// ---- the follower the serve path runs, from public parts -----------------------

/// `Checkpoint::observe_tail` per chain, merge + finalize, fork: what one
/// epoch costs the write side, spelled with the calls that will survive
/// the follower merge (ROADMAP item 3).
struct Follower {
    data: PipelineData,
    eos: Checkpoint<EosColumnar>,
    tezos: Checkpoint<TezosColumnar>,
    xrp: Checkpoint<XrpColumnar>,
    offset: usize,
    batch: usize,
    total: usize,
}

impl Follower {
    fn new(data: PipelineData, batch: usize) -> Follower {
        let period = data.scenario.period;
        let eos = Checkpoint::new(
            vec![EosColumnar::new(period); SHARDS],
            data.eos_blocks.first().map_or(1, |b| b.num),
        );
        let tezos = Checkpoint::new(
            vec![TezosColumnar::new(period, data.governance_periods.clone()); SHARDS],
            data.tezos_blocks.first().map_or(1, |b| b.level),
        );
        let xrp = Checkpoint::new(
            vec![XrpColumnar::new(period); SHARDS],
            data.xrp_blocks.first().map_or(1, |b| b.index),
        );
        let total = longest_chain(&data);
        Follower {
            data,
            eos,
            tezos,
            xrp,
            offset: 0,
            batch,
            total,
        }
    }

    fn head(&self) -> bool {
        self.offset >= self.total
    }

    /// Observe the next batch of every chain and finalize the sweeps there.
    fn advance(&mut self, tr: &Tracer, parent: Option<usize>) -> Result<ChainSweeps, String> {
        let hi = (self.offset + self.batch).min(self.total);
        let take = |n: usize| self.offset.min(n)..hi.min(n);
        let d = &self.data;
        tr.time("ingest.observe_tail", parent, |_| {
            self.eos.observe_tail(
                d.eos_blocks[take(d.eos_blocks.len())]
                    .iter()
                    .map(|b| (b.num, b)),
                |a, _, b| a.observe(b),
            )?;
            self.tezos.observe_tail(
                d.tezos_blocks[take(d.tezos_blocks.len())]
                    .iter()
                    .map(|b| (b.level, b)),
                |a, _, b| a.observe(b),
            )?;
            self.xrp.observe_tail(
                d.xrp_blocks[take(d.xrp_blocks.len())]
                    .iter()
                    .map(|b| (b.index, b)),
                |a, _, b| a.observe(b, &d.oracle),
            )
        })
        .map_err(|e| e.to_string())?;
        self.offset = hi;
        Ok(tr.time("core.merge_finalize", parent, |_| ChainSweeps {
            eos: self.eos.merged(|a, b| a.merge(b)).finalize(),
            tezos: self.tezos.merged(|a, b| a.merge(b)).finalize(),
            xrp: self.xrp.merged(|a, b| a.merge(b)).finalize(),
        }))
    }
}

/// Advance once, fork the dataset at the new sweeps into a snapshot (one
/// span per epoch: `fork_with_sweeps` + `ServeSnapshot::new`) and publish
/// it as the next epoch.
fn publish_next(
    f: &mut Follower,
    cell: &mut Option<Arc<EpochCell<ServeSnapshot>>>,
    epoch: &mut u64,
    tr: &Tracer,
    parent: Option<usize>,
) -> Result<(), String> {
    let sweeps = f.advance(tr, parent)?;
    *epoch += 1;
    let snap = tr.time("reports.fork_snapshot", parent, |_| {
        Arc::new(ServeSnapshot::new(
            *epoch,
            f.head(),
            f.data.fork_with_sweeps(sweeps),
        ))
    });
    tr.time("ingest.epoch_publish", parent, |_| {
        if let Some(cell) = cell {
            cell.publish(snap);
        } else {
            *cell = Some(Arc::new(EpochCell::new(snap)));
        }
    });
    Ok(())
}

// ---- follow_catchup --------------------------------------------------------------

/// cold start, then observe → merge/finalize → fork → publish per batch
/// until head.
fn follow_catchup(c: &mut Ctx) -> Result<(), String> {
    let corpus = seal_corpus(c)?;
    let batch = c.scale.follow_batch;
    let catch_up = |c: &Ctx, op: Option<usize>| {
        let (data, archive) = c.tr.time("reports.cold_start", op, |_| {
            pipeline_from_archive(&corpus.dir)
        })?;
        let mut f = Follower::new(data, batch);
        let (mut cell, mut epoch) = (None, 0);
        while !f.head() {
            publish_next(&mut f, &mut cell, &mut epoch, &c.tr, op)?;
        }
        Ok::<_, String>((cell.ok_or("corpus holds no block")?, f, archive))
    };

    for _ in 0..c.ops() {
        c.tr.op(|op| {
            let state = catch_up(c, Some(op))?;
            c.tr.time("harness.drop", Some(op), |_| drop(state));
            Ok::<_, String>(())
        })?;
    }

    // Teardown check, outside any op: the snapshot at head renders the
    // one-shot report.
    let (cell, _f, _archive) = catch_up(c, None)?;
    let served = render_report(cell.load().data()).into_bytes();
    c.set("reports.report_bytes", served.len() as f64);
    c.check("follow catch-up at head", &served, &corpus.reference);
    Ok(())
}

// ---- serve_refresh ---------------------------------------------------------------

/// `ROUTES` must hold every section the library renders, the comparison
/// table, one account and the report: the end-to-end workload reads the
/// same list and cannot ask the server what it serves.
fn check_routes() -> Result<(), String> {
    let mut served: Vec<String> = SECTIONS
        .iter()
        .map(|(n, _)| format!("/exhibit/{n}"))
        .collect();
    served.push("/exhibit/comparison".to_owned());
    let (exhibits, rest) = ROUTES.split_at(served.len().min(ROUTES.len()));
    if exhibits != served || rest.len() != 2 || rest[1] != "/report" {
        return Err(format!(
            "ROUTES {ROUTES:?} is not the served sections {served:?}, one account, /report"
        ));
    }
    Ok(())
}

fn respond_ok(service: &StatsService, path: &str) -> Result<Vec<u8>, String> {
    let resp = service.respond("GET", path);
    if resp.status != 200 {
        return Err(format!("{path} answered {}", resp.status));
    }
    Ok(resp.body)
}

/// Per published epoch, the first read of every route (`respond` misses);
/// then the same routes again as hits; at the end the socket figures.
fn serve_refresh(c: &mut Ctx) -> Result<(), String> {
    let corpus = seal_corpus(c)?;
    let batch = c.scale.refresh_batch;
    check_routes()?;
    let mut last_service = None;
    for _ in 0..c.rounds {
        // One session: cold start, first epoch, the shared lazy cost.
        let (data, _archive) = c.tr.time("reports.cold_start", None, |_| {
            pipeline_from_archive(&corpus.dir)
        })?;
        let mut f = Follower::new(data, batch);
        let (mut cell, mut epoch) = (None, 0);
        publish_next(&mut f, &mut cell, &mut epoch, &c.tr, None)?;
        let service = Arc::new(StatsService::new(
            cell.clone().ok_or("corpus holds no block")?,
        ));
        c.tr.time("reports.fig2_storage", None, |_| {
            respond_ok(&service, "/report").map(drop)
        })?;
        while !f.head() {
            publish_next(&mut f, &mut cell, &mut epoch, &c.tr, None)?;
            c.tr.op(|op| {
                ROUTES.iter().try_for_each(|path| {
                    let name = if *path == "/report" {
                        "reports.respond_report_miss"
                    } else {
                        "reports.respond_exhibit_miss"
                    };
                    c.tr.time(name, Some(op), |_| respond_ok(&service, path).map(drop))
                })
            })?;
            for path in ROUTES {
                c.tr.time("reports.respond_hit", None, |_| {
                    respond_ok(&service, path).map(drop)
                })?;
            }
        }
        let served = respond_ok(&service, "/report")?;
        c.set("reports.report_bytes", served.len() as f64);
        c.check("served /report at head", &served, &corpus.reference);
        last_service = Some(service);
    }

    // Socket share: cached GETs against the query server, admission wide
    // open, first over one keep-alive connection, then over two at once.
    let service = last_service.ok_or("no session ran")?;
    let handler: Arc<dyn HttpHandler> = service;
    let runtime = tokio::runtime::Runtime::new().map_err(|e| e.to_string())?;
    let server = runtime
        .block_on(spawn_query_server(
            handler,
            QueryServerConfig {
                rate_per_sec: 1e9,
                burst: 1e9,
                max_in_flight: 1 << 20,
                ..QueryServerConfig::default()
            },
        ))
        .map_err(|e| e.to_string())?;
    let addr = server.addr.to_string();
    let hot_loop = |addr: &str| -> Result<Vec<f64>, String> {
        let mut conn = Conn::connect(addr, OP_DEADLINE).map_err(|e| e.to_string())?;
        let mut us = Vec::with_capacity(HTTP_PROBES);
        for _ in 0..HTTP_PROBES {
            let t = Instant::now();
            let resp = conn.get("/exhibit/fig1").map_err(|e| e.to_string())?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
            if !resp.is_ok() {
                return Err(format!("cached GET answered {}", resp.status));
            }
        }
        Ok(us)
    };
    hot_loop(&addr)?; // connection, thread and cache warm-up
    c.set("netsim.http_roundtrip_us", stats::median(&hot_loop(&addr)?));
    let started = Instant::now();
    std::thread::scope(|s| -> Result<(), String> {
        let clients = [s.spawn(|| hot_loop(&addr)), s.spawn(|| hot_loop(&addr))];
        clients
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "client panicked")?.map(drop))
    })?;
    c.set(
        "netsim.http_rps_2conn",
        2.0 * HTTP_PROBES as f64 / started.elapsed().as_secs_f64(),
    );
    Ok(())
}

// ---- fold and print --------------------------------------------------------------

/// `(metric, span)` pairs whose value is simply the layer's cost.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("workload.generate_ms", "workload.generate"),
    ("core.sweep_ms", "core.sweep"),
    ("reports.fig2_storage_ms", "reports.fig2_storage"),
    ("reports.render_rest_ms", "reports.render_rest"),
    ("archive.seal_ms", "archive.seal"),
    ("archive.open_ms", "archive.open"),
    ("archive.replay_all_ms", "archive.replay_all"),
    ("reports.chains_of_ms", "reports.chains_of"),
    ("reports.cold_start_ms", "reports.cold_start"),
    ("reports.shard_frames_cold_ms", "reports.shard_frames_cold"),
    ("reports.shard_frames_warm_ms", "reports.shard_frames_warm"),
    ("wire.encode_ms", "wire.encode"),
    ("wire.decode_ms", "wire.decode"),
    ("ingest.fleet_transport_ms", "ingest.fleet_roundtrip"),
    ("ingest.reduce_submit_ms", "ingest.reduce_submit"),
    ("ingest.reduce_finalize_ms", "ingest.reduce_finalize"),
    (
        "reports.respond_report_miss_ms",
        "reports.respond_report_miss",
    ),
    (
        "reports.respond_exhibit_miss_ms",
        "reports.respond_exhibit_miss",
    ),
];

fn fold(c: &mut Ctx, ledger: &Ledger, workload: &str, e2e_op_ms: Option<f64>) {
    for (metric, span) in LAYER_SPANS {
        c.set(metric, ledger.layer_ms(span));
    }
    c.set(
        "ingest.fleet_roundtrip_ms",
        stats::median(&ledger.per_op("ingest.fleet_roundtrip", false)),
    );
    // Per-epoch figures are medians over every epoch of every op.
    c.set(
        "ingest.observe_tail_ms",
        stats::median(&ledger.spans("ingest.observe_tail", true)),
    );
    c.set(
        "reports.fork_snapshot_ms",
        stats::median(&ledger.spans("reports.fork_snapshot", true)),
    );
    c.set(
        "ingest.epoch_publish_us",
        1000.0 * stats::median(&ledger.spans("ingest.epoch_publish", true)),
    );
    c.set(
        "reports.respond_hit_us",
        1000.0 * stats::median(&ledger.spans("reports.respond_hit", false)),
    );
    let (first, last) = ledger.first_last("core.merge_finalize");
    c.set("core.merge_finalize_first_ms", stats::median(&first));
    c.set("core.merge_finalize_last_ms", stats::median(&last));
    let sweep_s = c.metrics["core.sweep_ms"] / 1000.0;
    if sweep_s > 0.0 {
        c.set(
            "core.sweep_blocks_per_s",
            c.metrics["workload.blocks"] / sweep_s,
        );
    }

    let op_ms = ledger.per_op("op", false);
    let unattributed = ledger.per_op("op", true);
    let shares: Vec<f64> = op_ms
        .iter()
        .zip(&unattributed)
        .map(|(op, rest)| rest / op)
        .collect();
    let op_median = stats::median(&op_ms);
    println!(
        "ledger {workload}: {} op(s), median in-process op {op_median:.3} ms",
        ledger.ops
    );
    let mut sum = 0.0;
    for name in ledger.op_layers() {
        let ms = stats::median(&ledger.per_op(name, true));
        sum += ms;
        println!(
            "ledger   {name:<32} {ms:>11.3} ms {:>6.1}%",
            100.0 * ms / op_median
        );
    }
    let rest = stats::median(&unattributed);
    println!(
        "ledger   {:<32} {sum:>11.3} ms {:>6.1}%",
        "Σ layers",
        100.0 * sum / op_median
    );
    println!(
        "ledger   {:<32} {rest:>11.3} ms {:>6.1}%",
        "unattributed",
        100.0 * rest / op_median
    );
    if let Some(e2e) = e2e_op_ms {
        println!(
            "ledger   process-level op {e2e:.3} ms on the wall clock: {:.3} ms beyond the in-process op \
             (process start, sockets, file I/O, exit)",
            e2e - op_median
        );
    }
    let (blocks, txs) = (
        c.metrics["workload.blocks"],
        c.metrics["workload.transactions"],
    );
    if blocks > 0.0 && workload != "serve_refresh" {
        println!(
            "ledger   in-process throughput {:.0} blocks/s, {:.0} tx/s ({blocks} blocks, {txs} transactions per op)",
            blocks * 1000.0 / op_median,
            txs * 1000.0 / op_median
        );
    }
    c.set("trace.op_ms", op_median);
    c.set("trace.layers_sum_ms", sum);
    c.set("trace.unattributed_share", stats::median(&shares));
}

fn run(args: &Args, workload: &str) -> Result<RunResult, String> {
    let cpu = pin_to_one_cpu()?;
    let scale = args.run_scale();
    let (rounds, ops_per_round) = args.plan(workload)?;
    let seed = round_seed(args.seed, 0);
    let sc = if scale == Scale::PAPER {
        Scenario::paper(seed)
    } else {
        Scenario::small(seed)
    };
    let mut c = Ctx {
        sc,
        scale,
        tmp: TempRoot::create().map_err(|e| format!("cannot create scratch dir: {e}"))?,
        tr: Arc::new(Tracer::new()),
        rounds,
        ops_per_round,
        metrics: LAYER_METRICS.iter().map(|(n, _)| (*n, 0.0)).collect(),
        failed: 0,
    };
    fingerprint::print(args.seed, scale.name, cpu);
    match workload {
        "report" => report(&mut c)?,
        "fleet_reduce" => fleet_reduce(&mut c)?,
        "follow_catchup" => follow_catchup(&mut c)?,
        "serve_refresh" => serve_refresh(&mut c)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    let ops = c.tr.ops.load(Ordering::Relaxed);
    let recs = std::mem::take(&mut *c.tr.recs());
    let ledger = Ledger::new(recs, ops);
    fold(&mut c, &ledger, workload, args.e2e_op_ms);

    let trace_dir = target_dir().join("txbench-trace");
    std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
    let trace_path = trace_dir.join(format!("{workload}.ndjson"));
    ledger
        .write_ndjson(workload, &trace_path)
        .map_err(|e| e.to_string())?;
    println!(
        "note {} span(s) written to {}",
        ledger.recs.len(),
        trace_path.display()
    );

    let metrics = LAYER_METRICS
        .iter()
        .map(|(n, unit)| Metric::new(n, c.metrics[n], unit))
        .collect();
    Ok(RunResult {
        correct: c.failed == 0,
        attempted: ops as u64,
        failed: c.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let parsed = Args::parse(std::env::args().skip(1)).and_then(|a| match a.workload.clone() {
        Some(w) => Ok((a, w)),
        None => Err("the traced run needs --workload".to_owned()),
    });
    match parsed.and_then(|(args, w)| run(&args, &w).map(|r| r.print(&w))) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
