//! The end-to-end reproduction binary, as subcommands:
//!
//! ```text
//! reproduce report [--small] [--seed N] [--crawl] [--out FILE] [--archive DIR]
//!     Generate the scenario and render every exhibit (the classic run;
//!     bare `reproduce` means `report`). --crawl measures the chains over
//!     the loopback RPC crawl, streamed straight into the sweep shards.
//!     --archive DIR cold-starts from an archived corpus instead of
//!     generating: the report is byte-identical and no chain is built.
//!     What the report needs of the block bytes beyond the sweeps
//!     (Figure 2's storage accounting, block bounds, CPU-price peaks) is
//!     memoized per segment in DIR/archive.memo by the first process that
//!     needs it; a missing, stale or damaged memo is recomputed and healed.
//!
//! reproduce archive --out DIR [--small] [--seed N] [--segment-blocks N]
//!                   [--crawl]
//!     Generate the scenario once (or measure it over the loopback RPC
//!     crawl with --crawl) and seal it into an on-disk segmented
//!     corpus (`txstat_archive`): LZSS-compressed per-chain columnar
//!     block segments of --segment-blocks positions each plus a
//!     content-hashed index with the scenario manifest and the sidecar
//!     (oracle trades, account cluster, CPU prices, rolls, governance
//!     windows). Every other subcommand takes --archive DIR to
//!     cold-start from the corpus.
//!
//! reproduce shard --range A..B --out FILE [--small] [--seed N] [--shards K]
//! reproduce shard --listen ADDR [--max-requests N] [--timeout-ms MS]
//!                 [--small] [--seed N]
//!     One distributed shard worker. File mode sweeps block positions
//!     [A, B) of each chain into columnar accumulators and writes them as
//!     wire frames (txstat_wire, binary column payloads); FILE "-" writes
//!     to stdout. Socket mode (--listen) binds a TCP accept loop instead
//!     and answers fleet
//!     range-assignment requests until killed (or until --max-requests
//!     assignments have been served — the deterministic way to die
//!     mid-reduction in tests). It prints `shard worker on ADDR` on
//!     stdout once bound, for scripts to scrape. Both modes take
//!     --archive DIR: the worker cold-starts from the corpus and each
//!     assignment decodes only the segments covering its range — no
//!     chain generation (`txstat_pipeline_generate_total` stays 0).
//!     Decoded segments are kept in a per-worker 64 MiB LRU cache keyed
//!     by segment content hash, so overlapping assignments decode each
//!     segment once; hit/miss/eviction counts land in the
//!     `txstat_archive_cache_*` families.
//!
//! reproduce reduce FRAME-FILE... [--out FILE]
//! reproduce reduce --connect ADDR,ADDR,... [--small] [--seed N]
//!                  [--shards K] [--chunks N]
//!                  [--timeout-ms MS] [--retries N] [--backoff-ms MS]
//!                  [--out FILE] [--metrics-out FILE]
//!     Central reducer: validate + merge shard frames (schema version,
//!     chain tags, overlap, provenance, coverage) and render the full
//!     report — byte-identical to `reproduce report` on the same
//!     scenario. File mode reads concatenated frame bundles; failures
//!     name the offending file. Fleet mode (--connect) drives the listed
//!     socket workers with per-request deadlines, exponential backoff,
//!     bounded retry budgets, and straggler re-dispatch: a timed-out or
//!     dead worker's range goes back on the queue for the survivors, and
//!     failures name the worker address. --metrics-out dumps the
//!     `txstat_fleet_*` counters (Prometheus text) at exit. Fleet mode
//!     takes --archive DIR to cold-start the reducer-side dataset from
//!     the corpus instead of generating it — block-free: the sweeps come
//!     from the fleet and the rest from DIR/archive.memo, so with a warm
//!     memo the reducer decodes no segment.
//!
//! reproduce follow [--small] [--seed N] [--batch N] [--out FILE]
//!                  [--snapshots W] [--reorg-at-batch R] [--reorg-depth D]
//!                  [--reorg-seed S] [--metrics-out FILE]
//!     Incremental re-render loop: replay the chains batch by batch
//!     through the library follower `serve` runs (sweep only the new
//!     batch, fold its delta into standing sweeps) with its reorg guard on
//!     — one content mark per batch, the newest --snapshots W states kept
//!     for rollback — printing a dashboard line each round and the full
//!     report at the head. --reorg-at-batch injects a reorg after batch R,
//!     rewriting the last D block positions of every chain: the follower
//!     finds the divergence by mark, rolls back only the invalidated suffix
//!     (or rebuilds when it predates the snapshot window), re-sweeps to the
//!     new head, and the run fails unless the result is byte-identical to
//!     a from-scratch sweep of the reorged chains. --archive DIR persists
//!     the followed corpus: cold-start from it when it exists (create it
//!     otherwise, once every flag has been validated), seal each observed
//!     batch — coalescing a runt tail segment up to --segment-blocks
//!     positions (default: the batch size, or the corpus's geometry when
//!     cold-starting) instead of fragmenting one segment per batch — and
//!     on reorg truncate + re-seal only the disagreeing segment suffix;
//!     the run fails unless the re-opened archive replays byte-identical
//!     to the followed chains.
//!
//! reproduce chaos --upstream ADDR [--listen ADDR] [--fault-rate F]
//!                 [--truncate-rate F] [--flip-rate F] [--seed N]
//!                 [--max-seconds S]
//!     Fault-injecting TCP proxy between real processes: relays every
//!     connection to --upstream while resetting, truncating or
//!     bit-flipping streams per the configured rates. Prints `chaos proxy
//!     on ADDR -> UPSTREAM` once bound, then runs until killed (or
//!     --max-seconds elapses). Point a fleet reducer at it to rehearse
//!     worker failure.
//!
//! reproduce serve [--small] [--seed N] [--port P] [--batch N] [--epoch-ms MS]
//!                 [--rate R] [--burst B]
//!                 [--load [--conns N] [--reqs N]]
//!     Long-lived query service: the follow loop publishes an immutable
//!     epoch snapshot per batch while concurrent readers answer
//!     `/exhibit/<name>`, `/account/<chain>/<name>`, `/report`, and
//!     `/healthz` — byte-identical to the one-shot report once the head is
//!     reached. Token-bucket admission sheds excess load with 429s.
//!     `--load` runs the built-in load generator against the server after
//!     head and exits; otherwise the server runs until POST
//!     /admin/shutdown.
//!
//! reproduce query --addr HOST:PORT [--wait-head S] [--expect-status N]
//!                 [--out FILE] [--shutdown] PATH...
//!     Minimal client for scripting against `serve`: GET each PATH (body
//!     to stdout or --out), optionally wait for the server to reach head
//!     first, assert a status code, and/or POST /admin/shutdown at the
//!     end.
//! ```
//!
//! Unrecognized flags or subcommands print usage and exit non-zero.
//!
//! Observability: `report`, `shard`, `reduce`, `follow`, and `serve` all
//! take `--trace-out FILE` (write one NDJSON span event per pipeline stage
//! to FILE) and `--timings` (print a per-stage wall-time summary table on
//! stderr at exit). `serve` additionally exposes `GET /metrics`
//! (Prometheus text) and `GET /statusz` (JSON) with the ingest, reduce,
//! epoch, follow, and serve metric families; `follow --metrics-out` dumps
//! the same follower families at exit.

use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txstat_ingest::{reduce_fleet, serve_assignments, EpochCell, FleetConfig};
use txstat_netsim::http::{read_response, write_request, HttpRequest, HttpResponse};
use txstat_netsim::{
    run_load, spawn_chaos_proxy, spawn_query_server, ChaosProfile, HttpHandler, LoadPlan,
    QueryServerConfig,
};
use txstat_reports::{
    generate, generate_with_crawl, generate_with_crawl_streamed, pipeline_from_archive,
    reduce_frames_labeled_into, reducer_from_archive, render_report,
    reorg_data, scenario_from_meta, scenario_meta, write_archive, CrawlOptions, FollowArchive,
    Follower, Manifest, PipelineData, SegmentFormat, ServeSnapshot, ShardContext, StatsService,
};
use txstat_wire::{PayloadFormat, ShardFrame};
use txstat_workload::Scenario;

const USAGE: &str = "\
usage: reproduce <subcommand> [options]

subcommands:
  report   render every exhibit from the generated scenario (default)
           [--small] [--seed N] [--crawl] [--out FILE] [--archive DIR]
  archive  generate (or --crawl) the scenario once and seal it into an
           on-disk segmented corpus other subcommands cold-start from
           (--archive DIR)
           --out DIR [--small] [--seed N] [--segment-blocks N] [--crawl]
  shard    sweep block positions [A, B) into a wire-frame bundle, or serve
           ranges over a socket as one fleet worker
           --range A..B --out FILE [--small] [--seed N] [--shards K]
           --listen ADDR [--max-requests N] [--timeout-ms MS]
           [--archive DIR]  (serve block ranges straight from the mapped
                             segments — no chain generation)
  reduce   merge shard frames and render the full report, from files or by
           driving a socket worker fleet (retry/backoff + re-dispatch)
           FRAME-FILE... [--out FILE]
           --connect ADDR,ADDR,... [--small] [--seed N] [--shards K]
           [--chunks N] [--timeout-ms MS] [--retries N] [--backoff-ms MS]
           [--metrics-out FILE] [--archive DIR]
  follow   incremental re-render loop over the appending chains, with
           reorg-safe rollback via per-batch content marks
           [--small] [--seed N] [--batch N] [--out FILE]
           [--snapshots W] [--reorg-at-batch R] [--reorg-depth D]
           [--reorg-seed S] [--metrics-out FILE]
           [--archive DIR]  (cold-start from the corpus when it exists,
                             create it otherwise; batches are sealed with
                             runt tails coalesced up to --segment-blocks
                             and a reorg truncates + re-seals only the
                             disagreeing segment suffix)
           [--segment-blocks N]
  chaos    fault-injecting TCP proxy for rehearsing worker failure
           --upstream ADDR [--listen ADDR] [--fault-rate F]
           [--truncate-rate F] [--flip-rate F] [--seed N]
           [--max-seconds S]
  serve    epoch-swapped query service over the follow loop
           [--small] [--seed N] [--port P] [--batch N] [--epoch-ms MS]
           [--rate R] [--burst B]
           [--load [--conns N] [--reqs N]] [--archive DIR]
  query    scripting client for serve: GET PATH... against --addr HOST:PORT
           [--wait-head S] [--expect-status N] [--out FILE] [--shutdown]

report/shard/reduce/follow/serve also take:
  --trace-out FILE   write NDJSON span events per pipeline stage to FILE
  --timings          print a per-stage wall-time summary table on stderr";

/// Strictly parsed arguments: any flag outside the subcommand's allow-list
/// is an error (nothing is ignored silently).
struct Args {
    bools: Vec<String>,
    values: HashMap<String, String>,
    positionals: Vec<String>,
}

impl Args {
    fn parse(
        raw: &[String],
        bool_flags: &[&str],
        value_flags: &[&str],
        positionals_allowed: bool,
    ) -> Result<Args, String> {
        let mut out =
            Args { bools: Vec::new(), values: HashMap::new(), positionals: Vec::new() };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if bool_flags.contains(&arg.as_str()) {
                out.bools.push(arg.clone());
            } else if value_flags.contains(&arg.as_str()) {
                let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.values.insert(arg.clone(), v.clone());
            } else if arg.starts_with('-') {
                return Err(format!("unrecognized flag {arg}"));
            } else if positionals_allowed {
                out.positionals.push(arg.clone());
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(out)
    }

    fn has(&self, flag: &str) -> bool {
        self.bools.iter().any(|b| b == flag)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.parsed_opt(flag)?.unwrap_or(default))
    }

    /// `None` when the flag is absent.
    fn parsed_opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|s| s.parse().map_err(|_| format!("{flag}: cannot parse {s:?}")))
            .transpose()
    }
}

fn scenario_of(args: &Args) -> Result<(Scenario, &'static str), String> {
    let seed: u64 = args.parsed("--seed", 42)?;
    Ok(if args.has("--small") {
        (Scenario::small(seed), "small")
    } else {
        (Scenario::paper(seed), "paper")
    })
}

/// An archived corpus defines its own scenario; explicit `--small`/`--seed`
/// flags alongside `--archive` must agree with the manifest (nothing is
/// silently re-generated against different parameters).
fn check_archive_scenario(args: &Args, meta: &serde_json::Value) -> Result<(), String> {
    if args.has("--small") || args.get("--seed").is_some() {
        let (sc, mode) = scenario_of(args)?;
        if scenario_meta(&sc, mode) != *meta {
            return Err(format!(
                "--archive: the corpus does not hold the requested {mode} scenario \
                 (seed {}); drop the scenario flags or point at a matching archive",
                sc.seed
            ));
        }
    }
    Ok(())
}

/// Cold-start a dataset from `--archive DIR` through `cold_start`
/// ([`pipeline_from_archive`], or [`reducer_from_archive`] where no block
/// will be swept): open + verify the corpus, cross-check any explicit
/// scenario flags against its manifest, and return the dataset with the
/// archived scenario adopted.
fn archive_dataset(
    args: &Args,
    dir: &str,
    cold_start: fn(&std::path::Path) -> Result<(PipelineData, txstat_archive::Archive), String>,
) -> Result<(PipelineData, txstat_archive::Archive, String), String> {
    txstat_reports::pipeline::register_metrics();
    txstat_archive::register_metrics();
    let (data, archive) = cold_start(std::path::Path::new(dir))?;
    let manifest = Manifest::parse(archive.manifest())?;
    check_archive_scenario(args, &manifest.meta)?;
    let (_, mode) = scenario_from_meta(&manifest.meta)?;
    Ok((data, archive, mode))
}

/// Arm the global tracer per `--trace-out FILE` (NDJSON span events) and
/// `--timings` (end-of-run stage summary). Either flag enables tracing;
/// with neither, spans stay inert (one relaxed load each).
fn init_tracing(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("--trace-out") {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("--trace-out: cannot create {path}: {e}"))?;
        txstat_telemetry::tracer().set_sink(Box::new(std::io::BufWriter::new(file)));
    }
    if args.has("--timings") {
        txstat_telemetry::tracer().enable();
    }
    Ok(())
}

/// Flush the trace sink and print the per-stage wall-time table when
/// `--timings` was given.
fn finish_tracing(args: &Args) {
    let tracer = txstat_telemetry::tracer();
    if args.has("--timings") {
        eprint!("{}", tracer.render_summary());
    }
    tracer.flush();
}


/// Dump the process-global metric registry (Prometheus text) to the
/// `--metrics-out` file, if given — the offline commands' equivalent of
/// serve's `GET /metrics`.
fn dump_metrics(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("--metrics-out") {
        std::fs::write(path, txstat_telemetry::registry().render_prometheus())
            .map_err(|e| format!("--metrics-out: cannot write {path}: {e}"))?;
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

/// `archive.memo` is written best-effort; say so when the write failed
/// (the report is unaffected, the next process just recomputes).
fn warn_memo(data: &PipelineData) {
    if let Some(why) = data.memo_status().and_then(|s| s.write_error) {
        eprintln!("warning: archive memo not written ({why}); the next run recomputes it");
    }
}

fn write_output(text: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some("-") | None => {
            print!("{text}");
            Ok(())
        }
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("exhibits written to {path}");
            Ok(())
        }
    }
}

fn cmd_report(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--small", "--crawl", "--timings"],
        &["--seed", "--out", "--trace-out", "--archive", "--metrics-out"],
        false,
    )?;
    let (sc, _) = scenario_of(&args)?;
    init_tracing(&args)?;

    if let Some(dir) = args.get("--archive") {
        if args.has("--crawl") {
            return Err("report takes --archive or --crawl, not both".to_owned());
        }
        let started = std::time::Instant::now();
        let (data, archive, mode) = archive_dataset(&args, dir, pipeline_from_archive)?;
        eprintln!(
            "cold-started {mode} scenario (seed {}) from archive {dir}: {} segment(s), \
             {} block positions",
            data.scenario.seed,
            archive.segments().len(),
            archive.total_positions(),
        );
        eprintln!("pipeline ready in {:?}; rendering exhibits…", started.elapsed());
        let result = write_output(&render_report(&data), args.get("--out"));
        warn_memo(&data);
        dump_metrics(&args)?;
        finish_tracing(&args);
        return result;
    }

    eprintln!(
        "scenario: {} .. {} (divisors: EOS 1/{}, Tezos 1/{}, XRP 1/{})",
        sc.period.start.date_string(),
        sc.period.end.date_string(),
        sc.eos_divisor,
        sc.tezos_divisor,
        sc.xrp_divisor
    );

    let started = std::time::Instant::now();
    let data = if args.has("--crawl") {
        let opts = if args.has("--small") { CrawlOptions::default() } else { CrawlOptions::paper() };
        let rt = tokio::runtime::Runtime::new().expect("tokio runtime");
        eprintln!(
            "generating chains and streaming the crawl into {} sweep shards per chain…",
            opts.shards
        );
        rt.block_on(generate_with_crawl_streamed(&sc, &opts)).map_err(|e| e.to_string())?
    } else {
        eprintln!("generating chains (direct read; pass --crawl for the full RPC path)…");
        generate(&sc)
    };
    if let Some(s) = &data.stream {
        eprintln!(
            "streamed: EOS {} blocks (peak buffer {}/{} per shard, {} stalls), \
             Tezos {} ({}, {} stalls), XRP {} ({}, {} stalls)",
            s.eos.streamed_blocks,
            s.eos.peak_buffered,
            s.eos.channel_capacity,
            s.eos.blocked_sends,
            s.tezos.streamed_blocks,
            s.tezos.peak_buffered,
            s.tezos.blocked_sends,
            s.xrp.streamed_blocks,
            s.xrp.peak_buffered,
            s.xrp.blocked_sends,
        );
    }
    eprintln!("pipeline ready in {:?}; rendering exhibits…", started.elapsed());
    let result = write_output(&render_report(&data), args.get("--out"));
    dump_metrics(&args)?;
    finish_tracing(&args);
    result
}

/// The `archive` subcommand: generate the scenario once and seal it into
/// the on-disk segmented corpus that `report`/`shard`/`reduce`/`follow`/
/// `serve --archive DIR` cold-start from.
fn cmd_archive(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--small", "--crawl", "--timings"],
        &[
            "--seed",
            "--out",
            "--segment-blocks",
            "--trace-out",
            "--metrics-out",
        ],
        false,
    )?;
    init_tracing(&args)?;
    let out = args.get("--out").ok_or("archive needs --out DIR")?;
    txstat_reports::pipeline::register_metrics();
    txstat_archive::register_metrics();
    let started = std::time::Instant::now();
    let (sc, mode) = scenario_of(&args)?;
    let segment_blocks: u64 = args.parsed("--segment-blocks", 256)?;
    if segment_blocks == 0 {
        return Err("--segment-blocks must be at least 1".to_owned());
    }
    let data = if args.has("--crawl") {
        let opts = if args.has("--small") { CrawlOptions::default() } else { CrawlOptions::paper() };
        eprintln!(
            "generating {mode} scenario (seed {}); crawling over loopback RPC; sealing archive…",
            sc.seed
        );
        // Materializing crawl: the corpus needs the block bytes, which the
        // streamed path deliberately never holds.
        let rt = tokio::runtime::Runtime::new().expect("tokio runtime");
        rt.block_on(generate_with_crawl(&sc, &opts)).map_err(|e| e.to_string())?
    } else {
        eprintln!("generating {mode} scenario (seed {}); sealing archive…", sc.seed);
        generate(&sc)
    };
    let stats = write_archive(
        std::path::Path::new(out),
        &data,
        mode,
        segment_blocks,
        SegmentFormat,
    )?;
    eprintln!(
        "archive sealed in {:?}: {} segment(s) over {} block positions, \
         {} raw bytes -> {} compressed ({:.1}%) in {out}",
        started.elapsed(),
        stats.segments,
        stats.total_positions,
        stats.raw_bytes,
        stats.compressed_bytes,
        100.0 * stats.compressed_bytes as f64 / (stats.raw_bytes as f64).max(1.0),
    );
    dump_metrics(&args)?;
    finish_tracing(&args);
    Ok(())
}

fn parse_range(s: &str) -> Result<(u64, u64), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("--range wants A..B (block positions), got {s:?}"))?;
    let start: u64 = a.parse().map_err(|_| format!("--range: bad start {a:?}"))?;
    let end: u64 = b.parse().map_err(|_| format!("--range: bad end {b:?}"))?;
    if start > end {
        return Err(format!("--range: inverted range {s:?}"));
    }
    Ok((start, end))
}

/// The shard worker's prepared state plus the assignment meta it accepts:
/// generated from the scenario flags, or cold-started from `--archive DIR`
/// (no chain generation — assignments replay only their covering
/// segments). Both paths register the generation and archive metric
/// families, so `--metrics-out` always carries
/// `txstat_pipeline_generate_total` and `txstat_archive_*` (zero when
/// idle) and tests can pin which path ran.
fn shard_context_of(args: &Args) -> Result<(ShardContext, serde_json::Value), String> {
    txstat_reports::pipeline::register_metrics();
    txstat_archive::register_metrics();
    match args.get("--archive") {
        Some(dir) => {
            let (ctx, manifest) = ShardContext::from_archive(std::path::Path::new(dir))?;
            check_archive_scenario(args, &manifest.meta)?;
            eprintln!(
                "cold-started from archive {dir}: {} block positions mapped, \
                 no chains generated",
                ctx.total_blocks()
            );
            Ok((ctx, manifest.meta))
        }
        None => {
            let (sc, mode) = scenario_of(args)?;
            eprintln!("generating {mode} scenario (seed {})…", sc.seed);
            Ok((ShardContext::new(&sc), scenario_meta(&sc, mode)))
        }
    }
}

/// Socket worker mode of `shard`: bind, announce the address, and answer
/// fleet range assignments against one prepared context until the
/// request budget (if any) is spent.
fn shard_listen(args: &Args, listen: &str) -> Result<(), String> {
    let max_requests: Option<u64> = args.parsed_opt("--max-requests")?;
    let timeout_ms: u64 = args.parsed("--timeout-ms", 10_000)?;
    txstat_ingest::fleet::register_metrics();
    let (ctx, expected) = shard_context_of(args)?;
    eprintln!("serving shard assignments…");
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Scripts scrape this line for the bound address.
    println!("shard worker on {addr}");
    std::io::stdout().flush().ok();
    let served =
        serve_assignments(&listener, max_requests, Duration::from_millis(timeout_ms), |a| {
            if a.meta != expected {
                return Err(
                    "assignment meta does not describe this worker's scenario".to_owned()
                );
            }
            eprintln!("assignment [{}, {}): {} shard(s)", a.start, a.end, a.shards);
            ctx.frames(a.meta.clone(), a.start, a.end, a.shards, a.payload)
        })
        .map_err(|e| format!("worker accept loop: {e}"))?;
    eprintln!("worker served {served} assignment(s); exiting");
    if let Some(s) = ctx.cache_stats() {
        eprintln!(
            "segment cache: {} hit(s), {} miss(es), {} eviction(s), {} byte(s) resident",
            s.hits, s.misses, s.evictions, s.bytes
        );
    }
    dump_metrics(args)?;
    Ok(())
}

fn cmd_shard(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--small", "--timings"],
        &[
            "--seed",
            "--out",
            "--range",
            "--shards",
            "--trace-out",
            "--listen",
            "--max-requests",
            "--timeout-ms",
            "--metrics-out",
            "--archive",
        ],
        false,
    )?;
    init_tracing(&args)?;
    if let Some(listen) = args.get("--listen") {
        let result = shard_listen(&args, listen);
        finish_tracing(&args);
        return result;
    }
    let (start, end) =
        parse_range(args.get("--range").ok_or("shard needs --range A..B (or --listen ADDR)")?)?;
    let out = args.get("--out").ok_or("shard needs --out FILE (\"-\" for stdout)")?;
    let shards: usize = args.parsed("--shards", 2)?;

    let started = std::time::Instant::now();
    let (ctx, meta) = shard_context_of(&args)?;
    let frames = ctx.frames(meta, start, end, shards, PayloadFormat::Bin)?;
    for f in &frames {
        eprintln!(
            "{}: swept positions [{}, {}) — {} blocks (schema v{}, {} payload)",
            f.header.chain,
            f.header.start,
            f.header.end,
            f.header.blocks,
            f.header.schema_version,
            f.header.payload_format.tag(),
        );
    }
    let bytes = txstat_wire::encode_all(&frames);
    match out {
        "-" => std::io::stdout()
            .write_all(&bytes)
            .map_err(|e| format!("cannot write frames to stdout: {e}"))?,
        path => std::fs::write(path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?,
    }
    eprintln!(
        "{} frames ({} bytes) emitted in {:?} to {}",
        frames.len(),
        bytes.len(),
        started.elapsed(),
        out
    );
    dump_metrics(&args)?;
    finish_tracing(&args);
    Ok(())
}

/// Fleet mode of `reduce`: tile the sweep into chunks and drive the
/// `--connect` workers through the retry/backoff/re-dispatch loop, then
/// merge whatever frames the survivors produced.
fn reduce_fleet_mode(args: &Args, connect: &str) -> Result<PipelineData, String> {
    let workers: Vec<String> = connect
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    let shards: usize = args.parsed("--shards", 2)?;
    txstat_ingest::fleet::register_metrics();
    // The reducer's own dataset: cold-started from the corpus with
    // `--archive` (the scenario comes from the manifest) — block-free,
    // since the sweeps arrive from the fleet and everything else the
    // report needs of the blocks is memoized per segment — or generated
    // from the scenario flags otherwise.
    let (data, mode) = match args.get("--archive") {
        Some(dir) => {
            let (data, archive, mode) = archive_dataset(args, dir, reducer_from_archive)?;
            eprintln!(
                "cold-started reducer dataset from archive {dir} ({} segment(s))",
                archive.segments().len()
            );
            warn_memo(&data);
            (data, mode)
        }
        None => {
            let (sc, mode) = scenario_of(args)?;
            eprintln!("generating {mode} scenario (seed {})…", sc.seed);
            (generate(&sc), mode.to_owned())
        }
    };
    let sc = data.scenario.clone();
    let mut cfg = FleetConfig::new(workers);
    cfg.chunks = args.parsed("--chunks", 0)?;
    cfg.timeout = Duration::from_millis(args.parsed("--timeout-ms", 10_000)?);
    cfg.retries = args.parsed("--retries", 4)?;
    cfg.backoff_ms = args.parsed("--backoff-ms", 50)?;
    cfg.seed = sc.seed;
    eprintln!("driving {} worker(s)…", cfg.workers.len());
    let total = data.longest_chain() as u64;
    let labeled = reduce_fleet(&cfg, total, shards, PayloadFormat::Bin, scenario_meta(&sc, &mode))
        .map_err(|e| e.to_string())?;
    eprintln!("fleet returned {} frames; merging…", labeled.len());
    reduce_frames_labeled_into(data, &labeled)
}

fn cmd_reduce(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--small", "--timings"],
        &[
            "--out",
            "--trace-out",
            "--connect",
            "--seed",
            "--shards",
            "--chunks",
            "--timeout-ms",
            "--retries",
            "--backoff-ms",
            "--metrics-out",
            "--archive",
        ],
        true,
    )?;
    init_tracing(&args)?;
    let started = std::time::Instant::now();
    let data = if let Some(connect) = args.get("--connect") {
        if !args.positionals.is_empty() {
            return Err("reduce takes frame files or --connect, not both".to_owned());
        }
        reduce_fleet_mode(&args, connect)?
    } else {
        if args.get("--archive").is_some() {
            return Err("reduce --archive needs --connect (the cold-start is fleet mode; \
                        file mode takes its scenario from the frames)"
                .to_owned());
        }
        if args.positionals.is_empty() {
            return Err(
                "reduce needs at least one frame file (or --connect ADDR,...)".to_owned()
            );
        }
        let mut labeled: Vec<(String, ShardFrame)> = Vec::new();
        for path in &args.positionals {
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let decoded =
                txstat_wire::decode_all(&bytes).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("{path}: {} frames", decoded.len());
            labeled.extend(decoded.into_iter().map(|f| (path.clone(), f)));
        }
        let meta =
            labeled.first().map(|(_, f)| f.header.meta.clone()).ok_or("no frames found")?;
        let (sc, mode) = scenario_from_meta(&meta)?;
        eprintln!(
            "reducing {} frames of the {mode} scenario (seed {})…",
            labeled.len(),
            sc.seed
        );
        reduce_frames_labeled_into(generate(&sc), &labeled)?
    };
    eprintln!("reduction ready in {:?}; rendering exhibits…", started.elapsed());
    let result = write_output(&render_report(&data), args.get("--out"));
    dump_metrics(&args)?;
    finish_tracing(&args);
    result
}

fn cmd_follow(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--small", "--timings"],
        &[
            "--seed",
            "--out",
            "--batch",
            "--trace-out",
            "--snapshots",
            "--reorg-at-batch",
            "--reorg-depth",
            "--reorg-seed",
            "--metrics-out",
            "--archive",
            "--segment-blocks",
        ],
        false,
    )?;
    let (sc, mode) = scenario_of(&args)?;
    let batch: usize = args.parsed("--batch", 500)?;
    if batch == 0 {
        return Err("--batch must be positive".to_owned());
    }
    let window: usize = args.parsed("--snapshots", txstat_reports::follow::DEFAULT_SNAPSHOT_WINDOW)?;
    let reorg_at: Option<usize> = args.parsed_opt("--reorg-at-batch")?;
    let reorg_depth: usize = args.parsed("--reorg-depth", batch)?;
    let reorg_seed: u64 = args.parsed("--reorg-seed", 1)?;
    let seg_blocks_flag: Option<u64> = args.parsed_opt("--segment-blocks")?;
    if seg_blocks_flag == Some(0) {
        return Err("--segment-blocks must be at least 1".to_owned());
    }
    init_tracing(&args)?;
    txstat_reports::pipeline::register_metrics();
    txstat_archive::register_metrics();

    // With --archive: cold-start from the corpus when one exists there,
    // otherwise generate and (below, once every flag has been checked
    // against the chains) create it.
    let archive_dir = args.get("--archive");
    let has_corpus = |dir: &&str| std::path::Path::new(dir).join(txstat_archive::IDX_FILE).exists();
    let (data, corpus) = match archive_dir.filter(has_corpus) {
        Some(dir) => {
            let (data, archive, mode) = archive_dataset(&args, dir, pipeline_from_archive)?;
            eprintln!(
                "cold-started {mode} scenario from archive {dir}; following head in \
                 batches of {batch} blocks per chain…"
            );
            (data, Some(archive))
        }
        None => {
            let creating =
                archive_dir.map(|dir| format!("creating archive {dir} and ")).unwrap_or_default();
            eprintln!(
                "generating chains; {creating}following head in batches of {batch} blocks per chain…"
            );
            (generate(&sc), None)
        }
    };
    let batches = data.longest_chain().div_ceil(batch);
    if let Some(r) = reorg_at.filter(|r| *r > batches) {
        return Err(format!("--reorg-at-batch {r}: the head is reached after {batches} batches"));
    }
    // Each observed batch is sealed into the corpus, coalescing a runt
    // tail up to --segment-blocks positions (default: the batch size, or
    // the corpus's own segment geometry when cold-starting).
    let mut persist = match (corpus, archive_dir) {
        (Some(archive), _) => {
            let geometry = Manifest::parse(archive.manifest())?.segment_blocks;
            Some(FollowArchive::resume(archive, seg_blocks_flag.unwrap_or(geometry))?)
        }
        (None, Some(dir)) => {
            let seg_blocks = seg_blocks_flag.unwrap_or(batch as u64);
            Some(FollowArchive::create(std::path::Path::new(dir), &data, mode, seg_blocks)?)
        }
        (None, None) => None,
    };

    // The follower `serve` runs, with the reorg guard on: this is the one
    // command that can meet a reorg.
    let mut follower = Follower::new(data, batch).with_reorg_guard(window);
    follower.bind_metrics(txstat_telemetry::registry());
    let mut round = 0usize;
    let mut fork = loop {
        // One round: the follower's advance plus this batch's archive seal.
        let _span = txstat_telemetry::Span::enter("follow_batch", "");
        let fork = follower.advance().map_err(|e| e.to_string())?;
        round += 1;
        if let Some(p) = persist.as_mut() {
            p.seal_to(follower.base(), follower.offset())?;
        }
        let (sweeps, (eos, tezos, xrp)) = (fork.sweeps(), follower.observed());
        eprintln!(
            "batch {round:>4}: EOS {eos:>7} blocks ({:.2} tps) | Tezos {tezos:>7} ({:.2} tps) | XRP {xrp:>7} ({:.2} tps)",
            sweeps.eos.tps(),
            sweeps.tezos.tps(),
            sweeps.xrp.tps(),
        );
        if follower.head() || reorg_at == Some(round) {
            break fork;
        }
    };

    // Head (or the reorg trigger batch) reached: reorg + resync if asked,
    // then follow the new chains to their head.
    let mut verify_against = None;
    if reorg_at.is_some() {
        let from = follower.offset().saturating_sub(reorg_depth);
        eprintln!("injecting reorg: rewriting block positions {from}.. (seed {reorg_seed})");
        let reorged = reorg_data(follower.base(), from, reorg_seed);
        // From-scratch truth over the same reorged chains for the
        // byte-identity check (fresh dataset, lazily re-swept sweeps).
        verify_against = Some(reorg_data(follower.base(), from, reorg_seed));
        if let Some(p) = persist.as_mut() {
            let (dropped, kept) = p.reseal_from(&reorged, from)?;
            eprintln!(
                "archive: reorg invalidated {dropped} segment(s); re-sealed from position {kept}"
            );
        }
        let r = follower.resync(reorged);
        let [eos, tezos, xrp] = r.agreed_by_chain;
        eprintln!(
            "resync: {} mark(s) agreed (eos {eos}, tezos {tezos}, xrp {xrp}), {} invalidated{}; \
             resuming at position {}",
            r.agreed,
            r.invalidated,
            if r.rebuilt { " (rebuilt from scratch)" } else { "" },
            r.resume,
        );
        // At least once: a resync that changed nothing still republishes
        // over the adopted chains.
        loop {
            fork = follower.advance().map_err(|e| e.to_string())?;
            if follower.head() {
                break;
            }
        }
    }

    // The last epoch covers the whole (possibly reorged) chains: its
    // report is identical to `report`'s.
    let report = render_report(&fork);
    warn_memo(&fork);
    if let Some(scratch) = verify_against {
        if report != render_report(&scratch) {
            return Err("reorg recovery diverged: the followed report is not byte-identical \
                        to a from-scratch sweep of the reorged chain"
                .to_owned());
        }
        eprintln!("reorg recovery verified: report byte-identical to a from-scratch sweep");
    }
    if let Some(p) = persist {
        let segments = p.finish(&fork)?;
        eprintln!(
            "archive verified: {segments} segment(s) replay byte-identical to the followed chains"
        );
    }
    let result = write_output(&report, args.get("--out"));
    dump_metrics(&args)?;
    finish_tracing(&args);
    result
}

/// The `chaos` subcommand: a standalone fault-injecting TCP proxy (see
/// `txstat_netsim::chaos`) for placing between a fleet reducer and its
/// workers.
fn cmd_chaos(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &[],
        &[
            "--listen",
            "--upstream",
            "--fault-rate",
            "--truncate-rate",
            "--flip-rate",
            "--seed",
            "--max-seconds",
        ],
        false,
    )?;
    let upstream = args.get("--upstream").ok_or("chaos needs --upstream HOST:PORT")?.to_owned();
    let listen = args.get("--listen").unwrap_or("127.0.0.1:0").to_owned();
    let profile = ChaosProfile {
        name: "cli".to_owned(),
        latency_ms: 0.0,
        jitter_ms: 0.0,
        fault_rate: args.parsed("--fault-rate", 0.0)?,
        truncate_rate: args.parsed("--truncate-rate", 0.0)?,
        flip_rate: args.parsed("--flip-rate", 0.0)?,
        seed: args.parsed("--seed", 42)?,
    };
    let handle = spawn_chaos_proxy(&listen, upstream.clone(), profile)
        .map_err(|e| format!("cannot start chaos proxy on {listen}: {e}"))?;
    // Scripts scrape this line for the bound address.
    println!("chaos proxy on {} -> {upstream}", handle.addr);
    std::io::stdout().flush().ok();
    let max_seconds: u64 = args.parsed("--max-seconds", 0)?;
    if max_seconds == 0 {
        // Run until killed (CI kills the whole process).
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(max_seconds));
    let s = &handle.stats;
    eprintln!(
        "chaos proxy: {} connection(s) relayed, {} reset, {} truncated, {} bit-flipped",
        s.connections.get(),
        s.resets.get(),
        s.truncations.get(),
        s.flips.get(),
    );
    handle.stop();
    Ok(())
}

/// Derive one known-present `/account/...` path per chain from the served
/// sweeps (the busiest account of each), for load mixes and smoke tests.
fn sample_account_paths(data: &PipelineData) -> Vec<String> {
    let sweeps = data.sweeps();
    let mut out = Vec::new();
    if let Some(r) = sweeps.eos.top_received(1).into_iter().next() {
        out.push(format!("/account/eos/{}", r.account.to_string_repr()));
    }
    if let Some(s) = sweeps.tezos.top_senders(1).into_iter().next() {
        out.push(format!("/account/tezos/{}", s.sender));
    }
    if let Some(a) = sweeps.xrp.most_active(1, &data.cluster).into_iter().next() {
        out.push(format!("/account/xrp/{}", a.account));
    }
    out
}

fn cmd_serve(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--small", "--load", "--timings"],
        &[
            "--seed",
            "--port",
            "--batch",
            "--epoch-ms",
            "--rate",
            "--burst",
            "--conns",
            "--reqs",
            "--trace-out",
            "--archive",
        ],
        false,
    )?;
    let (sc, mode) = scenario_of(&args)?;
    init_tracing(&args)?;
    let port: u16 = args.parsed("--port", 0)?;
    let batch: usize = args.parsed("--batch", 20_000)?;
    if batch == 0 {
        return Err("--batch must be positive".to_owned());
    }
    let epoch_ms: u64 = args.parsed("--epoch-ms", 0)?;
    let rate: f64 = args.parsed("--rate", 50_000.0)?;
    let burst: f64 = args.parsed("--burst", 5_000.0)?;

    // The serve path exports through the process-global registry so
    // `/metrics` carries every layer's families (ingest counters from the
    // shard pools, reduce/epoch progress from the follow loop, serve route
    // stats) in one exposition.
    let registry = txstat_telemetry::registry().clone();
    // Fleet, generation, and archive families render at zero even when
    // this process never runs them — dashboards can rely on their
    // presence (the follower registers its own, rollback families included).
    txstat_ingest::fleet::register_metrics();
    txstat_reports::pipeline::register_metrics();
    txstat_archive::register_metrics();
    let data = match args.get("--archive") {
        Some(dir) => {
            let (data, _archive, archived_mode) =
                archive_dataset(&args, dir, pipeline_from_archive)?;
            eprintln!(
                "cold-started {archived_mode} scenario (seed {}) from archive {dir}; \
                 serving in epochs of {batch} blocks…",
                data.scenario.seed
            );
            data
        }
        None => {
            eprintln!(
                "generating {mode} scenario (seed {}); serving in epochs of {batch} blocks…",
                sc.seed
            );
            generate(&sc)
        }
    };
    // No reorg guard: nothing can hand this process a reorged chain, so it
    // hashes no block and retains no snapshot.
    let mut follower = Follower::new(data, batch);
    follower.bind_metrics(&registry);
    // First epoch before accepting queries, so every response has sweeps.
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
                bind: format!("127.0.0.1:{port}"),
                rate_per_sec: rate,
                burst,
                ..QueryServerConfig::default()
            },
        )
        .await
        .map_err(|e| e.to_string())?;
        // Route-class counters (requests/served/shed/bytes/latency) join
        // the same registry the service exposes on /metrics.
        server.routes.register_into(&registry);
        // Scripts scrape this line for the bound address.
        println!("serving on http://{}", server.addr);
        std::io::stdout().flush().ok();

        while !follower.head() {
            if epoch_ms > 0 {
                std::thread::sleep(Duration::from_millis(epoch_ms));
            }
            let fork = follower.advance().map_err(|e| e.to_string())?;
            epoch += 1;
            let head = follower.head();
            cell.publish(Arc::new(ServeSnapshot::new(epoch, head, fork)));
            let (e, t, x) = follower.observed();
            eprintln!(
                "epoch {epoch}: EOS {e} | Tezos {t} | XRP {x} blocks observed{}",
                if head { " — head reached" } else { "" }
            );
        }

        if args.has("--load") {
            let conns: usize = args.parsed("--conns", 64)?;
            let reqs: usize = args.parsed("--reqs", 200)?;
            let snap = service.snapshot();
            let mut paths: Vec<String> = ["headline", "fig1", "fig4", "fig7", "fig8", "comparison"]
                .iter()
                .map(|n| format!("/exhibit/{n}"))
                .collect();
            paths.push("/report".to_owned());
            paths.extend(sample_account_paths(snap.data()));
            let plan = LoadPlan { connections: conns, requests_per_conn: reqs, paths };
            eprintln!(
                "load: {conns} connections × {reqs} requests over {} paths…",
                plan.paths.len()
            );
            let report = run_load(server.addr, &plan).await;
            println!(
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
            );
            finish_tracing(&args);
            return Ok(());
        }

        eprintln!("head reached; serving until POST /admin/shutdown…");
        while !service.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(25));
        }
        eprintln!("shutdown requested; exiting");
        finish_tracing(&args);
        Ok(())
    })
}

async fn http_fetch(
    addr: std::net::SocketAddr,
    req: &HttpRequest,
) -> Result<HttpResponse, String> {
    let sock = tokio::net::TcpStream::connect(addr).await.map_err(|e| e.to_string())?;
    let mut stream = tokio::io::BufStream::new(sock);
    write_request(&mut stream, req).await.map_err(|e| e.to_string())?;
    read_response(&mut stream).await.map_err(|e| e.to_string())
}

fn write_bytes(bytes: &[u8], out: Option<&str>) -> Result<(), String> {
    match out {
        None | Some("-") => std::io::stdout().write_all(bytes).map_err(|e| e.to_string()),
        Some(path) => std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}")),
    }
}

fn cmd_query(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["--shutdown"],
        &["--addr", "--wait-head", "--expect-status", "--out"],
        true,
    )?;
    let addr: std::net::SocketAddr = args
        .get("--addr")
        .ok_or("--addr HOST:PORT is required")?
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .parse()
        .map_err(|_| "--addr: cannot parse HOST:PORT".to_owned())?;
    if args.positionals.is_empty() && !args.has("--shutdown") && args.get("--wait-head").is_none()
    {
        return Err("query needs at least one PATH (or --wait-head / --shutdown)".to_owned());
    }
    let expect: Option<u16> = args.parsed_opt("--expect-status")?;
    let rt = tokio::runtime::Runtime::new().map_err(|e| e.to_string())?;
    rt.block_on(async {
        // The server prints its address before the follow loop starts, but
        // give slow starts a grace period anyway.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match http_fetch(addr, &HttpRequest::get("/healthz")).await {
                Ok(_) => break,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(format!("cannot reach {addr}: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        if let Some(secs) = args.get("--wait-head") {
            let secs: u64 =
                secs.parse().map_err(|_| format!("--wait-head: cannot parse {secs:?}"))?;
            let deadline = Instant::now() + Duration::from_secs(secs);
            loop {
                let resp =
                    http_fetch(addr, &HttpRequest::get("/healthz")).await.map_err(|e| e.to_string())?;
                if String::from_utf8_lossy(&resp.body).contains("\"head\":true") {
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(format!("server did not reach head within {secs}s"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        let mut out: Vec<u8> = Vec::new();
        for path in &args.positionals {
            let resp =
                http_fetch(addr, &HttpRequest::get(path)).await.map_err(|e| e.to_string())?;
            if let Some(code) = expect {
                if resp.status != code {
                    return Err(format!(
                        "{path}: expected status {code}, got {} {}",
                        resp.status, resp.reason
                    ));
                }
            }
            out.extend_from_slice(&resp.body);
        }
        if args.has("--shutdown") {
            let resp = http_fetch(addr, &HttpRequest::post("/admin/shutdown", Vec::new()))
                .await
                .map_err(|e| e.to_string())?;
            if !resp.is_ok() {
                return Err(format!("shutdown failed: {} {}", resp.status, resp.reason));
            }
        }
        write_bytes(&out, args.get("--out"))
    })
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        None => cmd_report(&[]),
        Some("report") => cmd_report(&argv[1..]),
        Some("archive") => cmd_archive(&argv[1..]),
        Some("shard") => cmd_shard(&argv[1..]),
        Some("reduce") => cmd_reduce(&argv[1..]),
        Some("follow") => cmd_follow(&argv[1..]),
        Some("chaos") => cmd_chaos(&argv[1..]),
        Some("serve") => cmd_serve(&argv[1..]),
        Some("query") => cmd_query(&argv[1..]),
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
