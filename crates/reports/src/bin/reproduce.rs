//! The end-to-end reproduction binary. `COMMANDS` is the whole command
//! line: one row per subcommand with its flags spelled once, which is both
//! what `Args::parse` accepts and the usage synopsis every error prints
//! (an unrecognized flag or subcommand exits 2 with it). Bare `reproduce`
//! means `report`. What the table cannot say:
//!
//! - **One envelope.** `run` parses, arms tracing (`--trace-out FILE`:
//!   one NDJSON span event per pipeline stage; `--timings`: a per-stage
//!   wall-time table on stderr at exit), registers the pipeline, archive and
//!   fleet metric families at zero, runs the subcommand, then dumps the
//!   registry to `--metrics-out FILE` (Prometheus text) and flushes the
//!   trace — on failure too, so a failed run keeps its telemetry.
//! - **One opener.** `open_dataset` decides where the dataset comes from:
//!   `--archive DIR` cold-starts from a sealed corpus (no chain is built,
//!   `txstat_pipeline_generate_total` stays 0; explicit `--small`/`--seed`
//!   must agree with its manifest), else the scenario is generated, over the
//!   loopback RPC crawl with `--crawl`. Every source renders the same bytes.
//! - **`archive.memo`.** What a report needs of the block bytes beyond the
//!   sweeps (Figure 2's storage accounting, block bounds, CPU-price peaks)
//!   is memoized per segment in `DIR/archive.memo` by the first process
//!   that needs it; a missing, stale or damaged memo is recomputed and
//!   healed. `reduce --connect --archive` is block-free: sweeps from the
//!   fleet, the rest from the memo — warm, it decodes no segment.
//! - **`shard --archive`** decodes only the segments covering each
//!   assignment, through a 64 MiB LRU keyed by segment content hash
//!   (`txstat_archive_cache_*`). `--max-requests N` is the deterministic way
//!   to die mid-reduction in tests.
//! - **`reduce --connect`** drives the workers with per-request deadlines,
//!   exponential backoff, bounded retry budgets and straggler re-dispatch;
//!   failures name the worker address (file mode: the frame file).
//! - **`follow`** runs the library follower `serve` runs, with its reorg
//!   guard on (one content mark per batch, the newest `--snapshots` states
//!   kept for rollback). `--reorg-at-batch R` rewrites the last
//!   `--reorg-depth` positions of every chain after batch R; the run fails
//!   unless the recovered report is byte-identical to a from-scratch sweep.
//!   `--archive DIR` persists the followed corpus: cold-start from it when it
//!   exists, create it otherwise (once every flag has been validated), seal
//!   each batch — coalescing a runt tail up to `--segment-blocks` (default:
//!   the batch size, or the corpus's geometry) — and on reorg truncate +
//!   re-seal only the disagreeing segment suffix; the run fails unless the
//!   re-opened archive replays byte-identical to the followed chains.
//! - **`serve`** answers `/report`, `/exhibit/<name>`,
//!   `/account/<chain>/<name>`, `/healthz`, `/metrics` (Prometheus text) and
//!   `/statusz` (JSON) from immutable epoch snapshots — byte-identical to
//!   the one-shot report once the head is reached — sheds excess load with
//!   429s, and runs until `POST /admin/shutdown` (`--load`: until its
//!   built-in 64 × 200-request load run has printed its quantiles).
//! - `shard worker on ADDR`, `chaos proxy on ADDR -> UPSTREAM` and
//!   `serving on http://ADDR` are printed on stdout once bound, for scripts
//!   to scrape.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txstat_archive::Archive;
use txstat_ingest::{reduce_fleet, serve_assignments, EpochCell, FleetConfig};
use txstat_netsim::http::HttpRequest;
use txstat_netsim::{
    run_load, spawn_chaos_proxy, spawn_query_server, ChaosProfile, Http, HttpHandler, LoadPlan,
    QueryServerConfig,
};
use txstat_reports::{
    generate, generate_with_crawl, generate_with_crawl_streamed, pipeline_from_archive,
    reduce_frames_labeled_into, reducer_from_archive, render_report, reorg_data,
    scenario_from_meta, scenario_meta, write_archive, CrawlOptions, FollowArchive, Follower,
    Manifest, PipelineData, SegmentFormat, ServeSnapshot, ShardContext, StatsService,
};
use txstat_wire::{PayloadFormat, ShardFrame};
use txstat_workload::Scenario;

/// One subcommand: what it takes spelled once, as usage prints it — `--name`
/// is a switch, `--name VALUE` takes a value, a bare `NAME...` admits
/// positional arguments.
struct Command {
    name: &'static str,
    about: &'static str,
    synopsis: &'static [&'static str],
    run: fn(&Args) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "report",
        about: "render every exhibit of the scenario (the default subcommand)",
        synopsis: &[
            "--small", "--seed N", "--crawl", "--archive DIR", "--out FILE", "--trace-out FILE",
            "--timings", "--metrics-out FILE",
        ],
        run: cmd_report,
    },
    Command {
        name: "archive",
        about: "seal the scenario into the segmented on-disk corpus at --out DIR that \
                the other subcommands cold-start from",
        synopsis: &[
            "--out DIR", "--small", "--seed N", "--crawl", "--segment-blocks N",
            "--trace-out FILE", "--timings", "--metrics-out FILE",
        ],
        run: cmd_archive,
    },
    Command {
        name: "shard",
        about: "one distributed worker: sweep block positions --range A..B into the \
                wire-frame bundle --out FILE (\"-\": stdout), or answer fleet range \
                assignments on --listen ADDR until killed",
        synopsis: &[
            "--range A..B", "--out FILE", "--shards K", "--listen ADDR", "--max-requests N",
            "--timeout-ms MS", "--small", "--seed N", "--archive DIR", "--trace-out FILE",
            "--timings", "--metrics-out FILE",
        ],
        run: cmd_shard,
    },
    Command {
        name: "reduce",
        about: "validate + merge shard frames and render the full report, from frame \
                files or by driving the --connect ADDR,ADDR,... socket workers",
        synopsis: &[
            "--connect ADDRS", "--small", "--seed N", "--archive DIR", "--shards K",
            "--chunks N", "--timeout-ms MS", "--retries N", "--backoff-ms MS", "--out FILE",
            "--trace-out FILE", "--timings", "--metrics-out FILE", "FRAME-FILE...",
        ],
        run: cmd_reduce,
    },
    Command {
        name: "follow",
        about: "replay the chains batch by batch through the follower serve runs, a \
                dashboard line per batch and the full report at the head; can inject a \
                reorg and persist the followed corpus",
        synopsis: &[
            "--small", "--seed N", "--batch N", "--snapshots W", "--reorg-at-batch R",
            "--reorg-depth D", "--reorg-seed S", "--archive DIR", "--segment-blocks N",
            "--out FILE", "--trace-out FILE", "--timings", "--metrics-out FILE",
        ],
        run: cmd_follow,
    },
    Command {
        name: "chaos",
        about: "fault-injecting TCP proxy in front of --upstream ADDR (resets, \
                truncations, bit flips) for rehearsing worker failure; runs until killed",
        synopsis: &[
            "--upstream ADDR", "--listen ADDR", "--fault-rate F", "--truncate-rate F",
            "--flip-rate F", "--seed N",
        ],
        run: cmd_chaos,
    },
    Command {
        name: "serve",
        about: "epoch-swapped HTTP query service over the follow loop, with \
                token-bucket admission; --load runs the built-in load generator at \
                the head and exits",
        synopsis: &[
            "--small", "--seed N", "--archive DIR", "--port P", "--batch N", "--epoch-ms MS",
            "--rate R", "--burst B", "--load", "--trace-out FILE", "--timings",
        ],
        run: cmd_serve,
    },
    Command {
        name: "query",
        about: "scripting client for serve: GET each PATH (bodies to --out), optionally \
                waiting for the head first, asserting a status, or shutting it down",
        synopsis: &[
            "--addr HOST:PORT", "--wait-head S", "--expect-status N", "--out FILE", "--shutdown",
            "PATH...",
        ],
        run: cmd_query,
    },
];

impl Command {
    /// Whether `arg` is one of this subcommand's flags and, if so, whether
    /// it takes a value.
    fn takes_value(&self, arg: &str) -> Option<bool> {
        self.synopsis.iter().filter(|item| item.starts_with("--")).find_map(|flag| {
            match flag.split_once(' ') {
                Some((name, _value)) => (name == arg).then_some(true),
                None => (*flag == arg).then_some(false),
            }
        })
    }

    fn takes_positionals(&self) -> bool {
        self.synopsis.iter().any(|item| !item.starts_with("--"))
    }

    /// This row of the usage text — name, description, then one bracketed
    /// item per flag — wrapped at 79 columns under a hanging indent.
    fn usage(&self) -> String {
        let mut out = format!("\n  {:<8}", self.name);
        let mut column = 10;
        let mut wrap = |item: &str, force_break: bool| {
            if force_break || column + 1 + item.len() > 79 {
                out.push_str("\n          ");
                column = 10;
            }
            out.push(' ');
            out.push_str(item);
            column += 1 + item.len();
        };
        self.about.split_whitespace().for_each(|word| wrap(word, false));
        for (i, item) in self.synopsis.iter().enumerate() {
            wrap(&format!("[{item}]"), i == 0);
        }
        out
    }
}

fn usage() -> String {
    let rows: String = COMMANDS.iter().map(Command::usage).collect();
    format!("usage: reproduce <subcommand> [options]\n\nsubcommands:{rows}")
}

/// Strictly parsed arguments: any flag outside the subcommand's row is an
/// error (nothing is ignored silently).
struct Args {
    bools: Vec<String>,
    values: HashMap<String, String>,
    positionals: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], cmd: &Command) -> Result<Args, String> {
        let mut out =
            Args { bools: Vec::new(), values: HashMap::new(), positionals: Vec::new() };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match cmd.takes_value(arg) {
                Some(false) => out.bools.push(arg.clone()),
                Some(true) => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    out.values.insert(arg.clone(), v.clone());
                }
                None if arg.starts_with('-') => return Err(format!("unrecognized flag {arg}")),
                None if cmd.takes_positionals() => out.positionals.push(arg.clone()),
                None => return Err(format!("unexpected argument {arg:?}")),
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

/// What a subcommand needs of its dataset, which picks the cheapest source
/// that can give it.
#[derive(Clone, Copy, PartialEq)]
enum Need {
    /// The block vectors in memory, to seal, follow or serve them: a full
    /// cold start; a crawl materializes every chain.
    Blocks,
    /// One sweep and one render: a full cold start; a crawl streams into
    /// the sweep shards and holds no block.
    Report,
    /// A render over sweeps the fleet sends: a block-free cold start
    /// ([`reducer_from_archive`]).
    Facts,
}

/// A dataset, the scenario mode it was built as, and the corpus it was
/// cold-started from (if it was).
struct Opened {
    data: PipelineData,
    mode: String,
    archive: Option<Archive>,
}

/// The one place a dataset comes from. With a corpus at `archive_dir`: open
/// and verify it, cross-check any explicit scenario flags against its
/// manifest, and adopt the archived scenario. Otherwise generate the
/// scenario the flags name — over the loopback RPC crawl with `--crawl`.
fn open_dataset(args: &Args, archive_dir: Option<&str>, need: Need) -> Result<Opened, String> {
    if let Some(dir) = archive_dir {
        if args.has("--crawl") {
            return Err("report takes --archive or --crawl, not both".to_owned());
        }
        let cold_start =
            if need == Need::Facts { reducer_from_archive } else { pipeline_from_archive };
        let (data, archive) = cold_start(Path::new(dir))?;
        let manifest = Manifest::parse(archive.manifest())?;
        check_archive_scenario(args, &manifest.meta)?;
        let (_, mode) = scenario_from_meta(&manifest.meta)?;
        let what = match need {
            Need::Facts => "reducer dataset".to_owned(),
            _ => format!("{mode} scenario (seed {})", data.scenario.seed),
        };
        eprintln!(
            "cold-started {what} from archive {dir}: {} segment(s), {} block positions",
            archive.segments().len(),
            archive.total_positions(),
        );
        return Ok(Opened { data, mode, archive: Some(archive) });
    }
    let (sc, mode) = scenario_of(args)?;
    let data = if args.has("--crawl") {
        let opts = if args.has("--small") { CrawlOptions::default() } else { CrawlOptions::paper() };
        eprintln!("generating {mode} scenario (seed {}); crawling over loopback RPC…", sc.seed);
        let rt = tokio::runtime::Runtime::new().map_err(|e| e.to_string())?;
        if need == Need::Blocks {
            rt.block_on(generate_with_crawl(&sc, &opts))
        } else {
            rt.block_on(generate_with_crawl_streamed(&sc, &opts))
        }
        .map_err(|e| e.to_string())?
    } else {
        eprintln!("generating {mode} scenario (seed {})…", sc.seed);
        generate(&sc)
    };
    Ok(Opened { data, mode: mode.to_owned(), archive: None })
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

/// Write to `--out FILE`, or to stdout when it is absent or "-".
fn write_output(bytes: &[u8], out: Option<&str>) -> Result<(), String> {
    match out {
        Some("-") | None => std::io::stdout()
            .write_all(bytes)
            .map_err(|e| format!("cannot write to stdout: {e}")),
        Some(path) => {
            std::fs::write(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("exhibits written to {path}");
            Ok(())
        }
    }
}

/// Render the full report of a finished dataset to `--out`.
fn write_report(data: &PipelineData, args: &Args) -> Result<(), String> {
    let report = render_report(data);
    warn_memo(data);
    write_output(report.as_bytes(), args.get("--out"))
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let Opened { data, .. } = open_dataset(args, args.get("--archive"), Need::Report)?;
    let sc = &data.scenario;
    eprintln!(
        "scenario: {} .. {} (divisors: EOS 1/{}, Tezos 1/{}, XRP 1/{})",
        sc.period.start.date_string(),
        sc.period.end.date_string(),
        sc.eos_divisor,
        sc.tezos_divisor,
        sc.xrp_divisor
    );
    if let Some(s) = &data.stream {
        for (chain, s) in [("EOS", &s.eos), ("Tezos", &s.tezos), ("XRP", &s.xrp)] {
            eprintln!(
                "streamed {chain}: {} blocks (peak buffer {}/{} per shard, {} stalls)",
                s.streamed_blocks, s.peak_buffered, s.channel_capacity, s.blocked_sends,
            );
        }
    }
    eprintln!("pipeline ready in {:?}; rendering exhibits…", started.elapsed());
    write_report(&data, args)
}

fn cmd_archive(args: &Args) -> Result<(), String> {
    let out = args.get("--out").ok_or("archive needs --out DIR")?;
    let segment_blocks: u64 = args.parsed("--segment-blocks", 256)?;
    if segment_blocks == 0 {
        return Err("--segment-blocks must be at least 1".to_owned());
    }
    let started = Instant::now();
    // `Need::Blocks`: the corpus is the block bytes, which a streamed crawl
    // deliberately never holds.
    let Opened { data, mode, .. } = open_dataset(args, None, Need::Blocks)?;
    let stats = write_archive(Path::new(out), &data, &mode, segment_blocks, SegmentFormat)?;
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
/// (no chain generation — assignments replay only their covering segments),
/// under the same manifest cross-check as [`open_dataset`].
fn shard_context_of(args: &Args) -> Result<(ShardContext, serde_json::Value), String> {
    match args.get("--archive") {
        Some(dir) => {
            let (ctx, manifest) = ShardContext::from_archive(Path::new(dir))?;
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
    Ok(())
}

fn cmd_shard(args: &Args) -> Result<(), String> {
    if let Some(listen) = args.get("--listen") {
        return shard_listen(args, listen);
    }
    let (start, end) =
        parse_range(args.get("--range").ok_or("shard needs --range A..B (or --listen ADDR)")?)?;
    let out = args.get("--out").ok_or("shard needs --out FILE (\"-\" for stdout)")?;
    let shards: usize = args.parsed("--shards", 2)?;

    let started = Instant::now();
    let (ctx, meta) = shard_context_of(args)?;
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
    // `Need::Facts`: the sweeps arrive from the fleet, and everything else
    // the report needs of the blocks is memoized per segment.
    let Opened { data, mode, .. } = open_dataset(args, args.get("--archive"), Need::Facts)?;
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

fn cmd_reduce(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let data = if let Some(connect) = args.get("--connect") {
        if !args.positionals.is_empty() {
            return Err("reduce takes frame files or --connect, not both".to_owned());
        }
        reduce_fleet_mode(args, connect)?
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
    write_report(&data, args)
}

/// `--batch N` of `follow` and `serve`: block positions per epoch.
fn batch_of(args: &Args, default: usize) -> Result<usize, String> {
    match args.parsed("--batch", default)? {
        0 => Err("--batch must be positive".to_owned()),
        batch => Ok(batch),
    }
}

fn cmd_follow(args: &Args) -> Result<(), String> {
    let batch = batch_of(args, 500)?;
    let window: usize = args.parsed("--snapshots", txstat_reports::follow::DEFAULT_SNAPSHOT_WINDOW)?;
    let reorg_at: Option<usize> = args.parsed_opt("--reorg-at-batch")?;
    let reorg_depth: usize = args.parsed("--reorg-depth", batch)?;
    let reorg_seed: u64 = args.parsed("--reorg-seed", 1)?;
    let seg_blocks_flag: Option<u64> = args.parsed_opt("--segment-blocks")?;
    if seg_blocks_flag == Some(0) {
        return Err("--segment-blocks must be at least 1".to_owned());
    }

    // With --archive: cold-start from the corpus when one exists there,
    // otherwise generate and (below, once every flag has been checked
    // against the chains) create it.
    let archive_dir = args.get("--archive");
    let has_corpus = |dir: &&str| Path::new(dir).join(txstat_archive::IDX_FILE).exists();
    let Opened { data, mode, archive: corpus } =
        open_dataset(args, archive_dir.filter(has_corpus), Need::Blocks)?;
    let creating = match (&corpus, archive_dir) {
        (None, Some(dir)) => format!("creating archive {dir} and "),
        _ => String::new(),
    };
    eprintln!("{creating}following head in batches of {batch} blocks per chain…");
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
            Some(FollowArchive::create(Path::new(dir), &data, &mode, seg_blocks)?)
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
    write_output(report.as_bytes(), args.get("--out"))
}

/// The `chaos` subcommand: a standalone fault-injecting TCP proxy (see
/// `txstat_netsim::chaos`) for placing between a fleet reducer and its
/// workers.
fn cmd_chaos(args: &Args) -> Result<(), String> {
    let upstream = args.get("--upstream").ok_or("chaos needs --upstream HOST:PORT")?.to_owned();
    let listen = args.get("--listen").unwrap_or("127.0.0.1:0").to_owned();
    let profile = ChaosProfile {
        fault_rate: args.parsed("--fault-rate", 0.0)?,
        truncate_rate: args.parsed("--truncate-rate", 0.0)?,
        flip_rate: args.parsed("--flip-rate", 0.0)?,
        ..ChaosProfile::clean("cli", args.parsed("--seed", 42)?)
    };
    let handle = spawn_chaos_proxy(&listen, upstream.clone(), profile)
        .map_err(|e| format!("cannot start chaos proxy on {listen}: {e}"))?;
    // Scripts scrape this line for the bound address.
    println!("chaos proxy on {} -> {upstream}", handle.addr);
    std::io::stdout().flush().ok();
    // Run until killed (tests and CI kill the process).
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
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

fn cmd_serve(args: &Args) -> Result<(), String> {
    let port: u16 = args.parsed("--port", 0)?;
    let batch = batch_of(args, 20_000)?;
    let epoch_ms: u64 = args.parsed("--epoch-ms", 0)?;
    let rate: f64 = args.parsed("--rate", 50_000.0)?;
    let burst: f64 = args.parsed("--burst", 5_000.0)?;

    // The serve path exports through the process-global registry so
    // `/metrics` carries every layer's families (the fleet, generation and
    // archive ones `run` registered at zero, ingest counters from the shard
    // pools, reduce/epoch progress from the follow loop, serve route stats)
    // in one exposition.
    let registry = txstat_telemetry::registry().clone();
    let Opened { data, .. } = open_dataset(args, args.get("--archive"), Need::Blocks)?;
    eprintln!("serving in epochs of {batch} blocks…");
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
            let snap = service.snapshot();
            let mut paths: Vec<String> = ["headline", "fig1", "fig4", "fig7", "fig8", "comparison"]
                .iter()
                .map(|n| format!("/exhibit/{n}"))
                .collect();
            paths.push("/report".to_owned());
            paths.extend(sample_account_paths(snap.data()));
            let plan = LoadPlan { connections: 64, requests_per_conn: 200, paths };
            eprintln!(
                "load: {} connections × {} requests over {} paths…",
                plan.connections,
                plan.requests_per_conn,
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
            return Ok(());
        }

        eprintln!("head reached; serving until POST /admin/shutdown…");
        while !service.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(25));
        }
        eprintln!("shutdown requested; exiting");
        Ok(())
    })
}

fn cmd_query(args: &Args) -> Result<(), String> {
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
    let wait_head: Option<u64> = args.parsed_opt("--wait-head")?;
    // One exchange per request, each under the same deadline (an uncached
    // paper-scale `/report` renders in a few seconds).
    let fetch = |req: HttpRequest| async move {
        match txstat_crawler::exchange::<Http>(addr, &req, Duration::from_secs(30)).await {
            Ok((resp, _bytes)) => Ok(resp),
            Err(e) => Err(e.to_string()),
        }
    };
    let rt = tokio::runtime::Runtime::new().map_err(|e| e.to_string())?;
    rt.block_on(async {
        // The server prints its address before the follow loop starts, but
        // give slow starts a grace period anyway.
        let deadline = Instant::now() + Duration::from_secs(30);
        while let Err(e) = fetch(HttpRequest::get("/healthz")).await {
            if Instant::now() >= deadline {
                return Err(format!("cannot reach {addr}: {e}"));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        if let Some(secs) = wait_head {
            let deadline = Instant::now() + Duration::from_secs(secs);
            loop {
                let resp = fetch(HttpRequest::get("/healthz")).await?;
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
            let resp = fetch(HttpRequest::get(path)).await?;
            if let Some(code) = expect.filter(|code| *code != resp.status) {
                return Err(format!(
                    "{path}: expected status {code}, got {} {}",
                    resp.status, resp.reason
                ));
            }
            out.extend_from_slice(&resp.body);
        }
        if args.has("--shutdown") {
            let resp = fetch(HttpRequest::post("/admin/shutdown", Vec::new())).await?;
            if !resp.is_ok() {
                return Err(format!("shutdown failed: {} {}", resp.status, resp.reason));
            }
        }
        write_output(&out, args.get("--out"))
    })
}

/// The one run envelope: find the subcommand's row, parse against it, arm
/// tracing, register the pipeline, archive and fleet metric families at
/// zero (so every `--metrics-out` and `/metrics` carries them and tests can
/// pin which path ran), run the subcommand, and flush the telemetry whether
/// it succeeded or not — a failed run is the one whose trace is wanted.
fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = match argv.split_first() {
        Some((name, rest)) => (name.as_str(), rest),
        None => ("report", &[][..]),
    };
    let cmd = COMMANDS
        .iter()
        .find(|cmd| cmd.name == name)
        .ok_or_else(|| format!("unknown subcommand {name:?}"))?;
    let args = Args::parse(rest, cmd)?;
    init_tracing(&args)?;
    txstat_reports::pipeline::register_metrics();
    txstat_archive::register_metrics();
    txstat_ingest::fleet::register_metrics();
    let result = (cmd.run)(&args);
    let dumped = dump_metrics(&args);
    finish_tracing(&args);
    result.and(dumped)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `cmd`'s parser knows `flag` (given a value, in case it wants one).
    fn accepts(cmd: &Command, flag: &str) -> bool {
        let raw = [flag.to_owned(), "0".to_owned()];
        Args::parse(&raw, cmd).err() != Some(format!("unrecognized flag {flag}"))
    }

    #[test]
    fn every_usage_row_names_exactly_the_flags_its_parser_accepts() {
        let flags_in = |text: &str| -> BTreeSet<String> {
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|word| word.starts_with("--"))
                .map(str::to_owned)
                .collect()
        };
        let every_flag = flags_in(&usage());
        for cmd in COMMANDS {
            let accepted: BTreeSet<String> =
                every_flag.iter().filter(|flag| accepts(cmd, flag)).cloned().collect();
            assert_eq!(flags_in(&cmd.usage()), accepted, "usage of {}", cmd.name);
            assert_eq!(COMMANDS.iter().filter(|other| other.name == cmd.name).count(), 1);
        }
    }

    /// `benchmark/src/main.rs` spawns these; `BENCHMARK.json` freezes them.
    #[test]
    fn every_flag_the_benchmark_passes_is_accepted() {
        for (name, flags) in [
            ("archive", &["--out", "--small", "--seed"][..]),
            ("report", &["--archive", "--out", "--small", "--seed"]),
            ("serve", &["--archive", "--batch", "--epoch-ms", "--port", "--rate", "--burst"]),
            ("reduce", &["--connect", "--archive", "--chunks", "--out"]),
            ("shard", &["--listen", "--archive"]),
        ] {
            let row = COMMANDS.iter().find(|cmd| cmd.name == name).expect("subcommand row");
            for flag in flags {
                assert!(accepts(row, flag), "{name} {flag}");
            }
        }
    }
}
