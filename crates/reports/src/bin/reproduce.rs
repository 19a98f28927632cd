//! The end-to-end reproduction binary. `COMMANDS` is the whole command
//! line: one row per subcommand with its flags spelled once, which is both
//! what `Args::parse` accepts and the usage synopsis every error prints
//! (an unrecognized flag or subcommand exits 2 with it). Bare `reproduce`
//! means `report`. What the table cannot say:
//!
//! - **One envelope.** `run` parses, arms tracing (`--trace-out FILE`:
//!   one NDJSON event per closed span; `--timings`: the per-stage
//!   self-time ledger on stderr at exit), registers the pipeline, archive
//!   and fleet metric families at zero, runs the subcommand under one root
//!   span named after it, then dumps the registry to `--metrics-out FILE`
//!   (Prometheus text) and flushes the trace — on failure too, so a failed
//!   run keeps its telemetry. The stages' self times on the root's thread
//!   sum to the root's wall time, the ledger prints the rest as
//!   `unattributed`, and no subcommand keeps a stopwatch of its own.
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
//!   assignment, each at most once per process: a table keyed by segment
//!   index keeps every decode (`txstat_archive_cache_*`). `--max-requests
//!   N` is the deterministic way to die mid-reduction in tests.
//! - **`reduce --connect`** drives the workers with per-request deadlines,
//!   exponential backoff, bounded retry budgets and straggler re-dispatch;
//!   failures name the worker address (file mode: the frame file).
//! - **`follow`** and **`serve`** are one library session each
//!   (`txstat_reports::{follow_session, serve_session}`; their module docs
//!   say what they do); the binary parses their flags, opens the dataset
//!   and prints what the session reports.
//! - `shard worker on ADDR`, `chaos proxy on ADDR -> UPSTREAM` and
//!   `serving on http://ADDR` are printed on stdout once bound, for scripts
//!   to scrape.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use txstat_archive::Archive;
use txstat_ingest::{reduce_fleet, serve_assignments, FleetConfig};
use txstat_netsim::http::HttpRequest;
use txstat_netsim::{spawn_chaos_proxy, ChaosProfile, Http};
use txstat_reports::{
    follow_session, generate, generate_with_crawl, pipeline_from_archive,
    reduce_frames_labeled_into, reducer_from_archive, render_report, scenario_from_meta,
    scenario_meta, serve_session, write_archive, Corpus, CrawlOptions, FollowPlan, Manifest,
    MemoStatus, PipelineData, Reorg, SegmentFormat, ServeLine, ServePlan, ShardContext,
    DEFAULT_SNAPSHOT_WINDOW,
};
use txstat_telemetry::Span;
use txstat_wire::fleet::MAX_SHARDS;
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
            "--small",
            "--seed N",
            "--crawl",
            "--archive DIR",
            "--out FILE",
            "--trace-out FILE",
            "--timings",
            "--metrics-out FILE",
        ],
        run: cmd_report,
    },
    Command {
        name: "archive",
        about: "seal the scenario into the segmented on-disk corpus at --out DIR that \
                the other subcommands cold-start from",
        synopsis: &[
            "--out DIR",
            "--small",
            "--seed N",
            "--crawl",
            "--segment-blocks N",
            "--trace-out FILE",
            "--timings",
            "--metrics-out FILE",
        ],
        run: cmd_archive,
    },
    Command {
        name: "shard",
        about: "one distributed worker: sweep block positions --range A..B into the \
                wire-frame bundle --out FILE (\"-\": stdout), or answer fleet range \
                assignments on --listen ADDR until killed",
        synopsis: &[
            "--range A..B",
            "--out FILE",
            "--shards K",
            "--listen ADDR",
            "--max-requests N",
            "--timeout-ms MS",
            "--small",
            "--seed N",
            "--archive DIR",
            "--trace-out FILE",
            "--timings",
            "--metrics-out FILE",
        ],
        run: cmd_shard,
    },
    Command {
        name: "reduce",
        about: "validate + merge shard frames and render the full report, from frame \
                files or by driving the --connect ADDR,ADDR,... socket workers",
        synopsis: &[
            "--connect ADDRS",
            "--small",
            "--seed N",
            "--archive DIR",
            "--shards K",
            "--chunks N",
            "--timeout-ms MS",
            "--retries N",
            "--backoff-ms MS",
            "--out FILE",
            "--trace-out FILE",
            "--timings",
            "--metrics-out FILE",
            "FRAME-FILE...",
        ],
        run: cmd_reduce,
    },
    Command {
        name: "follow",
        about: "replay the chains batch by batch through the follower serve runs, a \
                dashboard line per batch and the full report at the head; can inject a \
                reorg and persist the followed corpus",
        synopsis: &[
            "--small",
            "--seed N",
            "--batch N",
            "--snapshots W",
            "--reorg-at-batch R",
            "--reorg-depth D",
            "--reorg-seed S",
            "--archive DIR",
            "--segment-blocks N",
            "--out FILE",
            "--trace-out FILE",
            "--timings",
            "--metrics-out FILE",
        ],
        run: cmd_follow,
    },
    Command {
        name: "chaos",
        about: "fault-injecting TCP proxy in front of --upstream ADDR (resets, \
                truncations, bit flips) for rehearsing worker failure; runs until killed",
        synopsis: &[
            "--upstream ADDR",
            "--listen ADDR",
            "--fault-rate F",
            "--truncate-rate F",
            "--flip-rate F",
            "--seed N",
        ],
        run: cmd_chaos,
    },
    Command {
        name: "serve",
        about: "epoch-swapped HTTP query service over the follow loop, with \
                token-bucket admission; --load runs the built-in load generator at \
                the head and exits",
        synopsis: &[
            "--small",
            "--seed N",
            "--archive DIR",
            "--port P",
            "--batch N",
            "--epoch-ms MS",
            "--rate R",
            "--burst B",
            "--load",
            "--trace-out FILE",
            "--timings",
        ],
        run: cmd_serve,
    },
    Command {
        name: "query",
        about: "scripting client for serve: GET each PATH (bodies to --out), optionally \
                waiting for the head first, asserting a status, or shutting it down",
        synopsis: &[
            "--addr HOST:PORT",
            "--wait-head S",
            "--expect-status N",
            "--out FILE",
            "--shutdown",
            "PATH...",
        ],
        run: cmd_query,
    },
];

impl Command {
    /// Whether `arg` is one of this subcommand's flags and, if so, whether
    /// it takes a value.
    fn takes_value(&self, arg: &str) -> Option<bool> {
        self.synopsis
            .iter()
            .filter(|item| item.starts_with("--"))
            .find_map(|flag| match flag.split_once(' ') {
                Some((name, _value)) => (name == arg).then_some(true),
                None => (*flag == arg).then_some(false),
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
        self.about
            .split_whitespace()
            .for_each(|word| wrap(word, false));
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

/// Strictly parsed arguments: any flag outside the subcommand's row, and
/// any flag given twice, is an error (nothing is ignored silently).
struct Args {
    bools: Vec<String>,
    values: HashMap<String, String>,
    positionals: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], cmd: &Command) -> Result<Args, String> {
        let mut out = Args {
            bools: Vec::new(),
            values: HashMap::new(),
            positionals: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match cmd.takes_value(arg) {
                Some(_) if out.has(arg) || out.values.contains_key(arg) => {
                    return Err(format!("{arg} given twice"))
                }
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
    /// cold start; a crawl keeps every block it folds.
    Blocks,
    /// One sweep and one render: a full cold start; a crawl folds each
    /// block as it is fetched and keeps none.
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
        let cold_start = if need == Need::Facts {
            reducer_from_archive
        } else {
            pipeline_from_archive
        };
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
        return Ok(Opened {
            data,
            mode,
            archive: Some(archive),
        });
    }
    let (sc, mode) = scenario_of(args)?;
    let data = if args.has("--crawl") {
        let opts = if args.has("--small") {
            CrawlOptions::default()
        } else {
            CrawlOptions::paper()
        };
        eprintln!(
            "generating {mode} scenario (seed {}); crawling over loopback RPC…",
            sc.seed
        );
        generate_with_crawl(&sc, &opts, need == Need::Blocks).map_err(|e| e.to_string())?
    } else {
        eprintln!("generating {mode} scenario (seed {})…", sc.seed);
        generate(&sc)
    };
    Ok(Opened {
        data,
        mode: mode.to_owned(),
        archive: None,
    })
}

/// Arm the global tracer per `--trace-out FILE` (NDJSON span events) and
/// `--timings` (end-of-run self-time ledger). Either flag enables tracing;
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

/// Flush the trace sink and print the self-time ledger when `--timings`
/// was given.
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
fn warn_memo(memo: Option<MemoStatus>) {
    if let Some(why) = memo.and_then(|s| s.write_error) {
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
    warn_memo(data.memo_status());
    write_output(report.as_bytes(), args.get("--out"))
}

fn cmd_report(args: &Args) -> Result<(), String> {
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
    eprintln!("pipeline ready; rendering exhibits…");
    write_report(&data, args)
}

fn cmd_archive(args: &Args) -> Result<(), String> {
    let out = args.get("--out").ok_or("archive needs --out DIR")?;
    let segment_blocks: u64 = args.parsed("--segment-blocks", 256)?;
    // `Need::Blocks`: the corpus is the block bytes, which a crawl keeps
    // only when asked.
    let Opened { data, mode, .. } = open_dataset(args, None, Need::Blocks)?;
    let stats = write_archive(Path::new(out), &data, &mode, segment_blocks, SegmentFormat)?;
    eprintln!(
        "archive sealed: {} segment(s) over {} block positions, \
         {} raw bytes -> {} compressed ({:.1}%) in {out}",
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

/// The socket deadline of `shard --listen` and fleet `reduce`. Zero is
/// refused: std rejects a zero socket timeout, which the worker's accept
/// loop ignores (leaving its sockets with no deadline at all), and a zero
/// connect timeout fails every fleet request.
fn timeout_of(args: &Args) -> Result<Duration, String> {
    match args.parsed("--timeout-ms", 10_000)? {
        0 => Err("--timeout-ms must be at least 1".to_owned()),
        ms => Ok(Duration::from_millis(ms)),
    }
}

/// `--shards K` of `shard` and fleet `reduce`: in-process sub-accumulators
/// per assignment, refused outside `1..=MAX_SHARDS` like a worker refuses
/// such an assignment off the wire.
fn shards_of(args: &Args) -> Result<usize, String> {
    match args.parsed("--shards", 2)? {
        shards @ 1..=MAX_SHARDS => Ok(shards),
        shards => Err(format!("--shards {shards} is outside 1..={MAX_SHARDS}")),
    }
}

/// Socket worker mode of `shard`: bind, announce the address, and answer
/// fleet range assignments against one prepared context until the
/// request budget (if any) is spent.
fn shard_listen(args: &Args, listen: &str) -> Result<(), String> {
    let max_requests: Option<u64> = args.parsed_opt("--max-requests")?;
    let timeout = timeout_of(args)?;
    let (ctx, expected) = shard_context_of(args)?;
    eprintln!("serving shard assignments…");
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Scripts scrape this line for the bound address.
    println!("shard worker on {addr}");
    std::io::stdout().flush().ok();
    let served = serve_assignments(&listener, max_requests, timeout, |a| {
        if a.meta != expected {
            return Err("assignment meta does not describe this worker's scenario".to_owned());
        }
        eprintln!("assignment [{}, {}): {} shard(s)", a.start, a.end, a.shards);
        ctx.frames(a.meta.clone(), a.start, a.end, a.shards, a.payload)
    })
    .map_err(|e| format!("worker accept loop: {e}"))?;
    eprintln!("worker served {served} assignment(s); exiting");
    if let Some(s) = ctx.cache_stats() {
        eprintln!(
            "decoded segments: {} hit(s), {} miss(es), {} segment(s) held",
            s.hits, s.misses, s.entries
        );
    }
    Ok(())
}

fn cmd_shard(args: &Args) -> Result<(), String> {
    if let Some(listen) = args.get("--listen") {
        return shard_listen(args, listen);
    }
    let (start, end) = parse_range(
        args.get("--range")
            .ok_or("shard needs --range A..B (or --listen ADDR)")?,
    )?;
    let out = args
        .get("--out")
        .ok_or("shard needs --out FILE (\"-\" for stdout)")?;
    let shards = shards_of(args)?;
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
        "{} frames ({} bytes) emitted to {out}",
        frames.len(),
        bytes.len()
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
    let shards = shards_of(args)?;
    let timeout = timeout_of(args)?;
    // `Need::Facts`: the sweeps arrive from the fleet, and everything else
    // the report needs of the blocks is memoized per segment.
    let Opened { data, mode, .. } = open_dataset(args, args.get("--archive"), Need::Facts)?;
    let sc = data.scenario.clone();
    let mut cfg = FleetConfig::new(workers);
    cfg.chunks = args.parsed("--chunks", 0)?;
    cfg.timeout = timeout;
    cfg.retries = args.parsed("--retries", 4)?;
    cfg.backoff_ms = args.parsed("--backoff-ms", 50)?;
    cfg.seed = sc.seed;
    eprintln!("driving {} worker(s)…", cfg.workers.len());
    let total = data.longest_chain() as u64;
    let labeled = {
        let _span = Span::enter("reduce_fleet", "");
        reduce_fleet(
            &cfg,
            total,
            shards,
            PayloadFormat::Bin,
            scenario_meta(&sc, &mode),
        )
    }
    .map_err(|e| e.to_string())?;
    eprintln!("fleet returned {} frames; merging…", labeled.len());
    reduce_frames_labeled_into(data, &labeled)
}

fn cmd_reduce(args: &Args) -> Result<(), String> {
    let data = if let Some(connect) = args.get("--connect") {
        if !args.positionals.is_empty() {
            return Err("reduce takes frame files or --connect, not both".to_owned());
        }
        reduce_fleet_mode(args, connect)?
    } else {
        if args.get("--archive").is_some() {
            return Err(
                "reduce --archive needs --connect (the cold-start is fleet mode; \
                        file mode takes its scenario from the frames)"
                    .to_owned(),
            );
        }
        if args.positionals.is_empty() {
            return Err("reduce needs at least one frame file (or --connect ADDR,...)".to_owned());
        }
        let mut labeled: Vec<(String, ShardFrame)> = Vec::new();
        for path in &args.positionals {
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let decoded = txstat_wire::decode_all(&bytes).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("{path}: {} frames", decoded.len());
            labeled.extend(decoded.into_iter().map(|f| (path.clone(), f)));
        }
        let meta = labeled
            .first()
            .map(|(_, f)| f.header.meta.clone())
            .ok_or("no frames found")?;
        let (sc, mode) = scenario_from_meta(&meta)?;
        eprintln!(
            "reducing {} frames of the {mode} scenario (seed {})…",
            labeled.len(),
            sc.seed
        );
        reduce_frames_labeled_into(generate(&sc), &labeled)?
    };
    eprintln!("reduction ready; rendering exhibits…");
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
    let snapshots = args.parsed("--snapshots", DEFAULT_SNAPSHOT_WINDOW)?;
    let (depth, seed) = (
        args.parsed("--reorg-depth", batch)?,
        args.parsed("--reorg-seed", 1)?,
    );
    let reorg_at = args.parsed_opt("--reorg-at-batch")?;
    let reorg = reorg_at.map(|at_batch| Reorg {
        at_batch,
        depth,
        seed,
    });
    let segment_blocks = args.parsed_opt("--segment-blocks")?;
    // With --archive: cold-start from the corpus when one exists there,
    // otherwise the session creates it.
    let dir = args.get("--archive");
    let has_corpus = |dir: &&str| Path::new(dir).join(txstat_archive::IDX_FILE).exists();
    let Opened {
        data,
        mode,
        archive,
    } = open_dataset(args, dir.filter(has_corpus), Need::Blocks)?;
    let archive = match archive {
        Some(corpus) => Some(Corpus::Resume(corpus)),
        None => dir.map(|dir| Corpus::Create(Path::new(dir))),
    };
    let plan = FollowPlan {
        batch,
        snapshots,
        reorg,
        archive,
        segment_blocks,
    };
    let followed = follow_session(data, &mode, plan, |line| eprintln!("{line}"))?;
    warn_memo(followed.memo);
    if followed.reorg_verified {
        eprintln!("reorg recovery verified: report byte-identical to a from-scratch sweep");
    }
    if let Some(segments) = followed.archive_segments {
        eprintln!(
            "archive verified: {segments} segment(s) replay byte-identical to the followed chains"
        );
    }
    write_output(followed.report.as_bytes(), args.get("--out"))
}

/// The `chaos` subcommand: a standalone fault-injecting TCP proxy (see
/// `txstat_netsim::chaos`) for placing between a fleet reducer and its
/// workers.
fn cmd_chaos(args: &Args) -> Result<(), String> {
    let upstream = args
        .get("--upstream")
        .ok_or("chaos needs --upstream HOST:PORT")?
        .to_owned();
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

fn cmd_serve(args: &Args) -> Result<(), String> {
    let plan = ServePlan {
        port: args.parsed("--port", 0)?,
        batch: batch_of(args, 20_000)?,
        epoch_ms: args.parsed("--epoch-ms", 0)?,
        rate: args.parsed("--rate", 50_000.0)?,
        burst: args.parsed("--burst", 5_000.0)?,
        load: args.has("--load"),
    };
    let Opened { data, .. } = open_dataset(args, args.get("--archive"), Need::Blocks)?;
    serve_session(data, &plan, |line| match line {
        ServeLine::Announce(line) => {
            // Scripts scrape these lines (the bound address first).
            println!("{line}");
            std::io::stdout().flush().ok();
        }
        ServeLine::Progress(line) => eprintln!("{line}"),
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
    if args.positionals.is_empty() && !args.has("--shutdown") && args.get("--wait-head").is_none() {
        return Err("query needs at least one PATH (or --wait-head / --shutdown)".to_owned());
    }
    let expect: Option<u16> = args.parsed_opt("--expect-status")?;
    // The head deadline is fixed before the first request, so a value past
    // the end of the clock is a usage error rather than an overflow panic.
    let wait_head = match args.parsed_opt::<u64>("--wait-head")? {
        Some(secs) => Some(
            Instant::now()
                .checked_add(Duration::from_secs(secs))
                .map(|deadline| (secs, deadline))
                .ok_or_else(|| format!("--wait-head {secs} is out of range"))?,
        ),
        None => None,
    };
    // One exchange per request, each under the same deadline (an uncached
    // paper-scale `/report` renders in a few seconds).
    let fetch = |req: HttpRequest| {
        txstat_crawler::exchange::<Http>(addr, &req, Duration::from_secs(30))
            .map(|(resp, _bytes)| resp)
            .map_err(|e| e.to_string())
    };
    // The server prints its address before the follow loop starts, but
    // give slow starts a grace period anyway.
    let deadline = Instant::now() + Duration::from_secs(30);
    while let Err(e) = fetch(HttpRequest::get("/healthz")) {
        if Instant::now() >= deadline {
            return Err(format!("cannot reach {addr}: {e}"));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    if let Some((secs, deadline)) = wait_head {
        loop {
            let resp = fetch(HttpRequest::get("/healthz"))?;
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
        let resp = fetch(HttpRequest::get(path))?;
        if let Some(code) = expect.filter(|code| *code != resp.status) {
            return Err(format!(
                "{path}: expected status {code}, got {} {}",
                resp.status, resp.reason
            ));
        }
        out.extend_from_slice(&resp.body);
    }
    if args.has("--shutdown") {
        let resp = fetch(HttpRequest::post("/admin/shutdown", Vec::new()))?;
        if !resp.is_ok() {
            return Err(format!("shutdown failed: {} {}", resp.status, resp.reason));
        }
    }
    write_output(&out, args.get("--out"))
}

/// The one run envelope: find the subcommand's row, parse against it, arm
/// tracing, register the pipeline, archive and fleet metric families at
/// zero (so every `--metrics-out` and `/metrics` carries them and tests can
/// pin which path ran), run the subcommand under its root span, and flush
/// the telemetry whether it succeeded or not — a failed run is the one
/// whose trace is wanted.
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
    let result = {
        let _root = txstat_telemetry::tracer().root(cmd.name);
        (cmd.run)(&args)
    };
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
            let accepted: BTreeSet<String> = every_flag
                .iter()
                .filter(|flag| accepts(cmd, flag))
                .cloned()
                .collect();
            assert_eq!(flags_in(&cmd.usage()), accepted, "usage of {}", cmd.name);
            assert_eq!(
                COMMANDS
                    .iter()
                    .filter(|other| other.name == cmd.name)
                    .count(),
                1
            );
        }
    }

    /// `benchmark/src/main.rs` spawns these; `BENCHMARK.json` freezes them.
    #[test]
    fn every_flag_the_benchmark_passes_is_accepted() {
        for (name, flags) in [
            ("archive", &["--out", "--small", "--seed"][..]),
            ("report", &["--archive", "--out", "--small", "--seed"]),
            (
                "serve",
                &[
                    "--archive",
                    "--batch",
                    "--epoch-ms",
                    "--port",
                    "--rate",
                    "--burst",
                ],
            ),
            ("reduce", &["--connect", "--archive", "--chunks", "--out"]),
            ("shard", &["--listen", "--archive"]),
        ] {
            let row = COMMANDS
                .iter()
                .find(|cmd| cmd.name == name)
                .expect("subcommand row");
            for flag in flags {
                assert!(accepts(row, flag), "{name} {flag}");
            }
        }
    }
}
