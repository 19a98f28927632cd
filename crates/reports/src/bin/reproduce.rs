//! The end-to-end reproduction binary. `COMMANDS` is the whole command
//! line: one row per subcommand with its flags spelled once, each value
//! flag with its domain. It is both what `Args::parse` accepts and the
//! usage every error prints: an unknown flag or subcommand, a flag given
//! twice and a value outside its domain (`--shards 0 is outside 1..=64`)
//! exit 2 with it before anything runs, so each subcommand reads its flags
//! typed and infallibly. Bare `reproduce` means `report`. What the table
//! cannot say:
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
//! - **`shard --archive`** sweeps each segment an assignment covers whole
//!   at most once per process and keeps its swept state, not its blocks
//!   (`txstat_archive_cache_*`); a segment an assignment only cuts (a
//!   ragged edge) is decoded and kept by nothing. `--max-requests N` is the
//!   deterministic way to die mid-reduction in tests.
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

/// What a flag's value may be: checked by [`Args::parse`] before any
/// subcommand runs, and printed beside the flag's metavariable in the usage.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Domain {
    /// An integer in `lo..=hi`.
    Int(u64, u64),
    /// A finite real in `[lo, hi]`; an infinite `hi` bounds nothing.
    Real(f64, f64),
    /// Block positions `A..B` with `A <= B`.
    Range,
    /// A path or an address, checked where it is used.
    Text,
}

use Domain::{Int, Real, Text};

const ANY_U64: Domain = Int(0, u64::MAX);
const POSITIVE: Domain = Int(1, u64::MAX);

/// The longest sleep or wait a flag may ask for (`--epoch-ms`, and
/// `--wait-head` in seconds): an hour, far above any run's need, and far
/// below the end of the clock.
const MAX_WAIT_MS: u64 = 3_600_000;

/// A flag's value, typed by its [`Domain`].
enum Value {
    Int(u64),
    Real(f64),
    Range(u64, u64),
    Text(String),
}

impl Domain {
    /// `raw` typed, or `None` when it is not a member.
    fn parse(self, raw: &str) -> Option<Value> {
        match self {
            Int(lo, hi) => raw
                .parse()
                .ok()
                .filter(|v| (lo..=hi).contains(v))
                .map(Value::Int),
            Real(lo, hi) => raw
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite() && (lo..=hi).contains(v))
                .map(Value::Real),
            Domain::Range => {
                let (a, b) = raw.split_once("..")?;
                let (a, b) = (a.parse().ok()?, b.parse().ok()?);
                (a <= b).then_some(Value::Range(a, b))
            }
            Text => Some(Value::Text(raw.to_owned())),
        }
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        match *self {
            Int(lo, u64::MAX) => write!(f, "{lo}..=2^64-1"),
            Int(lo, hi) => write!(f, "{lo}..={hi}"),
            Real(lo, hi) if hi.is_infinite() => write!(f, "[{lo}, inf)"),
            Real(lo, hi) => write!(f, "[{lo}, {hi}]"),
            Domain::Range => f.write_str("A <= B < 2^64"),
            Text => Ok(()),
        }
    }
}

/// One item of a subcommand's synopsis, as usage prints it.
enum Item {
    /// `--name`.
    Switch(&'static str),
    /// `--name META`, whose value must lie in the domain.
    Flag(&'static str, &'static str, Domain),
    /// `NAME...`: the subcommand admits positional arguments.
    Positionals(&'static str),
}

use Item::{Flag, Positionals, Switch};

/// One subcommand: what it takes spelled once, as usage prints it.
struct Command {
    name: &'static str,
    about: &'static str,
    synopsis: &'static [Item],
    run: fn(&Args) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "report",
        about: "render every exhibit of the scenario (the default subcommand)",
        synopsis: &[
            Switch("--small"),
            Flag("--seed", "N", ANY_U64),
            Switch("--crawl"),
            Flag("--archive", "DIR", Text),
            Flag("--out", "FILE", Text),
            Flag("--trace-out", "FILE", Text),
            Switch("--timings"),
            Flag("--metrics-out", "FILE", Text),
        ],
        run: cmd_report,
    },
    Command {
        name: "archive",
        about: "seal the scenario into the segmented on-disk corpus at --out DIR that \
                the other subcommands cold-start from",
        synopsis: &[
            Flag("--out", "DIR", Text),
            Switch("--small"),
            Flag("--seed", "N", ANY_U64),
            Switch("--crawl"),
            Flag("--segment-blocks", "N", POSITIVE),
            Flag("--trace-out", "FILE", Text),
            Switch("--timings"),
            Flag("--metrics-out", "FILE", Text),
        ],
        run: cmd_archive,
    },
    Command {
        name: "shard",
        about: "one distributed worker: sweep block positions --range A..B into the \
                wire-frame bundle --out FILE (\"-\": stdout), or answer fleet range \
                assignments on --listen ADDR until killed",
        synopsis: &[
            Flag("--range", "A..B", Domain::Range),
            Flag("--out", "FILE", Text),
            Flag("--shards", "K", Int(1, MAX_SHARDS as u64)),
            Flag("--listen", "ADDR", Text),
            // 0 would announce a worker that can never serve.
            Flag("--max-requests", "N", POSITIVE),
            // The deadline of each stage of a connection (assignment read,
            // reply write); 0 would cut every connection before its first byte.
            Flag("--timeout-ms", "MS", POSITIVE),
            Switch("--small"),
            Flag("--seed", "N", ANY_U64),
            Flag("--archive", "DIR", Text),
            Flag("--trace-out", "FILE", Text),
            Switch("--timings"),
            Flag("--metrics-out", "FILE", Text),
        ],
        run: cmd_shard,
    },
    Command {
        name: "reduce",
        about: "validate + merge shard frames and render the full report, from frame \
                files or by driving the --connect ADDR,ADDR,... socket workers, each chunk \
                sent to the same home worker on every run (a dead home's chunks go to \
                the survivors); with --archive, the --chunks follow its segment \
                boundaries (never more chunks than segments; 0: three per worker)",
        synopsis: &[
            Flag("--connect", "ADDRS", Text),
            Switch("--small"),
            Flag("--seed", "N", ANY_U64),
            Flag("--archive", "DIR", Text),
            Flag("--shards", "K", Int(1, MAX_SHARDS as u64)),
            Flag("--chunks", "N", ANY_U64),
            Flag("--timeout-ms", "MS", POSITIVE),
            Flag("--retries", "N", Int(0, u32::MAX as u64)),
            Flag("--backoff-ms", "MS", Int(1, FleetConfig::BACKOFF_CAP_MS)),
            Flag("--out", "FILE", Text),
            Flag("--trace-out", "FILE", Text),
            Switch("--timings"),
            Flag("--metrics-out", "FILE", Text),
            Positionals("FRAME-FILE..."),
        ],
        run: cmd_reduce,
    },
    Command {
        name: "follow",
        about: "replay the chains batch by batch through the follower serve runs, a \
                dashboard line per batch and the full report at the head; can inject a \
                reorg and persist the followed corpus",
        synopsis: &[
            Switch("--small"),
            Flag("--seed", "N", ANY_U64),
            Flag("--batch", "N", POSITIVE),
            Flag("--snapshots", "W", POSITIVE),
            // No batch 0 exists to reorg after, and a reorg of depth 0
            // rewrites no followed position: nothing would be verified.
            Flag("--reorg-at-batch", "R", POSITIVE),
            Flag("--reorg-depth", "D", POSITIVE),
            Flag("--reorg-seed", "S", ANY_U64),
            Flag("--archive", "DIR", Text),
            Flag("--segment-blocks", "N", POSITIVE),
            Flag("--out", "FILE", Text),
            Flag("--trace-out", "FILE", Text),
            Switch("--timings"),
            Flag("--metrics-out", "FILE", Text),
        ],
        run: cmd_follow,
    },
    Command {
        name: "chaos",
        about: "fault-injecting TCP proxy in front of --upstream ADDR (resets, \
                truncations, bit flips) for rehearsing worker failure; runs until killed",
        synopsis: &[
            Flag("--upstream", "ADDR", Text),
            Flag("--listen", "ADDR", Text),
            Flag("--fault-rate", "F", Real(0.0, 1.0)),
            Flag("--truncate-rate", "F", Real(0.0, 1.0)),
            Flag("--flip-rate", "F", Real(0.0, 1.0)),
            Flag("--seed", "N", ANY_U64),
        ],
        run: cmd_chaos,
    },
    Command {
        name: "serve",
        about: "epoch-swapped HTTP query service over the follow loop, with \
                token-bucket admission; --load runs the built-in load generator at \
                the head and exits",
        synopsis: &[
            Switch("--small"),
            Flag("--seed", "N", ANY_U64),
            Flag("--archive", "DIR", Text),
            Flag("--port", "P", Int(0, u16::MAX as u64)),
            Flag("--batch", "N", POSITIVE),
            Flag("--epoch-ms", "MS", Int(0, MAX_WAIT_MS)),
            Flag("--rate", "R", Real(0.0, f64::INFINITY)),
            Flag("--burst", "B", Real(1.0, f64::INFINITY)),
            Switch("--load"),
            Flag("--trace-out", "FILE", Text),
            Switch("--timings"),
        ],
        run: cmd_serve,
    },
    Command {
        name: "query",
        about: "scripting client for serve: GET each PATH (bodies to --out), optionally \
                waiting for the head first, asserting a status, or shutting it down",
        synopsis: &[
            Flag("--addr", "HOST:PORT", Text),
            Flag("--wait-head", "S", Int(0, MAX_WAIT_MS / 1000)),
            Flag("--expect-status", "N", Int(100, 599)),
            Flag("--out", "FILE", Text),
            Switch("--shutdown"),
            Positionals("PATH..."),
        ],
        run: cmd_query,
    },
];

impl Command {
    /// `flag` as this subcommand spells it and, for a value flag, its
    /// domain; `None` if it takes no such flag.
    fn flag(&self, flag: &str) -> Option<(&'static str, Option<Domain>)> {
        self.synopsis.iter().find_map(|item| match *item {
            Switch(name) if name == flag => Some((name, None)),
            Flag(name, _, domain) if name == flag => Some((name, Some(domain))),
            _ => None,
        })
    }

    /// This row of the usage text — name, description, then one bracketed
    /// item per flag, a value's domain beside its metavariable — wrapped at
    /// 79 columns under a hanging indent.
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
            let shown = match item {
                Switch(name) | Positionals(name) => format!("[{name}]"),
                Flag(name, meta, Text) => format!("[{name} {meta}]"),
                Flag(name, meta, domain) => format!("[{name} {meta}: {domain}]"),
            };
            wrap(&shown, i == 0);
        }
        out
    }
}

fn usage() -> String {
    let rows: String = COMMANDS.iter().map(Command::usage).collect();
    format!("usage: reproduce <subcommand> [options]\n\nsubcommands:{rows}")
}

/// Strictly parsed arguments: any flag outside the subcommand's row, any
/// flag given twice and any value outside its flag's domain is an error
/// (nothing is ignored silently), so a subcommand reads its flags
/// infallibly, already typed.
#[derive(Default)]
struct Args {
    switches: Vec<&'static str>,
    values: HashMap<&'static str, Value>,
    positionals: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], cmd: &Command) -> Result<Args, String> {
        let mut out = Args::default();
        let positionals = cmd.synopsis.iter().any(|i| matches!(i, Positionals(_)));
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match cmd.flag(arg) {
                Some((name, _)) if out.has(name) || out.values.contains_key(name) => {
                    return Err(format!("{arg} given twice"))
                }
                Some((name, None)) => out.switches.push(name),
                Some((name, Some(domain))) => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    let typed = domain
                        .parse(v)
                        .ok_or_else(|| format!("{arg} {v} is outside {domain}"))?;
                    out.values.insert(name, typed);
                }
                None if arg.starts_with('-') => return Err(format!("unrecognized flag {arg}")),
                None if positionals => out.positionals.push(arg.clone()),
                None => return Err(format!("unexpected argument {arg:?}")),
            }
        }
        Ok(out)
    }

    fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        match self.values.get(flag)? {
            Value::Text(text) => Some(text),
            _ => None,
        }
    }

    /// Callers narrow with `as`: each flag's domain fits the type it is
    /// read into.
    fn int(&self, flag: &str) -> Option<u64> {
        match self.values.get(flag)? {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    fn real(&self, flag: &str) -> Option<f64> {
        match self.values.get(flag)? {
            Value::Real(v) => Some(*v),
            _ => None,
        }
    }

    fn range(&self, flag: &str) -> Option<(u64, u64)> {
        match self.values.get(flag)? {
            Value::Range(a, b) => Some((*a, *b)),
            _ => None,
        }
    }
}

fn scenario_of(args: &Args) -> (Scenario, &'static str) {
    let seed = args.int("--seed").unwrap_or(42);
    if args.has("--small") {
        (Scenario::small(seed), "small")
    } else {
        (Scenario::paper(seed), "paper")
    }
}

/// An archived corpus defines its own scenario; explicit `--small`/`--seed`
/// flags alongside `--archive` must agree with the manifest (nothing is
/// silently re-generated against different parameters).
fn check_archive_scenario(args: &Args, meta: &serde_json::Value) -> Result<(), String> {
    if args.has("--small") || args.int("--seed").is_some() {
        let (sc, mode) = scenario_of(args);
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
    let (sc, mode) = scenario_of(args);
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
    let segment_blocks = args.int("--segment-blocks").unwrap_or(256);
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
            let (sc, mode) = scenario_of(args);
            eprintln!("generating {mode} scenario (seed {})…", sc.seed);
            Ok((ShardContext::new(&sc), scenario_meta(&sc, mode)))
        }
    }
}

/// Socket worker mode of `shard`: bind, announce the address, and answer
/// fleet range assignments against one prepared context until the
/// request budget (if any) is spent.
fn shard_listen(args: &Args, listen: &str) -> Result<(), String> {
    let timeout = Duration::from_millis(args.int("--timeout-ms").unwrap_or(10_000));
    let (ctx, expected) = shard_context_of(args)?;
    eprintln!("serving shard assignments…");
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Scripts scrape this line for the bound address.
    println!("shard worker on {addr}");
    std::io::stdout().flush().ok();
    let max_requests = args.int("--max-requests");
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
            "segment states: {} hit(s), {} miss(es), {} segment(s) held",
            s.hits, s.misses, s.entries
        );
    }
    Ok(())
}

fn cmd_shard(args: &Args) -> Result<(), String> {
    if let Some(listen) = args.get("--listen") {
        return shard_listen(args, listen);
    }
    let (start, end) = args
        .range("--range")
        .ok_or("shard needs --range A..B (or --listen ADDR)")?;
    let out = args
        .get("--out")
        .ok_or("shard needs --out FILE (\"-\" for stdout)")?;
    let shards = args.int("--shards").unwrap_or(2) as usize;
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

/// Fleet mode of `reduce`: tile the sweep into chunks (runs of whole
/// segments with `--archive`, even position ranges without) and drive the
/// `--connect` workers through the retry/backoff/re-dispatch loop, then
/// merge whatever frames the survivors produced.
fn reduce_fleet_mode(args: &Args, connect: &str) -> Result<PipelineData, String> {
    let workers: Vec<String> = connect
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    // `Need::Facts`: the sweeps arrive from the fleet, and everything else
    // the report needs of the blocks is memoized per segment.
    let Opened {
        data,
        mode,
        archive,
    } = open_dataset(args, args.get("--archive"), Need::Facts)?;
    let sc = data.scenario.clone();
    let mut cfg = FleetConfig::new(workers);
    cfg.chunks = args.int("--chunks").unwrap_or(0) as usize;
    // Chunks cut on the corpus's segment boundaries: each is answered
    // from the workers' swept segment state.
    cfg.segment_ends = archive
        .iter()
        .flat_map(|a| a.segments().iter().map(|m| m.end))
        .collect();
    cfg.timeout = Duration::from_millis(args.int("--timeout-ms").unwrap_or(10_000));
    cfg.retries = args.int("--retries").unwrap_or(4) as u32;
    cfg.backoff_ms = args.int("--backoff-ms").unwrap_or(50);
    cfg.seed = sc.seed;
    eprintln!("driving {} worker(s)…", cfg.workers.len());
    let total = data.longest_chain() as u64;
    let labeled = {
        let _span = Span::enter("reduce_fleet", "");
        reduce_fleet(
            &cfg,
            total,
            args.int("--shards").unwrap_or(2) as usize,
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

fn cmd_follow(args: &Args) -> Result<(), String> {
    let batch = args.int("--batch").unwrap_or(500) as usize;
    let reorg = args.int("--reorg-at-batch").map(|at_batch| Reorg {
        at_batch: at_batch as usize,
        depth: args.int("--reorg-depth").map_or(batch, |d| d as usize),
        seed: args.int("--reorg-seed").unwrap_or(1),
    });
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
        snapshots: args
            .int("--snapshots")
            .map_or(DEFAULT_SNAPSHOT_WINDOW, |w| w as usize),
        reorg,
        archive,
        segment_blocks: args.int("--segment-blocks"),
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
        fault_rate: args.real("--fault-rate").unwrap_or(0.0),
        truncate_rate: args.real("--truncate-rate").unwrap_or(0.0),
        flip_rate: args.real("--flip-rate").unwrap_or(0.0),
        ..ChaosProfile::clean("cli", args.int("--seed").unwrap_or(42))
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
        port: args.int("--port").unwrap_or(0) as u16,
        batch: args.int("--batch").unwrap_or(20_000) as usize,
        epoch_ms: args.int("--epoch-ms").unwrap_or(0),
        rate: args.real("--rate").unwrap_or(50_000.0),
        burst: args.real("--burst").unwrap_or(5_000.0),
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
    let wait_head = args
        .int("--wait-head")
        .map(|secs| (secs, Instant::now() + Duration::from_secs(secs)));
    if args.positionals.is_empty() && !args.has("--shutdown") && wait_head.is_none() {
        return Err("query needs at least one PATH (or --wait-head / --shutdown)".to_owned());
    }
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
    let expect = args.int("--expect-status");
    let mut out: Vec<u8> = Vec::new();
    for path in &args.positionals {
        let resp = fetch(HttpRequest::get(path))?;
        if let Some(code) = expect.filter(|code| *code != u64::from(resp.status)) {
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

    fn row(name: &str) -> &'static Command {
        COMMANDS
            .iter()
            .find(|cmd| cmd.name == name)
            .expect("subcommand row")
    }

    /// Parse `argv` (subcommand first) against its row.
    fn parse(argv: &[&str]) -> Result<Args, String> {
        let raw: Vec<String> = argv[1..].iter().map(|a| a.to_string()).collect();
        Args::parse(&raw, row(argv[0]))
    }

    /// Every read of a flag in this file asks for the kind its domain
    /// parses to: `get` of an integer flag, say, would read `None` and
    /// silently mean the default.
    #[test]
    fn every_read_asks_for_its_flags_kind() {
        let source = include_str!("reproduce.rs");
        let body = source.split("#[cfg(test)]").next().expect("the program");
        let mut checked = 0;
        for read in ["has", "get", "int", "real", "range"] {
            for call in body.split(&format!(".{read}(\"")).skip(1) {
                let flag = call.split('"').next().expect("a flag name");
                let rows: Vec<&Command> =
                    COMMANDS.iter().filter(|c| c.flag(flag).is_some()).collect();
                assert!(
                    !rows.is_empty(),
                    "{read}({flag:?}) reads a flag no row takes"
                );
                for cmd in rows {
                    let domain = cmd.flag(flag).and_then(|(_, domain)| domain);
                    let fits = matches!(
                        (read, domain),
                        ("has", None)
                            | ("get", Some(Text))
                            | ("int", Some(Int(..)))
                            | ("real", Some(Real(..)))
                            | ("range", Some(Domain::Range))
                    );
                    assert!(fits, "{read}({flag:?}) of {} {domain:?}", cmd.name);
                }
                checked += 1;
            }
        }
        assert!(checked > 40, "{checked} reads checked");
    }

    /// The argv `benchmark/src/main.rs` spawns at both of its scales
    /// (`BENCHMARK.json` freezes it) and the argv of CI's smokes, values
    /// included: a domain that refused one of them would fail every run of
    /// that workload or step.
    #[test]
    fn every_argv_the_benchmark_and_ci_pass_is_accepted() {
        let mut argvs: Vec<Vec<&str>> = Vec::new();
        for scale in [&["--small"][..], &[]] {
            for cmd in ["archive", "report"] {
                let mut argv = vec![cmd];
                argv.extend(scale);
                argv.extend(["--seed", "42", "--out", "out"]);
                argvs.push(argv);
            }
        }
        // follow_catchup at `--epoch-ms 0`, serve_refresh at its epoch sleep;
        // small, then paper.
        for (batch, epoch_ms) in [("32", "0"), ("64", "25"), ("256", "0"), ("128", "150")] {
            argvs.push(vec![
                "serve",
                "--archive",
                "corpus",
                "--batch",
                batch,
                "--epoch-ms",
                epoch_ms,
                "--port",
                "0",
                "--rate",
                "1000000",
                "--burst",
                "100000",
            ]);
        }
        argvs.extend([
            vec!["report", "--archive", "corpus", "--out", "reference.txt"],
            vec!["shard", "--listen", "127.0.0.1:0", "--archive", "corpus"],
            vec![
                "reduce",
                "--connect",
                "127.0.0.1:1,127.0.0.1:2",
                "--archive",
                "corpus",
                "--chunks",
                "8",
                "--out",
                "out",
            ],
            // CI.
            vec!["query", "--addr", "127.0.0.1:47761", "--wait-head", "120"],
            vec![
                "query",
                "--addr",
                "127.0.0.1:47761",
                "--expect-status",
                "404",
                "/exhibit/nope",
            ],
            vec![
                "serve",
                "--small",
                "--seed",
                "7",
                "--port",
                "47762",
                "--batch",
                "32",
                "--epoch-ms",
                "0",
            ],
            vec![
                "shard",
                "--listen",
                "127.0.0.1:0",
                "--archive",
                "fleet-corpus",
                "--max-requests",
                "16",
                "--timings",
            ],
            vec![
                "reduce",
                "--connect",
                "127.0.0.1:1",
                "--small",
                "--seed",
                "7",
                "--retries",
                "0",
                "--timeout-ms",
                "200",
            ],
        ]);
        for argv in &argvs {
            if let Err(e) = parse(argv) {
                panic!("{argv:?}: {e}");
            }
        }
        let serve = parse(&argvs[4]).expect("the benchmark's serve");
        assert_eq!(serve.int("--batch"), Some(32));
        assert_eq!(serve.real("--rate"), Some(1e6));
        assert_eq!(serve.get("--archive"), Some("corpus"));
    }

    /// The metavariables of flags whose values are text, checked where
    /// they are used.
    const TEXT: [&str; 5] = ["FILE", "DIR", "ADDR", "ADDRS", "HOST:PORT"];

    /// Members of `domain` at its edges, and values just past them.
    fn edges(domain: Domain) -> (Vec<String>, Vec<String>) {
        match domain {
            Int(lo, hi) => (
                vec![lo.to_string(), hi.to_string()],
                vec![(lo as i128 - 1).to_string(), (hi as i128 + 1).to_string()],
            ),
            Real(lo, hi) if hi.is_infinite() => (
                vec![lo.to_string(), "1e300".to_owned()],
                vec![
                    (lo - 1e-9).to_string(),
                    "inf".to_owned(),
                    "1e309".to_owned(),
                ],
            ),
            Real(lo, hi) => (
                vec![lo.to_string(), hi.to_string()],
                vec![(lo - 1e-9).to_string(), (hi + 1e-9).to_string()],
            ),
            Domain::Range => (
                vec!["0..0".to_owned(), format!("0..{}", u64::MAX)],
                vec![
                    "1..0".to_owned(),
                    "5..3".to_owned(),
                    format!("0..{}", u64::MAX as u128 + 1),
                    "0..".to_owned(),
                ],
            ),
            Text => (Vec::new(), Vec::new()),
        }
    }

    /// The domain walk, generated from `COMMANDS` and spawning no process:
    /// every value flag of every subcommand parses at its domain's edges
    /// and refuses, naming itself and its domain, what lies just past them
    /// and what lies outside every numeric domain; and every metavariable
    /// the usage shows without a domain is text.
    #[test]
    fn every_value_flag_refuses_what_lies_outside_its_domain() {
        let mut walked = 0;
        for cmd in COMMANDS {
            // `[--flag META]` or `[--flag META: DOMAIN]`, as printed.
            let usage = cmd.usage();
            for shown in usage.split('[').filter_map(|s| s.strip_prefix("--")) {
                let shown = shown.split(']').next().unwrap_or(shown);
                if let Some(meta) = shown.split_whitespace().nth(1) {
                    assert!(
                        meta.ends_with(':') || TEXT.contains(&meta),
                        "{}: [--{shown}] shows no domain",
                        cmd.name
                    );
                }
            }
            for item in cmd.synopsis {
                let Flag(flag, _, domain) = *item else {
                    continue;
                };
                let (inside, past) = edges(domain);
                for v in &inside {
                    let args = parse(&[cmd.name, flag, v]);
                    assert!(args.is_ok(), "{} {flag} {v}: {:?}", cmd.name, args.err());
                }
                if domain == Text {
                    continue;
                }
                let unbounded = matches!(domain, Real(_, hi) if hi.is_infinite());
                let foreign = ["-1", "NaN", "", "18446744073709551616"];
                let foreign = &foreign[..if unbounded { 3 } else { 4 }];
                for v in past
                    .iter()
                    .map(String::as_str)
                    .chain(foreign.iter().copied())
                {
                    assert_eq!(
                        parse(&[cmd.name, flag, v]).err(),
                        Some(format!("{flag} {v} is outside {domain}")),
                        "{} {flag} {v:?}",
                        cmd.name
                    );
                    walked += 1;
                }
            }
        }
        assert!(walked > 150, "{walked} refusals walked");
    }

    /// Rows that each spawned a `reproduce` process in `distributed.rs`
    /// (`archive_flag_misuse_exits_with_usage`, `a_huge_backoff_still_ends`)
    /// before their flags carried domains: the same argv, refused in
    /// process with the same shape.
    #[test]
    fn the_single_flag_misuse_rows_are_refused_by_their_domains() {
        let max = "18446744073709551615";
        for (argv, refusal) in [
            (
                &["archive", "--small", "--out", "x", "--segment-blocks", "0"][..],
                "--segment-blocks 0 is outside 1..=2^64-1",
            ),
            (
                &[
                    "follow",
                    "--small",
                    "--archive",
                    "x",
                    "--segment-blocks",
                    "0",
                ],
                "--segment-blocks 0 is outside 1..=2^64-1",
            ),
            (
                &["query", "--addr", "127.0.0.1:1", "--wait-head", max],
                "--wait-head 18446744073709551615 is outside 0..=3600",
            ),
            (
                &[
                    "reduce",
                    "--connect",
                    "127.0.0.1:1",
                    "--small",
                    "--timeout-ms",
                    "0",
                ],
                "--timeout-ms 0 is outside 1..=2^64-1",
            ),
            (
                &[
                    "shard",
                    "--listen",
                    "127.0.0.1:0",
                    "--small",
                    "--timeout-ms",
                    "0",
                ],
                "--timeout-ms 0 is outside 1..=2^64-1",
            ),
            (
                &["serve", "--small", "--seed", "7", "--burst", "0"],
                "--burst 0 is outside [1, inf)",
            ),
            (
                &["chaos", "--upstream", "127.0.0.1:1", "--fault-rate", "NaN"],
                "--fault-rate NaN is outside [0, 1]",
            ),
            (
                &["chaos", "--upstream", "127.0.0.1:1", "--flip-rate", "1.5"],
                "--flip-rate 1.5 is outside [0, 1]",
            ),
            (
                &[
                    "shard", "--range", "0..5", "--out", "x.frames", "--small", "--shards", "0",
                ],
                "--shards 0 is outside 1..=64",
            ),
            (
                &[
                    "shard", "--range", "0..5", "--out", "x.frames", "--small", "--shards", "65",
                ],
                "--shards 65 is outside 1..=64",
            ),
            (
                &[
                    "reduce",
                    "--connect",
                    "127.0.0.1:1",
                    "--small",
                    "--shards",
                    "65",
                ],
                "--shards 65 is outside 1..=64",
            ),
            (
                &["reduce", "--connect", "127.0.0.1:1", "--backoff-ms", "0"],
                "--backoff-ms 0 is outside 1..=2000",
            ),
            (
                &["reduce", "--connect", "127.0.0.1:1", "--backoff-ms", "2001"],
                "--backoff-ms 2001 is outside 1..=2000",
            ),
            (
                &["reduce", "--connect", "127.0.0.1:1", "--backoff-ms", max],
                "--backoff-ms 18446744073709551615 is outside 1..=2000",
            ),
        ] {
            assert_eq!(parse(argv).err().as_deref(), Some(refusal), "{argv:?}");
        }
    }
}
