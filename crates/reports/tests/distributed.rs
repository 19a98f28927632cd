//! The multi-process acceptance proof: N separate `reproduce shard` OS
//! processes over disjoint block ranges, reduced centrally by a
//! `reproduce reduce` process, render a report **byte-identical** to one
//! `reproduce report` process over the same scenario/seed.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use txstat_telemetry::TraceEvent;

/// How long one `reproduce` run may take before [`reproduce`] kills it.
const RUN_DEADLINE: Duration = Duration::from_secs(120);

/// Run `reproduce args` in `dir` to exit and collect its output; a run
/// still going after [`RUN_DEADLINE`] is killed and fails the test.
fn reproduce(dir: &Path, args: &[&str]) -> Output {
    reproduce_within(dir, args, RUN_DEADLINE)
}

/// [`reproduce`] with its own deadline: poll the child, and past
/// `deadline` kill it and panic with the argv, so a hung subcommand fails
/// its test instead of stalling the suite.
fn reproduce_within(dir: &Path, args: &[&str], deadline: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .current_dir(dir)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn reproduce");
    // Drain both pipes beside the poll, so a chatty child never blocks on
    // a full pipe.
    fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<Vec<u8>> {
        std::thread::spawn(move || {
            let mut bytes = Vec::new();
            let _ = pipe.read_to_end(&mut bytes);
            bytes
        })
    }
    let stdout = drain(child.stdout.take().expect("piped stdout"));
    let stderr = drain(child.stderr.take().expect("piped stderr"));
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll reproduce") {
            break status;
        }
        if started.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!(
                "`reproduce {}` still ran after {deadline:?}",
                args.join(" ")
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    Output {
        status,
        stdout: stdout.join().expect("stdout reader"),
        stderr: stderr.join().expect("stderr reader"),
    }
}

/// A long-running `reproduce` child (socket worker or chaos proxy) whose
/// first stdout line announces its bound address. Killed on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(dir: &Path, args: &[&str], banner: &str) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .current_dir(dir)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn reproduce server");
    let stdout = child.stdout.take().expect("server stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read server banner");
    assert!(
        line.contains(banner),
        "expected banner {banner:?}, got: {line:?}"
    );
    // "shard worker on ADDR" / "chaos proxy on ADDR -> UP": token 3.
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("no address in banner {line:?}"))
        .to_string();
    Server { child, addr }
}

fn spawn_worker(dir: &Path, extra: &[&str]) -> Server {
    let mut args = vec![
        "shard",
        "--small",
        "--seed",
        "7",
        "--listen",
        "127.0.0.1:0",
        "--timeout-ms",
        "2000",
    ];
    args.extend_from_slice(extra);
    spawn_server(dir, &args, "shard worker on")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("txstat-distributed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

/// The value of the unlabelled series `name` in the Prometheus dump `file`.
fn metric(dir: &Path, file: &str, name: &str) -> u64 {
    let metrics = String::from_utf8(read(dir, file)).expect("metrics utf8");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {name} in {file}:\n{metrics}"))
}

/// Every `# TYPE` family of an exposition is named, in backticks, in the
/// telemetry README's family table.
fn assert_documented(exposition: &str) {
    let readme = include_str!("../../telemetry/README.md");
    for family in exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
    {
        assert!(
            readme.contains(&format!("`{family}`")),
            "{family} is not in the README table"
        );
    }
}

#[test]
fn three_shard_processes_reduce_to_the_identical_report() {
    let dir = tempdir("reduce");

    let direct = reproduce(
        &dir,
        &[
            "report",
            "--small",
            "--seed",
            "7",
            "--out",
            "direct.txt",
            "--metrics-out",
            "direct.prom",
        ],
    );
    assert!(
        direct.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&direct.stderr)
    );
    // `--metrics-out` is honoured on the generating arm too (it used to be
    // accepted and silently ignored without `--archive`).
    let metrics = String::from_utf8(read(&dir, "direct.prom")).expect("metrics utf8");
    assert!(
        metrics.contains("txstat_pipeline_generate_total 1"),
        "{metrics}"
    );
    // The eager-zero contract, byte for byte: every pipeline, archive and
    // fleet family is exposed (at zero where nothing moved it) by a run
    // that never opens an archive or a socket.
    assert_eq!(
        metrics,
        include_str!("golden/report-small-seed7.prom"),
        "`report --small --seed 7 --metrics-out` differs from the pinned exposition"
    );
    // And the other way round: the README table's pipeline, archive and
    // fleet rows are exactly the families that run exposes, so a row left
    // behind by a deleted family fails here.
    let readme = include_str!("../../telemetry/README.md");
    let documented: BTreeSet<&str> = readme
        .lines()
        .filter_map(|l| l.strip_prefix("| ")?.split(" | ").next())
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .filter(|name| {
            ["txstat_pipeline_", "txstat_archive_", "txstat_fleet_"]
                .iter()
                .any(|layer| name.starts_with(layer))
        })
        .collect();
    let exposed: BTreeSet<&str> = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .collect();
    assert_eq!(
        documented, exposed,
        "README family table vs the pinned exposition"
    );

    // Three disjoint block-position ranges; the last one over-shoots every
    // chain head and clamps.
    for (range, out) in [
        ("0..250", "a.frames"),
        ("250..400", "b.frames"),
        ("400..99999999", "c.frames"),
    ] {
        let shard = reproduce(
            &dir,
            &[
                "shard", "--range", range, "--small", "--seed", "7", "--out", out,
            ],
        );
        assert!(
            shard.status.success(),
            "shard {range} failed: {}",
            String::from_utf8_lossy(&shard.stderr)
        );
    }

    let reduce = reproduce(
        &dir,
        &[
            "reduce",
            "a.frames",
            "b.frames",
            "c.frames",
            "--out",
            "reduced.txt",
            "--metrics-out",
            "reduced.prom",
        ],
    );
    assert!(
        reduce.status.success(),
        "reduce failed: {}",
        String::from_utf8_lossy(&reduce.stderr)
    );
    // Every README row `ReduceMetrics` declares is exported by a file-mode
    // reduction.
    let reduced = String::from_utf8(read(&dir, "reduced.prom")).expect("metrics utf8");
    let rows: Vec<&str> = readme
        .lines()
        .filter(|l| l.starts_with("| `txstat_") && l.contains("| `ReduceMetrics`"))
        .filter_map(|l| l.split('`').nth(1))
        .collect();
    assert_eq!(rows.len(), 4, "ReduceMetrics' README rows");
    for family in rows {
        assert!(
            reduced.contains(&format!("# TYPE {family} ")),
            "{family} not in:\n{reduced}"
        );
    }

    assert_eq!(
        read(&dir, "direct.txt"),
        read(&dir, "reduced.txt"),
        "reduced report differs from the single-process report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The incremental path agrees too: `follow` folds the chains in batch by
/// batch and its head-of-chain report must be byte-identical to the
/// one-shot `report` — in 7 batches of 400 and in 85 of 32.
#[test]
fn follow_reaches_the_identical_report_at_head() {
    let dir = tempdir("follow");

    let direct = reproduce(
        &dir,
        &["report", "--small", "--seed", "7", "--out", "direct.txt"],
    );
    assert!(
        direct.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&direct.stderr)
    );

    for (batch, progress) in [("400", "batch    2"), ("32", "batch   85")] {
        let follow = reproduce(
            &dir,
            &[
                "follow",
                "--small",
                "--seed",
                "7",
                "--batch",
                batch,
                "--out",
                "followed.txt",
            ],
        );
        assert!(
            follow.status.success(),
            "follow failed: {}",
            String::from_utf8_lossy(&follow.stderr)
        );
        let stderr = String::from_utf8_lossy(&follow.stderr);
        assert!(
            stderr.contains(progress),
            "expected {progress:?}, stderr: {stderr}"
        );
        assert_eq!(
            read(&dir, "direct.txt"),
            read(&dir, "followed.txt"),
            "follow --batch {batch}: head report differs from the single-process report"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The socket fleet: three real worker processes, one rigged to die after
/// its first assignment (`--max-requests 1`). The reducer's retry budget
/// burns out against the corpse, re-dispatches its ranges to the
/// survivors, and the report is still byte-identical to the one-shot run.
#[test]
fn socket_fleet_survives_a_worker_killed_mid_reduction() {
    let dir = tempdir("fleet");

    let direct = reproduce(
        &dir,
        &["report", "--small", "--seed", "7", "--out", "direct.txt"],
    );
    assert!(
        direct.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&direct.stderr)
    );

    let w1 = spawn_worker(&dir, &[]);
    let w2 = spawn_worker(&dir, &[]);
    let w3 = spawn_worker(&dir, &["--max-requests", "1"]);
    let connect = format!("{},{},{}", w1.addr, w2.addr, w3.addr);
    let reduce = reproduce(
        &dir,
        &[
            "reduce",
            "--small",
            "--seed",
            "7",
            "--connect",
            &connect,
            "--chunks",
            "6",
            "--timeout-ms",
            "4000",
            "--retries",
            "2",
            "--backoff-ms",
            "5",
            "--metrics-out",
            "fleet-metrics.txt",
            "--out",
            "fleet.txt",
        ],
    );
    assert!(
        reduce.status.success(),
        "fleet reduce failed: {}",
        String::from_utf8_lossy(&reduce.stderr)
    );
    assert_eq!(
        read(&dir, "direct.txt"),
        read(&dir, "fleet.txt"),
        "fleet report differs from the single-process report"
    );
    let metrics = String::from_utf8(read(&dir, "fleet-metrics.txt")).expect("metrics utf8");
    for family in [
        "txstat_fleet_requests_total",
        "txstat_fleet_redispatch_total",
        "txstat_fleet_retries_total",
        "txstat_fleet_workers_failed_total",
    ] {
        assert!(
            metrics.contains(&format!("# TYPE {family}")),
            "no {family} in:\n{metrics}"
        );
    }
    assert_documented(&metrics);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same fleet driven through a `reproduce chaos` proxy process that
/// resets/truncates/bit-flips 9% of connections: damaged exchanges are
/// retried (bit-flips are caught by the wire content hashes) and the
/// report stays byte-identical.
#[test]
fn fleet_reduce_through_a_chaos_proxy_is_byte_identical() {
    let dir = tempdir("chaosfleet");

    let direct = reproduce(
        &dir,
        &["report", "--small", "--seed", "7", "--out", "direct.txt"],
    );
    assert!(
        direct.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&direct.stderr)
    );

    let w1 = spawn_worker(&dir, &[]);
    let w2 = spawn_worker(&dir, &[]);
    let proxy = spawn_server(
        &dir,
        &[
            "chaos",
            "--upstream",
            &w1.addr,
            "--fault-rate",
            "0.05",
            "--truncate-rate",
            "0.02",
            "--flip-rate",
            "0.02",
            "--seed",
            "11",
        ],
        "chaos proxy on",
    );
    let connect = format!("{},{}", proxy.addr, w2.addr);
    let reduce = reproduce(
        &dir,
        &[
            "reduce",
            "--small",
            "--seed",
            "7",
            "--connect",
            &connect,
            "--chunks",
            "6",
            "--timeout-ms",
            "4000",
            "--retries",
            "4",
            "--backoff-ms",
            "5",
            "--out",
            "chaos.txt",
        ],
    );
    assert!(
        reduce.status.success(),
        "chaos-fleet reduce failed: {}",
        String::from_utf8_lossy(&reduce.stderr)
    );
    assert_eq!(
        read(&dir, "direct.txt"),
        read(&dir, "chaos.txt"),
        "chaos-fleet report differs from the single-process report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fleet whose only worker never answers exhausts its budgets and fails
/// with provenance: the error names the dead worker's address.
#[test]
fn fleet_exhaustion_names_the_dead_worker() {
    let dir = tempdir("deadfleet");
    // Bind and immediately drop a listener: the port is now (almost
    // certainly) refusing connections.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let out = reproduce(
        &dir,
        &[
            "reduce",
            "--small",
            "--seed",
            "7",
            "--connect",
            &dead,
            "--timeout-ms",
            "500",
            "--retries",
            "1",
            "--backoff-ms",
            "1",
        ],
    );
    assert!(!out.status.success(), "a dead fleet must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fleet exhausted"), "stderr: {stderr}");
    assert!(
        stderr.contains(&dead),
        "error does not name the dead worker: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed run keeps its telemetry: the run envelope dumps the metrics,
/// flushes the trace and prints the timings table on `Err` too (it used to
/// leave a 0-byte trace and no metrics file — for the very run an operator
/// needs them for).
#[test]
fn a_failed_run_keeps_its_telemetry() {
    let dir = tempdir("failtelemetry");
    let out = reproduce(
        &dir,
        &[
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
            "--trace-out",
            "t.ndjson",
            "--metrics-out",
            "m.prom",
            "--timings",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(2),
        "a dead fleet is still a failure"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: reproduce"), "stderr: {stderr}");
    // The timings table: a `generate` row with its per-chain sub-rows.
    assert!(
        stderr.lines().any(|l| l.starts_with("generate ")),
        "no timings table: {stderr}"
    );
    let metrics = String::from_utf8(read(&dir, "m.prom")).expect("metrics utf8");
    assert!(
        metrics.contains("# TYPE txstat_fleet_requests_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE txstat_fleet_workers_failed_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("txstat_pipeline_generate_total 1"),
        "{metrics}"
    );
    let trace = String::from_utf8(read(&dir, "t.ndjson")).expect("trace utf8");
    assert!(
        trace.lines().any(|l| l.contains("\"stage\":\"generate\"")),
        "trace: {trace}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The largest `--backoff-ms`, the fleet's backoff cap, still ends fast
/// against a dead fleet: one retry sleeps under twice the cap. (Values
/// outside `1..=2000` are refused in process by `reproduce`'s domain walk;
/// the library path, which still raises and caps, is pinned by
/// `fleet::tests::backoff_stays_under_twice_the_cap`.)
#[test]
fn a_huge_backoff_still_ends() {
    let dir = tempdir("hugebackoff");
    let args = [
        "reduce",
        "--connect",
        "127.0.0.1:1",
        "--small",
        "--retries",
        "1",
        "--backoff-ms",
        "2000",
    ];
    let out = reproduce_within(&dir, &args, Duration::from_secs(15));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a dead fleet is still a failure: {stderr}"
    );
    assert!(stderr.contains("fleet exhausted"), "{stderr}");
    assert!(!stderr.contains("is outside"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stage table of the telemetry README: every name in backticks in the
/// first cell of a row of its "Stage vocabulary" section.
fn documented_stages() -> BTreeSet<&'static str> {
    let readme = include_str!("../../telemetry/README.md");
    let section = readme
        .split("## Stage vocabulary")
        .nth(1)
        .expect("a stage vocabulary");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| ")?.split(" | ").next())
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .collect()
}

/// Every traced run is one tree whose self times sum to its root: exactly
/// one `parent` 0 event, named after the subcommand and written last;
/// every other parent is an event of the file; the self times on the
/// root's thread add up to the root's wall time (within 1 %); and every
/// stage is a row of the README's stage table, which the runs together
/// cover. The `--timings` ledger ends with the root's two rows.
#[test]
fn every_traced_run_is_one_rooted_tree_whose_self_times_sum_to_the_root() {
    let dir = tempdir("rooted");
    let run = |args: &[&str]| {
        let out = reproduce(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{args:?} failed: {stderr}");
        stderr
    };
    let timings = run(&[
        "report",
        "--small",
        "--seed",
        "7",
        "--trace-out",
        "report.ndjson",
        "--timings",
        "--out",
        "direct.txt",
    ]);
    run(&[
        "report",
        "--small",
        "--seed",
        "7",
        "--crawl",
        "--trace-out",
        "crawl.ndjson",
        "--out",
        "crawl.txt",
    ]);
    run(&[
        "archive",
        "--small",
        "--seed",
        "7",
        "--out",
        "corpus",
        "--trace-out",
        "archive.ndjson",
    ]);
    for trace in ["cold.ndjson", "warm.ndjson"] {
        run(&[
            "report",
            "--archive",
            "corpus",
            "--trace-out",
            trace,
            "--out",
            "a.txt",
        ]);
    }
    run(&[
        "shard",
        "--small",
        "--seed",
        "7",
        "--range",
        "0..300",
        "--out",
        "a.frames",
        "--trace-out",
        "shard.ndjson",
    ]);
    run(&[
        "shard",
        "--small",
        "--seed",
        "7",
        "--range",
        "300..99999999",
        "--out",
        "b.frames",
    ]);
    run(&[
        "reduce",
        "a.frames",
        "b.frames",
        "--trace-out",
        "reduce.ndjson",
        "--out",
        "r.txt",
    ]);
    let mut worker = spawn_server(
        &dir,
        &[
            "shard",
            "--listen",
            "127.0.0.1:0",
            "--timeout-ms",
            "2000",
            "--archive",
            "corpus",
            "--max-requests",
            "2",
            "--trace-out",
            "worker.ndjson",
        ],
        "shard worker on",
    );
    run(&[
        "reduce",
        "--connect",
        &worker.addr,
        "--archive",
        "corpus",
        "--chunks",
        "2",
        "--trace-out",
        "fleet.ndjson",
        "--out",
        "f.txt",
    ]);
    assert!(
        worker.child.wait().expect("worker exit").success(),
        "the worker exits cleanly"
    );
    run(&[
        "follow",
        "--small",
        "--seed",
        "7",
        "--batch",
        "400",
        "--trace-out",
        "follow.ndjson",
        "--out",
        "follow.txt",
    ]);
    run(&[
        "serve",
        "--small",
        "--seed",
        "7",
        "--batch",
        "400",
        "--load",
        "--trace-out",
        "serve.ndjson",
    ]);

    let mut seen = BTreeSet::new();
    // With the count of `facts` spans: one per dataset that resolves its
    // block facts on first use (a fleet reducer's before it drives the
    // fleet), none where they are already known (crawl) or never needed.
    for (file, root_stage, facts) in [
        ("report.ndjson", "report", 1),
        ("crawl.ndjson", "report", 0),
        ("archive.ndjson", "archive", 0),
        ("cold.ndjson", "report", 1),
        ("warm.ndjson", "report", 1),
        ("shard.ndjson", "shard", 0),
        ("reduce.ndjson", "reduce", 1),
        ("worker.ndjson", "shard", 0),
        ("fleet.ndjson", "reduce", 1),
        ("follow.ndjson", "follow", 1),
        ("serve.ndjson", "serve", 1),
    ] {
        let text = String::from_utf8(read(&dir, file)).expect("trace utf8");
        let events: Vec<TraceEvent> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("a trace event"))
            .collect();
        let root = events.last().unwrap_or_else(|| panic!("{file} is empty"));
        assert_eq!(
            (root.stage.as_str(), root.parent),
            (root_stage, 0),
            "{file}: last event"
        );
        assert_eq!(
            events.iter().filter(|e| e.parent == 0).count(),
            1,
            "{file}: one root"
        );
        let ids: BTreeSet<u64> = events.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), events.len(), "{file}: ids are unique");
        for e in &events[..events.len() - 1] {
            assert!(ids.contains(&e.parent), "{file}: orphan {e:?}");
        }
        let on_root: u64 = events
            .iter()
            .filter(|e| e.thread == root.thread)
            .map(|e| e.self_us)
            .sum();
        assert!(
            on_root.abs_diff(root.dur_us) * 100 <= root.dur_us,
            "{file}: root-thread self times sum to {on_root} µs of {} µs",
            root.dur_us
        );
        seen.extend(events.iter().map(|e| e.stage.clone()));
        let facts_spans = events.iter().filter(|e| e.stage == "facts").count();
        assert_eq!(facts_spans, facts, "{file}: facts spans");
        if file == "worker.ndjson" {
            // The archived worker's state merge is its own stage, once per
            // assignment (`--chunks 2`), not root self time.
            let merges = events.iter().filter(|e| e.stage == "shard_merge").count();
            assert_eq!(merges, 2, "{file}: shard_merge spans");
        }
        if file == "report.ndjson" {
            assert!(
                timings.lines().any(|l| l.starts_with("facts ")),
                "no facts row: {timings}"
            );
            let ms = |us: u64| format!("{:.3}", us as f64 / 1_000.0);
            let tail: Vec<Vec<&str>> = timings
                .lines()
                .rev()
                .take(2)
                .map(|l| l.split_whitespace().take(3).collect())
                .collect();
            let (unattributed, wall) = (ms(root.self_us), ms(root.dur_us));
            assert_eq!(
                tail,
                [
                    vec!["report", "1", wall.as_str()],
                    vec!["unattributed", "1", &unattributed]
                ],
                "{timings}"
            );
        }
    }
    let seen: BTreeSet<&str> = seen.iter().map(String::as_str).collect();
    assert_eq!(
        seen,
        documented_stages(),
        "the traced stages vs the README stage table"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end reorg recovery: `follow --reorg-at-batch` rewrites a chain
/// suffix mid-follow; the binary itself verifies the recovered report is
/// byte-identical to a from-scratch sweep and fails otherwise, so success
/// plus the verification line is the acceptance.
#[test]
fn follow_recovers_from_an_injected_reorg() {
    let dir = tempdir("reorg");
    let out = reproduce(
        &dir,
        &[
            "follow",
            "--small",
            "--seed",
            "7",
            "--batch",
            "400",
            "--reorg-at-batch",
            "3",
            "--reorg-depth",
            "500",
            "--reorg-seed",
            "11",
            "--metrics-out",
            "reorg-metrics.txt",
            "--out",
            "reorged.txt",
        ],
    );
    assert!(
        out.status.success(),
        "follow failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("reorg recovery verified"),
        "stderr: {stderr}"
    );
    // The follower `serve` runs exports here too: its own families beside
    // the rollback ones (Tezos: 1 200 blocks followed, then 2 312 re-swept
    // from the rollback to position 400, which XRP's 146 never reach).
    let metrics = String::from_utf8(read(&dir, "reorg-metrics.txt")).expect("metrics utf8");
    for line in [
        "txstat_follow_rollbacks_total{chain=\"tezos\"} 1",
        "txstat_follow_rollbacks_total{chain=\"eos\"} 0",
        "txstat_ingest_blocks_observed_total{chain=\"tezos\"} 3512",
        "txstat_ingest_blocks_observed_total{chain=\"xrp\"} 146",
        "# TYPE txstat_reduce_follow_merges_total counter",
        "# TYPE txstat_epoch_published_total counter",
    ] {
        assert!(
            metrics.contains(line),
            "no {line:?} in the follow metrics:\n{metrics}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A usage error that only the chain lengths can reveal is still found
/// before the archive directory is created or touched (it used to surface
/// after every segment was appended and before the only index seal,
/// leaving a corpus nothing could open).
#[test]
fn follow_rejects_an_unreachable_reorg_batch_before_touching_the_archive() {
    let dir = tempdir("reorgusage");
    let out = reproduce(
        &dir,
        &[
            "follow",
            "--small",
            "--seed",
            "7",
            "--batch",
            "400",
            "--archive",
            "corpus",
            "--reorg-at-batch",
            "99",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("the head is reached after 7 batches"),
        "stderr: {stderr}"
    );
    assert!(
        !dir.join("corpus").exists(),
        "a refused run left an archive directory behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Values that used to run as something else, or never return, are
/// refused with their domain and the usage before anything starts (no
/// scenario generated, nothing bound, no archive directory created):
/// `--reorg-depth 0` would rewrite no position and still report a verified
/// recovery; `--reorg-at-batch 0` injected the reorg at the head instead;
/// `--snapshots 0` ran as a window of 1; `--max-requests 0` announced a
/// worker that could never serve; and an `--epoch-ms` past any sane sleep
/// slept before the second epoch for ever.
#[test]
fn values_outside_their_domain_are_refused_before_anything_starts() {
    let dir = tempdir("domains");
    for (args, refusal) in [
        (
            &[
                "follow",
                "--small",
                "--seed",
                "7",
                "--batch",
                "64",
                "--archive",
                "corpus",
                "--reorg-at-batch",
                "2",
                "--reorg-depth",
                "0",
            ][..],
            "--reorg-depth 0 is outside 1..=2^64-1",
        ),
        (
            &[
                "follow",
                "--small",
                "--seed",
                "7",
                "--batch",
                "64",
                "--archive",
                "corpus",
                "--reorg-at-batch",
                "0",
            ],
            "--reorg-at-batch 0 is outside 1..=2^64-1",
        ),
        (
            &[
                "follow",
                "--small",
                "--seed",
                "7",
                "--batch",
                "64",
                "--archive",
                "corpus",
                "--snapshots",
                "0",
            ],
            "--snapshots 0 is outside 1..=2^64-1",
        ),
        (
            &[
                "shard",
                "--small",
                "--seed",
                "7",
                "--listen",
                "127.0.0.1:0",
                "--max-requests",
                "0",
            ],
            "--max-requests 0 is outside 1..=2^64-1",
        ),
        (
            &[
                "serve",
                "--small",
                "--seed",
                "7",
                "--batch",
                "400",
                "--epoch-ms",
                "18446744073709551615",
                "--load",
            ],
            "--epoch-ms 18446744073709551615 is outside 0..=3600000",
        ),
    ] {
        let out = reproduce_within(&dir, args, Duration::from_secs(5));
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(refusal) && stderr.contains("usage: reproduce"),
            "{args:?}: {stderr}"
        );
        for started in ["generating", "shard worker on", "serving on"] {
            assert!(
                !stdout.contains(started) && !stderr.contains(started),
                "{args:?} started: {stdout}{stderr}"
            );
        }
        assert!(!dir.join("corpus").exists(), "{args:?} created an archive");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reduce_refuses_incomplete_coverage() {
    let dir = tempdir("gap");
    let shard = reproduce(
        &dir,
        &[
            "shard",
            "--range",
            "10..40",
            "--small",
            "--seed",
            "7",
            "--out",
            "mid.frames",
        ],
    );
    assert!(shard.status.success());
    let reduce = reproduce(&dir, &["reduce", "mid.frames", "--out", "never.txt"]);
    assert!(!reduce.status.success(), "a head-less reduction must fail");
    let stderr = String::from_utf8_lossy(&reduce.stderr);
    assert!(
        stderr.contains("uncovered block ranges"),
        "stderr: {stderr}"
    );
    assert!(
        !dir.join("never.txt").exists(),
        "no report may be written on gap"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The archive cold-start acceptance: seal the corpus once, then a socket
/// fleet whose workers decode only their assignments' segments (zero
/// chain-generation passes, pinned by the worker's own metrics dump)
/// reduces to the byte-identical one-shot report.
#[test]
fn archived_cold_start_fleet_matches_the_one_shot_report() {
    let dir = tempdir("archfleet");

    let direct = reproduce(
        &dir,
        &["report", "--small", "--seed", "7", "--out", "direct.txt"],
    );
    assert!(
        direct.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&direct.stderr)
    );
    let sealed = reproduce(
        &dir,
        &[
            "archive",
            "--small",
            "--seed",
            "7",
            "--out",
            "corpus",
            "--segment-blocks",
            "100",
        ],
    );
    assert!(
        sealed.status.success(),
        "archive failed: {}",
        String::from_utf8_lossy(&sealed.stderr)
    );

    // Two cold-started workers serve a fleet reduction straight from the
    // mapped segments; the reducer's own dataset also comes from the
    // corpus (no scenario flags anywhere).
    let w1 = spawn_server(
        &dir,
        &[
            "shard",
            "--listen",
            "127.0.0.1:0",
            "--timeout-ms",
            "2000",
            "--archive",
            "corpus",
        ],
        "shard worker on",
    );
    let w2 = spawn_server(
        &dir,
        &[
            "shard",
            "--listen",
            "127.0.0.1:0",
            "--timeout-ms",
            "2000",
            "--archive",
            "corpus",
        ],
        "shard worker on",
    );
    let connect = format!("{},{}", w1.addr, w2.addr);
    let reduce = reproduce(
        &dir,
        &[
            "reduce",
            "--connect",
            &connect,
            "--archive",
            "corpus",
            "--chunks",
            "4",
            "--timeout-ms",
            "4000",
            "--retries",
            "2",
            "--backoff-ms",
            "5",
            "--out",
            "fleet.txt",
            "--metrics-out",
            "reduce-cold.prom",
        ],
    );
    assert!(
        reduce.status.success(),
        "cold-start fleet reduce failed: {}",
        String::from_utf8_lossy(&reduce.stderr)
    );
    let stderr = String::from_utf8_lossy(&reduce.stderr);
    assert!(
        stderr.contains("cold-started reducer dataset"),
        "stderr: {stderr}"
    );
    assert_eq!(
        read(&dir, "direct.txt"),
        read(&dir, "fleet.txt"),
        "cold-started fleet report differs from the single-process report"
    );
    // The first reducer over a fresh seal finds no memo: it summarizes
    // every one of the 28 segments from its bytes and leaves the file.
    let counter = |file: &str, name: &str| metric(&dir, file, name);
    assert_eq!(
        counter("reduce-cold.prom", "txstat_archive_memo_hits_total"),
        0
    );
    assert_eq!(
        counter("reduce-cold.prom", "txstat_archive_memo_misses_total"),
        28
    );
    assert_eq!(
        counter("reduce-cold.prom", "txstat_archive_segments_replayed_total"),
        28
    );
    assert!(
        dir.join("corpus/archive.memo").is_file(),
        "the first reducer heals the memo"
    );

    // A worker whose request budget equals two reductions' chunks exits
    // cleanly and dumps its metrics: zero generation passes, and every
    // segment decoded once — by the first reduction, none by the second.
    let mut w3 = spawn_server(
        &dir,
        &[
            "shard",
            "--listen",
            "127.0.0.1:0",
            "--timeout-ms",
            "2000",
            "--archive",
            "corpus",
            "--max-requests",
            "4",
            "--metrics-out",
            "worker-metrics.txt",
        ],
        "shard worker on",
    );
    let reduce2 = reproduce(
        &dir,
        &[
            "reduce",
            "--connect",
            &w3.addr,
            "--archive",
            "corpus",
            "--chunks",
            "2",
            "--timeout-ms",
            "4000",
            "--retries",
            "2",
            "--backoff-ms",
            "5",
            "--out",
            "fleet2.txt",
            "--metrics-out",
            "reduce-warm.prom",
            "--trace-out",
            "reduce-warm.ndjson",
        ],
    );
    assert!(
        reduce2.status.success(),
        "single-worker cold-start reduce failed: {}",
        String::from_utf8_lossy(&reduce2.stderr)
    );
    assert_eq!(read(&dir, "direct.txt"), read(&dir, "fleet2.txt"));
    // The second reducer is block-free: every summary comes from the memo,
    // no segment is decoded, and Figure 2 is never recomputed.
    assert_eq!(
        counter("reduce-warm.prom", "txstat_archive_memo_hits_total"),
        28
    );
    assert_eq!(
        counter("reduce-warm.prom", "txstat_archive_memo_misses_total"),
        0
    );
    assert_eq!(
        counter("reduce-warm.prom", "txstat_archive_segments_replayed_total"),
        0
    );
    let trace = String::from_utf8(read(&dir, "reduce-warm.ndjson")).expect("trace utf8");
    assert!(
        trace.contains("\"stage\":\"memo\""),
        "no memo span:\n{trace}"
    );
    let fleet_spans = trace
        .lines()
        .filter(|l| l.contains("\"stage\":\"reduce_fleet\""))
        .count();
    assert_eq!(
        fleet_spans, 1,
        "one reduce_fleet span per fleet reduction:\n{trace}"
    );
    assert!(
        !trace.contains("fig2_storage"),
        "a memo-hit reducer recomputed Figure 2"
    );
    let again = reproduce(
        &dir,
        &[
            "reduce",
            "--connect",
            &w3.addr,
            "--archive",
            "corpus",
            "--chunks",
            "2",
            "--timeout-ms",
            "4000",
            "--out",
            "fleet3.txt",
        ],
    );
    assert!(
        again.status.success(),
        "repeat reduce failed: {}",
        String::from_utf8_lossy(&again.stderr)
    );
    assert_eq!(read(&dir, "direct.txt"), read(&dir, "fleet3.txt"));
    let status = w3.child.wait().expect("worker exit");
    assert!(status.success(), "budgeted worker should exit cleanly");
    let metrics = String::from_utf8(read(&dir, "worker-metrics.txt")).expect("metrics utf8");
    assert!(
        metrics.contains("txstat_pipeline_generate_total 0"),
        "cold-started worker generated a chain:\n{metrics}"
    );
    // Both chunks are runs of whole segments: the first reduction sweeps
    // each of the 28 into its state, the second merges the states.
    for family in [
        "txstat_archive_segments_replayed_total",
        "txstat_archive_cache_misses_total",
        "txstat_archive_cache_hits_total",
    ] {
        assert!(
            metrics.contains(&format!("# TYPE {family}")),
            "no {family} in:\n{metrics}"
        );
        assert_eq!(counter("worker-metrics.txt", family), 28, "{family}");
    }
    assert_documented(&metrics);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every chunk of an archived fleet has a home worker: killed after the
/// first reduce, a home's chunks go to the survivor, which sweeps each of
/// its segments once over the two reduces, and both reports are
/// byte-identical to `report --archive`.
#[test]
fn a_killed_home_leaves_its_chunks_to_the_survivor() {
    let dir = tempdir("homes");
    let run = |args: &[&str]| {
        let out = reproduce(&dir, args);
        assert!(
            out.status.success(),
            "`reproduce {}` failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(&[
        "archive",
        "--small",
        "--seed",
        "7",
        "--out",
        "corpus",
        "--segment-blocks",
        "100",
    ]);
    run(&["report", "--archive", "corpus", "--out", "archived.txt"]);
    let worker = |extra: &[&str]| {
        let mut args = vec![
            "shard",
            "--listen",
            "127.0.0.1:0",
            "--timeout-ms",
            "2000",
            "--archive",
            "corpus",
        ];
        args.extend_from_slice(extra);
        spawn_server(&dir, &args, "shard worker on")
    };
    // Four chunks over two workers: two homes each. The survivor's budget
    // is its two homes of the first reduce and all four of the second, so
    // it exits after them and dumps its metrics.
    let doomed = worker(&[]);
    let mut survivor = worker(&["--max-requests", "6", "--metrics-out", "survivor.prom"]);
    let connect = format!("{},{}", doomed.addr, survivor.addr);
    let reduce = |out: &str| {
        run(&[
            "reduce",
            "--connect",
            &connect,
            "--archive",
            "corpus",
            "--chunks",
            "4",
            "--timeout-ms",
            "4000",
            "--retries",
            "1",
            "--backoff-ms",
            "5",
            "--out",
            out,
        ]);
        assert_eq!(read(&dir, "archived.txt"), read(&dir, out), "{out}");
    };
    reduce("fleet-1.txt");
    drop(doomed);
    reduce("fleet-2.txt");
    let status = survivor.child.wait().expect("survivor exit");
    assert!(status.success(), "the survivor should spend its budget");
    // 28 segments: the survivor swept its own homes in the first reduce
    // and the dead home's in the second, each segment once, and merged its
    // own homes' states again in the second.
    let counter = |name: &str| metric(&dir, "survivor.prom", name);
    assert_eq!(counter("txstat_fleet_served_total"), 6);
    assert_eq!(counter("txstat_archive_cache_misses_total"), 28);
    let hits = counter("txstat_archive_cache_hits_total");
    assert!(0 < hits && hits < 28, "{hits} hits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A memo that cannot be written costs a warning, never the report: a
/// non-empty directory squatting on `archive.memo` fails both the read and
/// the rename (root ignores permission bits, so chmod would prove nothing).
#[test]
fn unwritable_memo_is_a_warning_not_a_failure() {
    let dir = tempdir("memowarn");
    let direct = reproduce(
        &dir,
        &["report", "--small", "--seed", "7", "--out", "direct.txt"],
    );
    assert!(
        direct.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&direct.stderr)
    );
    let sealed = reproduce(
        &dir,
        &["archive", "--small", "--seed", "7", "--out", "corpus"],
    );
    assert!(
        sealed.status.success(),
        "archive failed: {}",
        String::from_utf8_lossy(&sealed.stderr)
    );
    std::fs::create_dir(dir.join("corpus/archive.memo")).expect("squat on the memo name");
    std::fs::write(dir.join("corpus/archive.memo/occupied"), b"x").expect("occupy");

    let cold = reproduce(
        &dir,
        &[
            "report",
            "--archive",
            "corpus",
            "--out",
            "cold.txt",
            "--metrics-out",
            "cold.prom",
        ],
    );
    assert!(
        cold.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let stderr = String::from_utf8_lossy(&cold.stderr);
    assert!(
        stderr.contains("warning: archive memo not written"),
        "stderr: {stderr}"
    );
    assert_eq!(read(&dir, "direct.txt"), read(&dir, "cold.txt"));
    let metrics = String::from_utf8(read(&dir, "cold.prom")).expect("metrics utf8");
    assert!(
        metrics.contains("txstat_archive_memo_write_failures_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("txstat_archive_memo_rejected_total{reason=\"io\"} 1"),
        "{metrics}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// File-mode shards cold-started from the corpus produce frames that
/// reduce to the byte-identical report, still with zero generation.
#[test]
fn archived_file_shards_reduce_to_the_identical_report() {
    let dir = tempdir("archshard");

    let direct = reproduce(
        &dir,
        &["report", "--small", "--seed", "7", "--out", "direct.txt"],
    );
    assert!(
        direct.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&direct.stderr)
    );
    let sealed = reproduce(
        &dir,
        &[
            "archive",
            "--small",
            "--seed",
            "7",
            "--out",
            "corpus",
            "--segment-blocks",
            "128",
        ],
    );
    assert!(
        sealed.status.success(),
        "archive failed: {}",
        String::from_utf8_lossy(&sealed.stderr)
    );

    // 22 segments of 128 positions: a one-shot shard decodes only the
    // segments covering its range, each once. It sweeps the segments its
    // range covers whole into segment states (one miss each) and the one
    // it cuts, [256, 384), as a ragged edge that is no lookup at all.
    for (range, out, metrics, trace, covering, whole) in [
        ("0..300", "a.frames", "a-metrics.txt", "a.ndjson", 3, 2),
        (
            "300..99999999",
            "b.frames",
            "b-metrics.txt",
            "b.ndjson",
            20,
            19,
        ),
    ] {
        let shard = reproduce(
            &dir,
            &[
                "shard",
                "--range",
                range,
                "--archive",
                "corpus",
                "--out",
                out,
                "--metrics-out",
                metrics,
                "--trace-out",
                trace,
            ],
        );
        assert!(
            shard.status.success(),
            "shard {range} failed: {}",
            String::from_utf8_lossy(&shard.stderr)
        );
        let m = String::from_utf8(read(&dir, metrics)).expect("metrics utf8");
        assert!(
            m.contains("txstat_pipeline_generate_total 0"),
            "shard {range} generated:\n{m}"
        );
        for (name, want) in [
            ("txstat_archive_segments_replayed_total", covering),
            ("txstat_archive_cache_misses_total", whole),
            ("txstat_archive_cache_hits_total", 0),
        ] {
            assert_eq!(metric(&dir, metrics, name), want, "shard {range}: {name}");
        }
        // One `wire_encode` span per chain frame.
        let trace = String::from_utf8(read(&dir, trace)).expect("trace utf8");
        let encodes = trace
            .lines()
            .filter(|l| l.contains("\"stage\":\"wire_encode\""))
            .count();
        assert_eq!(
            encodes, 3,
            "shard {range}: one wire_encode span per chain:\n{trace}"
        );
    }
    let reduce = reproduce(
        &dir,
        &["reduce", "a.frames", "b.frames", "--out", "reduced.txt"],
    );
    assert!(
        reduce.status.success(),
        "reduce failed: {}",
        String::from_utf8_lossy(&reduce.stderr)
    );
    assert_eq!(
        read(&dir, "direct.txt"),
        read(&dir, "reduced.txt"),
        "archived-shard report differs from the single-process report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `follow --archive` persists the corpus as it follows (one segment per
/// batch), cold-starts from it on the next run, and a reorg on top of the
/// persisted corpus truncates + re-seals only the disagreeing suffix —
/// every run self-verifies that the re-opened archive replays
/// byte-identical to the followed chains.
#[test]
fn follow_persists_and_cold_starts_from_the_archive() {
    let dir = tempdir("archfollow");

    let direct = reproduce(
        &dir,
        &["report", "--small", "--seed", "7", "--out", "direct.txt"],
    );
    assert!(
        direct.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&direct.stderr)
    );

    // First run creates the corpus while following.
    let first = reproduce(
        &dir,
        &[
            "follow",
            "--small",
            "--seed",
            "7",
            "--batch",
            "400",
            "--archive",
            "corpus",
            "--out",
            "followed.txt",
        ],
    );
    assert!(
        first.status.success(),
        "follow failed: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(stderr.contains("creating archive"), "stderr: {stderr}");
    assert!(stderr.contains("archive verified"), "stderr: {stderr}");
    assert_eq!(read(&dir, "direct.txt"), read(&dir, "followed.txt"));

    // Second run cold-starts from it — no scenario flags, no generation.
    let second = reproduce(
        &dir,
        &[
            "follow",
            "--batch",
            "400",
            "--archive",
            "corpus",
            "--out",
            "followed2.txt",
            "--metrics-out",
            "follow2-metrics.txt",
        ],
    );
    assert!(
        second.status.success(),
        "follow failed: {}",
        String::from_utf8_lossy(&second.stderr)
    );
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("cold-started"), "stderr: {stderr}");
    assert_eq!(read(&dir, "direct.txt"), read(&dir, "followed2.txt"));
    let metrics = String::from_utf8(read(&dir, "follow2-metrics.txt")).expect("metrics utf8");
    assert!(
        metrics.contains("txstat_pipeline_generate_total 0"),
        "cold-started follow generated a chain:\n{metrics}"
    );

    // A reorg over the persisted corpus invalidates only the disagreeing
    // segment suffix, and the re-sealed archive still verifies.
    let reorg = reproduce(
        &dir,
        &[
            "follow",
            "--batch",
            "400",
            "--archive",
            "corpus",
            "--reorg-at-batch",
            "2",
            "--reorg-depth",
            "500",
            "--reorg-seed",
            "11",
            "--out",
            "reorged.txt",
        ],
    );
    assert!(
        reorg.status.success(),
        "reorg follow failed: {}",
        String::from_utf8_lossy(&reorg.stderr)
    );
    let stderr = String::from_utf8_lossy(&reorg.stderr);
    assert!(stderr.contains("reorg invalidated"), "stderr: {stderr}");
    assert!(stderr.contains("archive verified"), "stderr: {stderr}");
    // What the corpus now holds is the reorged history.
    let after = reproduce(
        &dir,
        &["report", "--archive", "corpus", "--out", "after.txt"],
    );
    assert!(
        after.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&after.stderr)
    );
    assert_eq!(read(&dir, "reorged.txt"), read(&dir, "after.txt"));
    assert_ne!(
        read(&dir, "direct.txt"),
        read(&dir, "after.txt"),
        "the reorg changed nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `--archive` misuse is a usage error (exit 2): a directory with no
/// corpus, a missing --out, scenario flags that contradict the manifest,
/// and file-mode reduce with --archive. So is a repeated flag. (A value
/// outside its flag's domain is refused in process: `reproduce`'s own
/// tests walk every flag of `COMMANDS`.)
#[test]
fn archive_flag_misuse_exits_with_usage() {
    let dir = tempdir("archusage");
    std::fs::create_dir_all(dir.join("emptydir")).expect("mkdir");
    let sealed = reproduce(
        &dir,
        &[
            "archive",
            "--small",
            "--seed",
            "7",
            "--out",
            "corpus",
            "--segment-blocks",
            "512",
        ],
    );
    assert!(
        sealed.status.success(),
        "archive failed: {}",
        String::from_utf8_lossy(&sealed.stderr)
    );

    for (args, needle) in [
        (&["report", "--archive", "missing"][..], "no archive at"),
        (
            &[
                "shard",
                "--range",
                "0..5",
                "--out",
                "x.frames",
                "--archive",
                "emptydir",
            ][..],
            "no archive at",
        ),
        (
            &["follow", "--archive", "corpus", "--seed", "9"][..],
            "does not hold the requested",
        ),
        (&["archive", "--small"][..], "archive needs --out DIR"),
        (
            &["report", "--archive", "corpus", "--seed", "9"][..],
            "does not hold the requested",
        ),
        (
            &["report", "--archive", "corpus", "--crawl"][..],
            "not both",
        ),
        (
            &["reduce", "--archive", "corpus", "x.frames"][..],
            "needs --connect",
        ),
        (
            &["report", "--small", "--seed", "1", "--seed", "2"][..],
            "--seed given twice",
        ),
        (
            &["serve", "--small", "--load", "--load"][..],
            "--load given twice",
        ),
    ] {
        let out = reproduce(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
        assert!(
            stderr.contains("usage: reproduce"),
            "{args:?} printed no usage: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve --load` (the p99 instrument): follow to the head, run the
/// built-in 64 × 200-request load, print its summary on stdout and exit —
/// every request answered 200 or shed with a 429, none dropped.
#[test]
fn serve_load_runs_its_load_at_the_head_and_exits() {
    let dir = tempdir("serveload");
    let out = reproduce(
        &dir,
        &[
            "serve", "--small", "--seed", "7", "--batch", "400", "--load",
        ],
    );
    assert!(
        out.status.success(),
        "serve --load failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("serving on http://"), "stdout: {stdout}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("load: "))
        .expect("a load summary line");
    assert!(line.starts_with("load: 12800 requests"), "{line}");
    let count = |name: &str| -> u64 {
        let mut words = line.split_whitespace().skip_while(|w| *w != name);
        words
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in {line}"))
    };
    assert_eq!(count("ok") + count("shed"), 12800, "{line}");
    assert_eq!(count("errors"), 0, "{line}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve --archive` over a corpus whose last segment passes the hash
/// check but does not decode: the follower meets it on its way to the head
/// and the session exits 2 with an error naming the segment, no panic.
/// (`serve_query.rs::a_segment_that_does_not_decode_is_an_error_naming_it`
/// reads `/report` first, which answers 500 with the same error.)
#[test]
fn serving_an_undecodable_segment_exits_2_naming_it() {
    let dir = tempdir("undecodable");
    let out = reproduce(
        &dir,
        &["archive", "--small", "--seed", "7", "--out", "corpus"],
    );
    assert!(out.status.success(), "archive failed");
    let corpus = dir.join("corpus");
    let archive = txstat_archive::Archive::open(&corpus).expect("open the corpus");
    let mut seg = archive
        .decode_segment(archive.segments().len() - 1)
        .expect("decode the last segment");
    seg.tezos.truncate(seg.tezos.len() / 2);
    let mut writer = archive.into_writer().expect("reopen for writing");
    writer
        .truncate_from(seg.start)
        .expect("drop the last segment");
    writer.append(&seg).expect("re-seal it");
    writer.seal().expect("seal the index");
    let out = reproduce(
        &dir,
        &[
            "serve",
            "--archive",
            "corpus",
            "--batch",
            "256",
            "--epoch-ms",
            "0",
            "--port",
            "0",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("error: segment [2560, 2712) tezos columns"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corpus whose manifest names one more EOS block than its segments hold
/// (the manifest edited, the sidecar and the segments as sealed) is refused
/// by every archive cold start. `report --archive` replays the segments and
/// exits non-zero. `reduce --connect --archive` resolves the facts before it
/// drives the fleet, so it exits non-zero without asking the worker, which
/// never sees a connection. A streamed serve answers 500 on Figure 2, whose
/// facts sum the segments, and still serves Figure 4, which reads none.
#[test]
fn a_manifest_that_overstates_a_chain_fails_every_archive_cold_start() {
    use txstat_archive::{Archive, ArchiveWriter};
    use txstat_reports::archive_io::segments_of_from;
    use txstat_reports::{
        generate, streamed_from_archive, write_archive, Follower, Manifest, SegmentFormat,
        ServeSnapshot, StatsService,
    };
    const REFUSED: &str = "disagree with manifest";
    let dir = tempdir("overstated");
    let data = generate(&txstat_workload::Scenario::small(7));
    let sealed = dir.join("sealed");
    write_archive(&sealed, &data, "small", 256, SegmentFormat).expect("seal");
    let sealed = Archive::open(&sealed).expect("open the sealed corpus");
    let mut manifest = Manifest::parse(sealed.manifest()).expect("manifest");
    manifest.lens[0] += 1;
    let mut writer =
        ArchiveWriter::create(&dir.join("corpus"), &manifest.to_string(), sealed.sidecar())
            .expect("create the corpus");
    for seg in segments_of_from(
        &data.eos_blocks,
        &data.tezos_blocks,
        &data.xrp_blocks,
        manifest.segment_blocks,
        0,
    ) {
        writer.append(&seg).expect("append");
    }
    writer.seal().expect("seal the index");

    let report = reproduce(&dir, &["report", "--archive", "corpus", "--out", "r.txt"]);
    let stderr = String::from_utf8_lossy(&report.stderr);
    assert!(!report.status.success(), "report --archive: {stderr}");
    assert!(stderr.contains(REFUSED), "{stderr}");

    let worker = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    worker.set_nonblocking(true).expect("nonblocking");
    let addr = worker.local_addr().expect("addr").to_string();
    let args = [
        "reduce",
        "--connect",
        &addr,
        "--archive",
        "corpus",
        "--retries",
        "0",
        "--timeout-ms",
        "500",
        "--out",
        "f.txt",
    ];
    let reduce = reproduce(&dir, &args);
    let stderr = String::from_utf8_lossy(&reduce.stderr);
    assert!(!reduce.status.success(), "reduce --archive: {stderr}");
    assert!(stderr.contains(REFUSED), "{stderr}");
    assert!(
        worker.accept().is_err(),
        "the reducer asked a worker: {stderr}"
    );

    let (streamed, _) = streamed_from_archive(&dir.join("corpus")).expect("streamed cold start");
    let mut follower = Follower::new(streamed, 256);
    let first = follower.advance().expect("first epoch");
    let cell = std::sync::Arc::new(txstat_ingest::EpochCell::new(std::sync::Arc::new(
        ServeSnapshot::new(1, false, first),
    )));
    let service = StatsService::new(cell);
    let fig2 = service.respond("GET", "/exhibit/fig2");
    let body = String::from_utf8_lossy(&fig2.body);
    assert_eq!(fig2.status, 500, "{body}");
    assert!(body.contains(REFUSED), "{body}");
    assert_eq!(service.respond("GET", "/exhibit/fig4").status, 200);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_and_subcommands_exit_nonzero_with_usage() {
    let dir = tempdir("usage");
    for args in [
        &["report", "--frobnicate"][..],
        &["--frobnicate"][..],
        &["shard", "--range", "0..5"][..], // missing --out
        &["warble"][..],
        // Retired options are unknown like any other, not silently accepted.
        &[
            "shard",
            "--range",
            "0..5",
            "--out",
            "x.frames",
            "--payload",
            "json",
        ][..],
        &["reduce", "--connect", "127.0.0.1:1", "--payload", "bin"][..],
        &["archive", "--small", "--out", "x", "--format", "v1"][..],
        &["follow", "--small", "--format", "v2"][..],
        &["follow", "--small", "--shards", "2"][..],
        &[
            "shard", "--range", "0..5", "--out", "x.frames", "--shards", "2",
        ][..],
        &["reduce", "--connect", "127.0.0.1:1", "--shards", "2"][..],
        &["archive", "--out", "x", "--upgrade", "corpus"][..],
        &["report", "--small", "--crawl", "--materialize"][..],
        &[
            "shard",
            "--listen",
            "127.0.0.1:0",
            "--archive",
            "x",
            "--segment-cache-mb",
            "16",
        ][..],
        &["serve", "--small", "--max-inflight", "64"][..],
        &["chaos", "--upstream", "127.0.0.1:1", "--latency-ms", "5"][..],
        &["chaos", "--upstream", "127.0.0.1:1", "--jitter-ms", "5"][..],
        &["chaos", "--upstream", "127.0.0.1:1", "--max-seconds", "1"][..],
        &["serve", "--small", "--load", "--conns", "8"][..],
        &["serve", "--small", "--load", "--reqs", "8"][..],
        &["--small", "--seed", "9"][..], // the pre-subcommand spelling
    ] {
        let out = reproduce(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: reproduce"),
            "{args:?} printed no usage: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
