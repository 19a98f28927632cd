//! The multi-process acceptance proof: N separate `reproduce shard` OS
//! processes over disjoint block ranges, reduced centrally by a
//! `reproduce reduce` process, render a report **byte-identical** to one
//! `reproduce report` process over the same scenario/seed.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

fn reproduce(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn reproduce")
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
    BufReader::new(stdout).read_line(&mut line).expect("read server banner");
    assert!(line.contains(banner), "expected banner {banner:?}, got: {line:?}");
    // "shard worker on ADDR" / "chaos proxy on ADDR -> UP": token 3.
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("no address in banner {line:?}"))
        .to_string();
    Server { child, addr }
}

fn spawn_worker(dir: &Path, extra: &[&str]) -> Server {
    let mut args =
        vec!["shard", "--small", "--seed", "7", "--listen", "127.0.0.1:0", "--timeout-ms", "2000"];
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

#[test]
fn three_shard_processes_reduce_to_the_identical_report() {
    let dir = tempdir("reduce");

    let direct = reproduce(
        &dir,
        &["report", "--small", "--seed", "7", "--out", "direct.txt", "--metrics-out", "direct.prom"],
    );
    assert!(direct.status.success(), "report failed: {}", String::from_utf8_lossy(&direct.stderr));
    // `--metrics-out` is honoured on the generating arm too (it used to be
    // accepted and silently ignored without `--archive`).
    let metrics = String::from_utf8(read(&dir, "direct.prom")).expect("metrics utf8");
    assert!(metrics.contains("txstat_pipeline_generate_total 1"), "{metrics}");

    // Three disjoint block-position ranges; the last one over-shoots every
    // chain head and clamps. Different in-process shard counts per worker
    // must not matter.
    for (range, shards, out) in
        [("0..250", "1", "a.frames"), ("250..400", "3", "b.frames"), ("400..99999999", "2", "c.frames")]
    {
        let shard = reproduce(
            &dir,
            &["shard", "--range", range, "--small", "--seed", "7", "--shards", shards, "--out", out],
        );
        assert!(
            shard.status.success(),
            "shard {range} failed: {}",
            String::from_utf8_lossy(&shard.stderr)
        );
    }

    let reduce = reproduce(
        &dir,
        &["reduce", "a.frames", "b.frames", "c.frames", "--out", "reduced.txt"],
    );
    assert!(reduce.status.success(), "reduce failed: {}", String::from_utf8_lossy(&reduce.stderr));

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

    let direct = reproduce(&dir, &["report", "--small", "--seed", "7", "--out", "direct.txt"]);
    assert!(direct.status.success(), "report failed: {}", String::from_utf8_lossy(&direct.stderr));

    for (batch, progress) in [("400", "batch    2"), ("32", "batch   85")] {
        let follow = reproduce(
            &dir,
            &["follow", "--small", "--seed", "7", "--batch", batch, "--out", "followed.txt"],
        );
        assert!(
            follow.status.success(),
            "follow failed: {}",
            String::from_utf8_lossy(&follow.stderr)
        );
        let stderr = String::from_utf8_lossy(&follow.stderr);
        assert!(stderr.contains(progress), "expected {progress:?}, stderr: {stderr}");
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

    let direct = reproduce(&dir, &["report", "--small", "--seed", "7", "--out", "direct.txt"]);
    assert!(direct.status.success(), "report failed: {}", String::from_utf8_lossy(&direct.stderr));

    let w1 = spawn_worker(&dir, &[]);
    let w2 = spawn_worker(&dir, &[]);
    let w3 = spawn_worker(&dir, &["--max-requests", "1"]);
    let connect = format!("{},{},{}", w1.addr, w2.addr, w3.addr);
    let reduce = reproduce(
        &dir,
        &[
            "reduce", "--small", "--seed", "7", "--connect", &connect, "--chunks", "6",
            "--timeout-ms", "4000", "--retries", "2", "--backoff-ms", "5",
            "--metrics-out", "fleet-metrics.txt", "--out", "fleet.txt",
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
        assert!(metrics.contains(&format!("# TYPE {family}")), "no {family} in:\n{metrics}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same fleet driven through a `reproduce chaos` proxy process that
/// resets/truncates/bit-flips 9% of connections: damaged exchanges are
/// retried (bit-flips are caught by the wire content hashes) and the
/// report stays byte-identical.
#[test]
fn fleet_reduce_through_a_chaos_proxy_is_byte_identical() {
    let dir = tempdir("chaosfleet");

    let direct = reproduce(&dir, &["report", "--small", "--seed", "7", "--out", "direct.txt"]);
    assert!(direct.status.success(), "report failed: {}", String::from_utf8_lossy(&direct.stderr));

    let w1 = spawn_worker(&dir, &[]);
    let w2 = spawn_worker(&dir, &[]);
    let proxy = spawn_server(
        &dir,
        &[
            "chaos", "--upstream", &w1.addr, "--fault-rate", "0.05", "--truncate-rate", "0.02",
            "--flip-rate", "0.02", "--seed", "11",
        ],
        "chaos proxy on",
    );
    let connect = format!("{},{}", proxy.addr, w2.addr);
    let reduce = reproduce(
        &dir,
        &[
            "reduce", "--small", "--seed", "7", "--connect", &connect, "--chunks", "6",
            "--timeout-ms", "4000", "--retries", "4", "--backoff-ms", "5", "--out", "chaos.txt",
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
            "reduce", "--small", "--seed", "7", "--connect", &dead, "--timeout-ms", "500",
            "--retries", "1", "--backoff-ms", "1",
        ],
    );
    assert!(!out.status.success(), "a dead fleet must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fleet exhausted"), "stderr: {stderr}");
    assert!(stderr.contains(&dead), "error does not name the dead worker: {stderr}");
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
            "reduce", "--connect", "127.0.0.1:1", "--small", "--seed", "7", "--retries", "0",
            "--timeout-ms", "200", "--trace-out", "t.ndjson", "--metrics-out", "m.prom",
            "--timings",
        ],
    );
    assert_eq!(out.status.code(), Some(2), "a dead fleet is still a failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: reproduce"), "stderr: {stderr}");
    // The timings table: a `generate` row with its per-chain sub-rows.
    assert!(stderr.lines().any(|l| l.starts_with("generate ")), "no timings table: {stderr}");
    let metrics = String::from_utf8(read(&dir, "m.prom")).expect("metrics utf8");
    assert!(metrics.contains("# TYPE txstat_fleet_requests_total"), "{metrics}");
    assert!(metrics.contains("# TYPE txstat_fleet_workers_failed_total"), "{metrics}");
    assert!(metrics.contains("txstat_pipeline_generate_total 1"), "{metrics}");
    let trace = String::from_utf8(read(&dir, "t.ndjson")).expect("trace utf8");
    assert!(trace.lines().any(|l| l.contains("\"stage\":\"generate\"")), "trace: {trace}");
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
            "follow", "--small", "--seed", "7", "--batch", "400", "--reorg-at-batch", "3",
            "--reorg-depth", "500", "--reorg-seed", "11", "--metrics-out", "reorg-metrics.txt",
            "--out", "reorged.txt",
        ],
    );
    assert!(out.status.success(), "follow failed: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("reorg recovery verified"), "stderr: {stderr}");
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
        assert!(metrics.contains(line), "no {line:?} in the follow metrics:\n{metrics}");
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
            "follow", "--small", "--seed", "7", "--batch", "400", "--archive", "corpus",
            "--reorg-at-batch", "99",
        ],
    );
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("the head is reached after 7 batches"), "stderr: {stderr}");
    assert!(!dir.join("corpus").exists(), "a refused run left an archive directory behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reduce_refuses_incomplete_coverage() {
    let dir = tempdir("gap");
    let shard = reproduce(
        &dir,
        &["shard", "--range", "10..40", "--small", "--seed", "7", "--out", "mid.frames"],
    );
    assert!(shard.status.success());
    let reduce = reproduce(&dir, &["reduce", "mid.frames", "--out", "never.txt"]);
    assert!(!reduce.status.success(), "a head-less reduction must fail");
    let stderr = String::from_utf8_lossy(&reduce.stderr);
    assert!(stderr.contains("uncovered block ranges"), "stderr: {stderr}");
    assert!(!dir.join("never.txt").exists(), "no report may be written on gap");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The archive cold-start acceptance: seal the corpus once, then a socket
/// fleet whose workers decode only their assignments' segments (zero
/// chain-generation passes, pinned by the worker's own metrics dump)
/// reduces to the byte-identical one-shot report.
#[test]
fn archived_cold_start_fleet_matches_the_one_shot_report() {
    let dir = tempdir("archfleet");

    let direct = reproduce(&dir, &["report", "--small", "--seed", "7", "--out", "direct.txt"]);
    assert!(direct.status.success(), "report failed: {}", String::from_utf8_lossy(&direct.stderr));
    let sealed = reproduce(
        &dir,
        &["archive", "--small", "--seed", "7", "--out", "corpus", "--segment-blocks", "100"],
    );
    assert!(sealed.status.success(), "archive failed: {}", String::from_utf8_lossy(&sealed.stderr));

    // Two cold-started workers serve a fleet reduction straight from the
    // mapped segments; the reducer's own dataset also comes from the
    // corpus (no scenario flags anywhere).
    let w1 = spawn_server(
        &dir,
        &["shard", "--listen", "127.0.0.1:0", "--timeout-ms", "2000", "--archive", "corpus"],
        "shard worker on",
    );
    let w2 = spawn_server(
        &dir,
        &["shard", "--listen", "127.0.0.1:0", "--timeout-ms", "2000", "--archive", "corpus"],
        "shard worker on",
    );
    let connect = format!("{},{}", w1.addr, w2.addr);
    let reduce = reproduce(
        &dir,
        &[
            "reduce", "--connect", &connect, "--archive", "corpus", "--chunks", "4",
            "--timeout-ms", "4000", "--retries", "2", "--backoff-ms", "5", "--out", "fleet.txt",
            "--metrics-out", "reduce-cold.prom",
        ],
    );
    assert!(
        reduce.status.success(),
        "cold-start fleet reduce failed: {}",
        String::from_utf8_lossy(&reduce.stderr)
    );
    let stderr = String::from_utf8_lossy(&reduce.stderr);
    assert!(stderr.contains("cold-started reducer dataset"), "stderr: {stderr}");
    assert_eq!(
        read(&dir, "direct.txt"),
        read(&dir, "fleet.txt"),
        "cold-started fleet report differs from the single-process report"
    );
    // The first reducer over a fresh seal finds no memo: it summarizes
    // every one of the 28 segments from its bytes and leaves the file.
    let counter = |file: &str, name: &str| -> u64 {
        let metrics = String::from_utf8(read(&dir, file)).expect("metrics utf8");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {name} in {file}:\n{metrics}"))
    };
    assert_eq!(counter("reduce-cold.prom", "txstat_archive_memo_hits_total"), 0);
    assert_eq!(counter("reduce-cold.prom", "txstat_archive_memo_misses_total"), 28);
    assert_eq!(counter("reduce-cold.prom", "txstat_archive_segments_replayed_total"), 28);
    assert!(dir.join("corpus/archive.memo").is_file(), "the first reducer heals the memo");

    // A worker whose request budget equals the chunk count exits cleanly
    // and dumps its metrics: zero generation passes, >0 segments replayed.
    let mut w3 = spawn_server(
        &dir,
        &[
            "shard", "--listen", "127.0.0.1:0", "--timeout-ms", "2000", "--archive", "corpus",
            "--max-requests", "2", "--metrics-out", "worker-metrics.txt",
        ],
        "shard worker on",
    );
    let reduce2 = reproduce(
        &dir,
        &[
            "reduce", "--connect", &w3.addr, "--archive", "corpus", "--chunks", "2",
            "--timeout-ms", "4000", "--retries", "2", "--backoff-ms", "5", "--out", "fleet2.txt",
            "--metrics-out", "reduce-warm.prom", "--trace-out", "reduce-warm.ndjson",
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
    assert_eq!(counter("reduce-warm.prom", "txstat_archive_memo_hits_total"), 28);
    assert_eq!(counter("reduce-warm.prom", "txstat_archive_memo_misses_total"), 0);
    assert_eq!(counter("reduce-warm.prom", "txstat_archive_segments_replayed_total"), 0);
    let trace = String::from_utf8(read(&dir, "reduce-warm.ndjson")).expect("trace utf8");
    assert!(trace.contains("\"stage\":\"memo\""), "no memo span:\n{trace}");
    assert!(!trace.contains("fig2_storage"), "a memo-hit reducer recomputed Figure 2");
    let status = w3.child.wait().expect("worker exit");
    assert!(status.success(), "budgeted worker should exit cleanly");
    let metrics = String::from_utf8(read(&dir, "worker-metrics.txt")).expect("metrics utf8");
    assert!(
        metrics.contains("txstat_pipeline_generate_total 0"),
        "cold-started worker generated a chain:\n{metrics}"
    );
    let replayed: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("txstat_archive_segments_replayed_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("replay counter in metrics dump");
    assert!(replayed > 0, "worker replayed no archive segments:\n{metrics}");
    // Its decoded-segment cache is exported too, and it decoded something.
    for family in [
        "txstat_archive_cache_hits_total",
        "txstat_archive_cache_misses_total",
        "txstat_archive_cache_evictions_total",
        "txstat_archive_cache_bytes",
    ] {
        assert!(metrics.contains(&format!("# TYPE {family}")), "no {family} in:\n{metrics}");
    }
    assert!(counter("worker-metrics.txt", "txstat_archive_cache_misses_total") > 0, "{metrics}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A memo that cannot be written costs a warning, never the report: a
/// non-empty directory squatting on `archive.memo` fails both the read and
/// the rename (root ignores permission bits, so chmod would prove nothing).
#[test]
fn unwritable_memo_is_a_warning_not_a_failure() {
    let dir = tempdir("memowarn");
    let direct = reproduce(&dir, &["report", "--small", "--seed", "7", "--out", "direct.txt"]);
    assert!(direct.status.success(), "report failed: {}", String::from_utf8_lossy(&direct.stderr));
    let sealed = reproduce(&dir, &["archive", "--small", "--seed", "7", "--out", "corpus"]);
    assert!(sealed.status.success(), "archive failed: {}", String::from_utf8_lossy(&sealed.stderr));
    std::fs::create_dir(dir.join("corpus/archive.memo")).expect("squat on the memo name");
    std::fs::write(dir.join("corpus/archive.memo/occupied"), b"x").expect("occupy");

    let cold = reproduce(
        &dir,
        &["report", "--archive", "corpus", "--out", "cold.txt", "--metrics-out", "cold.prom"],
    );
    assert!(cold.status.success(), "report failed: {}", String::from_utf8_lossy(&cold.stderr));
    let stderr = String::from_utf8_lossy(&cold.stderr);
    assert!(stderr.contains("warning: archive memo not written"), "stderr: {stderr}");
    assert_eq!(read(&dir, "direct.txt"), read(&dir, "cold.txt"));
    let metrics = String::from_utf8(read(&dir, "cold.prom")).expect("metrics utf8");
    assert!(metrics.contains("txstat_archive_memo_write_failures_total 1"), "{metrics}");
    assert!(metrics.contains("txstat_archive_memo_rejected_total{reason=\"io\"} 1"), "{metrics}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// File-mode shards cold-started from the corpus produce frames that
/// reduce to the byte-identical report, still with zero generation.
#[test]
fn archived_file_shards_reduce_to_the_identical_report() {
    let dir = tempdir("archshard");

    let direct = reproduce(&dir, &["report", "--small", "--seed", "7", "--out", "direct.txt"]);
    assert!(direct.status.success(), "report failed: {}", String::from_utf8_lossy(&direct.stderr));
    let sealed = reproduce(
        &dir,
        &["archive", "--small", "--seed", "7", "--out", "corpus", "--segment-blocks", "128"],
    );
    assert!(sealed.status.success(), "archive failed: {}", String::from_utf8_lossy(&sealed.stderr));

    for (range, out, metrics) in [
        ("0..300", "a.frames", "a-metrics.txt"),
        ("300..99999999", "b.frames", "b-metrics.txt"),
    ] {
        let shard = reproduce(
            &dir,
            &[
                "shard", "--range", range, "--archive", "corpus", "--out", out,
                "--metrics-out", metrics,
            ],
        );
        assert!(
            shard.status.success(),
            "shard {range} failed: {}",
            String::from_utf8_lossy(&shard.stderr)
        );
        let m = String::from_utf8(read(&dir, metrics)).expect("metrics utf8");
        assert!(m.contains("txstat_pipeline_generate_total 0"), "shard {range} generated:\n{m}");
    }
    let reduce = reproduce(&dir, &["reduce", "a.frames", "b.frames", "--out", "reduced.txt"]);
    assert!(reduce.status.success(), "reduce failed: {}", String::from_utf8_lossy(&reduce.stderr));
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

    let direct = reproduce(&dir, &["report", "--small", "--seed", "7", "--out", "direct.txt"]);
    assert!(direct.status.success(), "report failed: {}", String::from_utf8_lossy(&direct.stderr));

    // First run creates the corpus while following.
    let first = reproduce(
        &dir,
        &[
            "follow", "--small", "--seed", "7", "--batch", "400", "--archive", "corpus",
            "--out", "followed.txt",
        ],
    );
    assert!(first.status.success(), "follow failed: {}", String::from_utf8_lossy(&first.stderr));
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(stderr.contains("creating archive"), "stderr: {stderr}");
    assert!(stderr.contains("archive verified"), "stderr: {stderr}");
    assert_eq!(read(&dir, "direct.txt"), read(&dir, "followed.txt"));

    // Second run cold-starts from it — no scenario flags, no generation.
    let second = reproduce(
        &dir,
        &[
            "follow", "--batch", "400", "--archive", "corpus", "--out", "followed2.txt",
            "--metrics-out", "follow2-metrics.txt",
        ],
    );
    assert!(second.status.success(), "follow failed: {}", String::from_utf8_lossy(&second.stderr));
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
            "follow", "--batch", "400", "--archive", "corpus", "--reorg-at-batch", "2",
            "--reorg-depth", "500", "--reorg-seed", "11", "--out", "reorged.txt",
        ],
    );
    assert!(reorg.status.success(), "reorg follow failed: {}", String::from_utf8_lossy(&reorg.stderr));
    let stderr = String::from_utf8_lossy(&reorg.stderr);
    assert!(stderr.contains("reorg invalidated"), "stderr: {stderr}");
    assert!(stderr.contains("archive verified"), "stderr: {stderr}");
    // What the corpus now holds is the reorged history.
    let after = reproduce(&dir, &["report", "--archive", "corpus", "--out", "after.txt"]);
    assert!(after.status.success(), "report failed: {}", String::from_utf8_lossy(&after.stderr));
    assert_eq!(read(&dir, "reorged.txt"), read(&dir, "after.txt"));
    assert_ne!(read(&dir, "direct.txt"), read(&dir, "after.txt"), "the reorg changed nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `--archive` misuse is a usage error (exit 2): a directory with no
/// corpus, a zero segment size, a missing --out, scenario flags that
/// contradict the manifest, and file-mode reduce with --archive.
#[test]
fn archive_flag_misuse_exits_with_usage() {
    let dir = tempdir("archusage");
    std::fs::create_dir_all(dir.join("emptydir")).expect("mkdir");
    let sealed = reproduce(
        &dir,
        &["archive", "--small", "--seed", "7", "--out", "corpus", "--segment-blocks", "512"],
    );
    assert!(sealed.status.success(), "archive failed: {}", String::from_utf8_lossy(&sealed.stderr));

    for (args, needle) in [
        (&["report", "--archive", "missing"][..], "no archive at"),
        (&["shard", "--range", "0..5", "--out", "x.frames", "--archive", "emptydir"][..], "no archive at"),
        (&["follow", "--archive", "corpus", "--seed", "9"][..], "does not hold the requested"),
        (&["archive", "--small", "--out", "x", "--segment-blocks", "0"][..], "--segment-blocks must be at least 1"),
        (&["follow", "--small", "--archive", "x", "--segment-blocks", "0"][..], "--segment-blocks must be at least 1"),
        (&["archive", "--small"][..], "archive needs --out DIR"),
        (&["report", "--archive", "corpus", "--seed", "9"][..], "does not hold the requested"),
        (&["report", "--archive", "corpus", "--crawl"][..], "not both"),
        (&["reduce", "--archive", "corpus", "x.frames"][..], "needs --connect"),
    ] {
        let out = reproduce(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
        assert!(stderr.contains("usage: reproduce"), "{args:?} printed no usage: {stderr}");
    }
    assert!(!dir.join("x").exists(), "a refused zero segment size left a corpus directory");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve --load` (the p99 instrument): follow to the head, run the
/// built-in 64 × 200-request load, print its summary on stdout and exit —
/// every request answered 200 or shed with a 429, none dropped.
#[test]
fn serve_load_runs_its_load_at_the_head_and_exits() {
    let dir = tempdir("serveload");
    let out = reproduce(&dir, &["serve", "--small", "--seed", "7", "--batch", "400", "--load"]);
    assert!(out.status.success(), "serve --load failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("serving on http://"), "stdout: {stdout}");
    let line = stdout.lines().find(|l| l.starts_with("load: ")).expect("a load summary line");
    assert!(line.starts_with("load: 12800 requests"), "{line}");
    let count = |name: &str| -> u64 {
        let mut words = line.split_whitespace().skip_while(|w| *w != name);
        words.nth(1).and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("no {name} in {line}"))
    };
    assert_eq!(count("ok") + count("shed"), 12800, "{line}");
    assert_eq!(count("errors"), 0, "{line}");
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
        &["shard", "--range", "0..5", "--out", "x.frames", "--payload", "json"][..],
        &["reduce", "--connect", "127.0.0.1:1", "--payload", "bin"][..],
        &["archive", "--small", "--out", "x", "--format", "v1"][..],
        &["follow", "--small", "--format", "v2"][..],
        &["follow", "--small", "--shards", "2"][..],
        &["archive", "--out", "x", "--upgrade", "corpus"][..],
        &["report", "--small", "--crawl", "--materialize"][..],
        &["shard", "--listen", "127.0.0.1:0", "--archive", "x", "--segment-cache-mb", "16"][..],
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
        assert!(stderr.contains("usage: reproduce"), "{args:?} printed no usage: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
