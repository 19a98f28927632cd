//! The end-to-end harness: every number here is taken across a process
//! boundary. It spawns the release `reproduce` binary, waits for it (or
//! speaks HTTP to it over loopback), and checks every output byte for byte,
//! so a refactor of the library APIs cannot break or bend the benchmark.
//!
//! With `--trace 0|1` it runs one workload the way the driver contract
//! asks and ends with the one-line JSON result (`--trace 1` hands over to
//! the sibling `layers` binary). Without `--trace` it is the suite runner:
//! every workload end to end, then its traced layer run, at both scales,
//! or twice end to end (`--selfcheck`) to show that the same code agrees
//! with itself.
//!
//! A run is a fixed number of rounds; a round sets one scenario up from
//! nothing (timed: `setup_s`), runs a fixed number of ops against it
//! (closed loop, one op in flight) and checks the outputs against an
//! independently produced reference. The harness and every child share one
//! CPU (`proc::pin_to_one_cpu`) and the harness never issues load while the
//! system under test is computing an epoch. Between the ops the harness
//! times a fixed probe of its own, and every time a round reports is stated
//! at the probe's reference speed (`calib`), because the host's speed moves
//! by a quarter between states that outlast a run.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use txstat_benchmark::calib::{self, SpeedProbe};
use txstat_benchmark::http::Conn;
use txstat_benchmark::proc::{pin_to_one_cpu, Exit, Proc};
use txstat_benchmark::{contract, fingerprint, round_seed, stats, target_dir, workload_index};
use txstat_benchmark::{Args, Metric, RunResult, Scale, TempRoot, OP_DEADLINE, ROUTES, WORKLOADS};

/// Pause between `/healthz` polls while `follow_catchup` waits for head:
/// short against the op, long enough that the polls stay a rounding error
/// beside the follower they share the CPU with.
const HEAD_POLL: Duration = Duration::from_millis(2);

/// Probe samples taken before and after each set-up; the ops add one each.
const PROBE_BATCH: usize = 3;

/// `serve_refresh` ops are a quarter of a probe sample long, so it takes one
/// sample per this many ops (still ten a session), in the follower's sleep.
const REFRESH_OPS_PER_PROBE: usize = 4;

/// The uncalibrated `op_ms`: printed by the end-to-end run, read back by
/// the suite for the traced run, which times on the wall clock.
const WALL_METRIC: &str = "op_wall_ms";

/// Measuring stops early once this many ops have failed: something is
/// broken, and each further failure may cost a full op deadline.
const MAX_FAILURES: u64 = 3;

struct Harness {
    reproduce: PathBuf,
    scale: Scale,
    tmp: TempRoot,
    probe: SpeedProbe,
    /// stderr of every child, kept for the failure message.
    log: File,
    log_path: PathBuf,
}

impl Harness {
    fn new(scale: Scale) -> Result<Harness, String> {
        let reproduce = target_dir().join("release").join("reproduce");
        if !reproduce.is_file() {
            return Err(format!(
                "{} is missing; run benchmark/run.sh, which builds it",
                reproduce.display()
            ));
        }
        let tmp = TempRoot::create().map_err(|e| format!("cannot create scratch dir: {e}"))?;
        let log_path = tmp.path().join("children.log");
        let log = File::create(&log_path).map_err(|e| e.to_string())?;
        Ok(Harness {
            reproduce,
            scale,
            tmp,
            probe: SpeedProbe::spawn(&std::env::current_exe().map_err(|e| e.to_string())?)
                .map_err(|e| format!("cannot start the probe helper: {e}"))?,
            log,
            log_path,
        })
    }

    /// `[--small] --seed N`: the only place a scenario seed enters.
    fn scenario<'a>(&self, seed: &'a str) -> Vec<&'a str> {
        let mut v: Vec<&str> = self.scale.flag().into_iter().collect();
        v.extend(["--seed", seed]);
        v
    }

    fn spawn(&self, args: &[&str]) -> Result<Proc, String> {
        Proc::spawn(&self.reproduce, args, &self.log)
            .map_err(|e| format!("cannot spawn {}: {e}", self.reproduce.display()))
    }

    /// Run `reproduce args…` to exit; wall time in ms and the accounting.
    fn run(&self, args: &[&str]) -> Result<(f64, Exit), String> {
        let started = Instant::now();
        let exit = self.spawn(args)?.reap(OP_DEADLINE);
        Ok((ms(started.elapsed()), exit))
    }

    fn run_ok(&self, args: &[&str]) -> Result<(), String> {
        match self.run(args)? {
            (_, exit) if exit.success => Ok(()),
            _ => Err(format!("`reproduce {}` failed", args.join(" "))),
        }
    }

    /// Seal the scenario into `dir/corpus` (generate + encode + LZSS).
    fn seal(&self, dir: &Path, seed: &str) -> Result<String, String> {
        let corpus = path_str(&dir.join("corpus"));
        let mut args = vec!["archive"];
        args.extend(self.scenario(seed));
        args.extend(["--out", &corpus]);
        self.run_ok(&args)?;
        Ok(corpus)
    }

    /// The one-shot report of the sealed corpus: the reference every
    /// archive workload must reproduce byte for byte.
    fn reference(&self, dir: &Path, corpus: &str) -> Result<Vec<u8>, String> {
        let out = path_str(&dir.join("reference.txt"));
        self.run_ok(&["report", "--archive", corpus, "--out", &out])?;
        std::fs::read(&out).map_err(|e| format!("{out}: {e}"))
    }

    /// Spawn `serve` over the corpus and connect once it has announced.
    fn serve(&self, corpus: &str, batch: usize, epoch_ms: u64) -> Result<(Proc, Conn), String> {
        let (batch, epoch_ms) = (batch.to_string(), epoch_ms.to_string());
        let mut server = self.spawn(&[
            "serve",
            "--archive",
            corpus,
            "--batch",
            &batch,
            "--epoch-ms",
            &epoch_ms,
            "--port",
            "0",
            "--rate",
            "1000000",
            "--burst",
            "100000",
        ])?;
        let addr = server.announced("serving on http://", OP_DEADLINE)?;
        let conn = Conn::connect(&addr, OP_DEADLINE).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok((server, conn))
    }

    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log_path).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(15)..].join("\n")
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// `(epoch, head)` off a `/healthz` body.
fn healthz(conn: &mut Conn) -> Result<(u64, bool), String> {
    let resp = conn.get("/healthz").map_err(|e| format!("/healthz: {e}"))?;
    if !resp.is_ok() {
        return Err(format!("/healthz answered {}", resp.status));
    }
    let v: serde_json::Value =
        serde_json::from_slice(&resp.body).map_err(|e| format!("/healthz body: {e}"))?;
    match (v["epoch"].as_u64(), v["head"].as_bool()) {
        (Some(epoch), Some(head)) => Ok((epoch, head)),
        _ => Err("/healthz carries no epoch/head".to_owned()),
    }
}

fn get_ok(conn: &mut Conn, path: &str) -> Result<Vec<u8>, String> {
    match conn.get(path) {
        Ok(resp) if resp.is_ok() => Ok(resp.body),
        Ok(resp) => Err(format!("{path} answered {}", resp.status)),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// Ask the server to exit and account for it.
fn shut_down(server: Proc, mut conn: Conn) -> Exit {
    let _ = conn.request("POST", "/admin/shutdown");
    server.reap(OP_DEADLINE)
}

/// What the ops of one round produced.
#[derive(Default)]
struct Round {
    op_ms: Vec<f64>,
    failed: u64,
    /// user+sys of every system-under-test process, over the ops only.
    cpu_ms: f64,
    /// Host-speed probe samples taken between the ops (`calib`)…
    probe_ms: Vec<f64>,
    /// …and the factor `calibrate` multiplied the times above by.
    speed_factor: f64,
    /// Peak RSS of each process that lived for one op (or one session)…
    op_peak_rss_mb: Vec<f64>,
    /// …and of the processes standing beside it for the whole round.
    standing_rss_mb: f64,
    notes: Vec<String>,
}

impl Round {
    /// State the round's times at the reference speed; the factor used.
    fn calibrate(&mut self) {
        let k = calib::factor(&self.probe_ms);
        self.op_ms.iter_mut().for_each(|t| *t *= k);
        self.cpu_ms *= k;
        self.speed_factor = k;
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(format!("failed op: {why}"));
        }
    }
}

/// The op loop of the two run-to-exit workloads: an op counts when the
/// process exits 0 and leaves exactly `expected` in the (removed
/// beforehand) file `out`.
fn measure_to_exit(
    h: &Harness,
    r: &mut Round,
    ops: usize,
    out: &str,
    expected: &[u8],
    op: impl Fn() -> Result<(f64, Exit), String>,
) -> Result<(), String> {
    for _ in 0..ops {
        let _ = std::fs::remove_file(out);
        let (elapsed, exit) = op()?;
        r.cpu_ms += exit.cpu_ms;
        if exit.success && std::fs::read(out).is_ok_and(|b| b == expected) {
            r.op_ms.push(elapsed);
            r.op_peak_rss_mb.push(exit.peak_rss_mb);
        } else {
            r.fail("exited non-zero or wrote different bytes".to_owned());
        }
        r.probe_ms.push(h.probe.sample_ms()?);
    }
    Ok(())
}

trait Workload: Sized {
    /// Build everything an op needs from nothing inside `dir`, warm-up op
    /// included. This is what `setup_s` times.
    fn set_up(h: &Harness, dir: &Path, seed: &str) -> Result<Self, String>;
    fn measure(&mut self, h: &Harness, ops: usize, r: &mut Round) -> Result<(), String>;
    /// Untimed teardown check against an independently produced reference.
    fn verify(&mut self, h: &Harness) -> Result<(), String>;
}

/// `reproduce report` to exit: generate, sweep, render, write.
struct Report {
    dir: PathBuf,
    seed: String,
    expected: Vec<u8>,
}

impl Report {
    fn op(h: &Harness, seed: &str, out: &str) -> Result<(f64, Exit), String> {
        let mut args = vec!["report"];
        args.extend(h.scenario(seed));
        args.extend(["--out", out]);
        h.run(&args)
    }
}

impl Workload for Report {
    fn set_up(h: &Harness, dir: &Path, seed: &str) -> Result<Self, String> {
        let out = path_str(&dir.join("warmup.txt"));
        if !Report::op(h, seed, &out)?.1.success {
            return Err("warm-up report failed".to_owned());
        }
        let expected = std::fs::read(&out).map_err(|e| format!("{out}: {e}"))?;
        Ok(Report {
            dir: dir.to_owned(),
            seed: seed.to_owned(),
            expected,
        })
    }

    fn measure(&mut self, h: &Harness, ops: usize, r: &mut Round) -> Result<(), String> {
        let out = path_str(&self.dir.join("report.txt"));
        measure_to_exit(h, r, ops, &out, &self.expected, || {
            Report::op(h, &self.seed, &out)
        })
    }

    /// The generated report must equal the one cold-started from a sealed
    /// corpus of the same scenario: two routes to the same bytes.
    fn verify(&mut self, h: &Harness) -> Result<(), String> {
        let corpus = h.seal(&self.dir, &self.seed)?;
        if h.reference(&self.dir, &corpus)? != self.expected {
            return Err("`report` differs from `report --archive` of the same scenario".to_owned());
        }
        Ok(())
    }
}

/// `reproduce reduce --connect A,B --archive D` against two standing
/// `shard --listen` workers whose segment caches the warm-up has filled.
struct FleetReduce {
    dir: PathBuf,
    corpus: String,
    workers: Vec<Proc>,
    connect: String,
    expected: Vec<u8>,
}

impl FleetReduce {
    fn op(&self, h: &Harness, out: &str) -> Result<(f64, Exit), String> {
        h.run(&[
            "reduce",
            "--connect",
            &self.connect,
            "--archive",
            &self.corpus,
            "--chunks",
            "8",
            "--out",
            out,
        ])
    }
}

impl Workload for FleetReduce {
    fn set_up(h: &Harness, dir: &Path, seed: &str) -> Result<Self, String> {
        let corpus = h.seal(dir, seed)?;
        let mut workers = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..2 {
            let mut worker =
                h.spawn(&["shard", "--listen", "127.0.0.1:0", "--archive", &corpus])?;
            addrs.push(worker.announced("shard worker on ", OP_DEADLINE)?);
            workers.push(worker);
        }
        let mut fleet = FleetReduce {
            dir: dir.to_owned(),
            corpus,
            workers,
            connect: addrs.join(","),
            expected: Vec::new(),
        };
        let out = path_str(&dir.join("warmup.txt"));
        if !fleet.op(h, &out)?.1.success {
            return Err("warm-up fleet reduce failed".to_owned());
        }
        fleet.expected = std::fs::read(&out).map_err(|e| format!("{out}: {e}"))?;
        Ok(fleet)
    }

    fn measure(&mut self, h: &Harness, ops: usize, r: &mut Round) -> Result<(), String> {
        let workers_cpu = |ws: &[Proc]| ws.iter().map(|p| p.cpu_ms().unwrap_or(0.0)).sum::<f64>();
        let cpu_before = workers_cpu(&self.workers);
        let out = path_str(&self.dir.join("reduce.txt"));
        measure_to_exit(h, r, ops, &out, &self.expected, || self.op(h, &out))?;
        r.cpu_ms += workers_cpu(&self.workers) - cpu_before;
        r.standing_rss_mb = self
            .workers
            .iter()
            .map(|p| p.peak_rss_mb().unwrap_or(0.0))
            .sum();
        Ok(())
    }

    fn verify(&mut self, h: &Harness) -> Result<(), String> {
        if h.reference(&self.dir, &self.corpus)? != self.expected {
            return Err("fleet reduce differs from `report --archive`".to_owned());
        }
        Ok(())
    }
}

/// A server that has just reported head, and what getting there cost.
struct CaughtUp {
    /// Wall time from spawn to the first `"head":true`.
    elapsed_ms: f64,
    /// CPU the server had used when head was sighted.
    cpu_ms: f64,
    epochs: u64,
    /// `(ms since spawn, epoch)` of every `/healthz` answer.
    sightings: Vec<(f64, u64)>,
    server: Proc,
    conn: Conn,
}

/// Spawn `serve --epoch-ms 0` over the corpus and poll `/healthz` until it
/// reports head: cold start plus one epoch publish per batch.
struct FollowCatchup {
    dir: PathBuf,
    corpus: String,
    /// Epochs a catch-up takes; every op must publish exactly as many.
    epochs: u64,
}

impl FollowCatchup {
    fn catch_up(h: &Harness, corpus: &str) -> Result<CaughtUp, String> {
        let started = Instant::now();
        let (server, mut conn) = h.serve(corpus, h.scale.follow_batch, 0)?;
        let mut sightings = Vec::new();
        loop {
            let (epoch, head) = healthz(&mut conn)?;
            let elapsed_ms = ms(started.elapsed());
            sightings.push((elapsed_ms, epoch));
            if head {
                return Ok(CaughtUp {
                    elapsed_ms,
                    cpu_ms: server.cpu_ms().unwrap_or(0.0),
                    epochs: epoch,
                    sightings,
                    server,
                    conn,
                });
            }
            if started.elapsed() > OP_DEADLINE {
                return Err("server did not reach head before the op deadline".to_owned());
            }
            std::thread::sleep(HEAD_POLL);
        }
    }
}

impl Workload for FollowCatchup {
    fn set_up(h: &Harness, dir: &Path, seed: &str) -> Result<Self, String> {
        let corpus = h.seal(dir, seed)?;
        let warm = FollowCatchup::catch_up(h, &corpus)?;
        if !shut_down(warm.server, warm.conn).success {
            return Err("warm-up serve did not exit cleanly".to_owned());
        }
        Ok(FollowCatchup {
            dir: dir.to_owned(),
            corpus,
            epochs: warm.epochs,
        })
    }

    /// The op ends at head: the shutdown that follows is neither timed nor
    /// billed, only checked.
    fn measure(&mut self, h: &Harness, ops: usize, r: &mut Round) -> Result<(), String> {
        for _ in 0..ops {
            match FollowCatchup::catch_up(h, &self.corpus) {
                Ok(op) => {
                    let exit = shut_down(op.server, op.conn);
                    r.cpu_ms += op.cpu_ms;
                    if exit.success && op.epochs == self.epochs {
                        r.op_ms.push(op.elapsed_ms);
                        r.op_peak_rss_mb.push(exit.peak_rss_mb);
                    } else {
                        r.fail(format!(
                            "head at epoch {}, expected {}",
                            op.epochs, self.epochs
                        ));
                    }
                }
                Err(why) => r.fail(why),
            }
            r.probe_ms.push(h.probe.sample_ms()?);
        }
        Ok(())
    }

    /// One more, uncounted catch-up whose `/report` at head must equal the
    /// one-shot report (asking a measured op would bill it Figure 2).
    fn verify(&mut self, h: &Harness) -> Result<(), String> {
        let mut at_head = FollowCatchup::catch_up(h, &self.corpus)?;
        let served = get_ok(&mut at_head.conn, "/report");
        shut_down(at_head.server, at_head.conn);
        if served? != h.reference(&self.dir, &self.corpus)? {
            return Err("`/report` at head differs from `report --archive`".to_owned());
        }
        Ok(())
    }
}

/// One keep-alive client watches `/healthz` of a slowly following `serve`
/// and, on each new epoch, re-reads the whole route set: every GET is the
/// first read of a fresh snapshot, issued while the follower sleeps. A
/// round is one server session, from the warm-up to head.
struct ServeRefresh {
    dir: PathBuf,
    corpus: String,
    /// The server the set-up started, until `measure` has followed it.
    session: Option<(Proc, Conn)>,
    head_report: Vec<u8>,
}

impl ServeRefresh {
    fn refresh(conn: &mut Conn) -> Result<(), String> {
        ROUTES
            .iter()
            .try_for_each(|path| get_ok(conn, path).map(drop))
    }
}

impl Workload for ServeRefresh {
    /// Seal, spawn the server and pay the one lazy cost readers share (the
    /// Figure 2 storage sweep behind the first `/report`).
    fn set_up(h: &Harness, dir: &Path, seed: &str) -> Result<Self, String> {
        let corpus = h.seal(dir, seed)?;
        let (server, mut conn) =
            h.serve(&corpus, h.scale.refresh_batch, h.scale.refresh_epoch_ms)?;
        ServeRefresh::refresh(&mut conn)?;
        Ok(ServeRefresh {
            dir: dir.to_owned(),
            corpus,
            session: Some((server, conn)),
            head_report: Vec::new(),
        })
    }

    /// One op per new epoch until head, however many `ops` says: the route
    /// set gets dearer as the snapshot grows, so a session cut short would
    /// skew the median towards the cheap early epochs. The server's CPU is
    /// read around each op, so what the follower burns between ops is not
    /// billed to them.
    fn measure(&mut self, h: &Harness, _ops: usize, r: &mut Round) -> Result<(), String> {
        let (server, mut conn) = self.session.take().ok_or("the session was already run")?;
        let started = Instant::now();
        let (mut seen, mut head) = healthz(&mut conn)?;
        let mut skipped = 0;
        while !head {
            if started.elapsed() > 10 * OP_DEADLINE {
                return Err("session did not reach head".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
            let (epoch, at_head) = healthz(&mut conn)?;
            if epoch == seen {
                continue;
            }
            skipped += epoch - seen - 1;
            (seen, head) = (epoch, at_head);
            let cpu_before = server.cpu_ms().unwrap_or(0.0);
            let op = Instant::now();
            match ServeRefresh::refresh(&mut conn) {
                Ok(()) => r.op_ms.push(ms(op.elapsed())),
                Err(why) => r.fail(why),
            }
            r.cpu_ms += server.cpu_ms().unwrap_or(0.0) - cpu_before;
            if (r.op_ms.len() + r.failed as usize).is_multiple_of(REFRESH_OPS_PER_PROBE) {
                r.probe_ms.push(h.probe.sample_ms()?);
            }
        }
        self.head_report = get_ok(&mut conn, "/report")?;
        let exit = shut_down(server, conn);
        r.op_peak_rss_mb.push(exit.peak_rss_mb);
        if !exit.success {
            r.fail("serve did not exit cleanly".to_owned());
        }
        if skipped > 0 {
            r.notes
                .push(format!("{skipped} epoch(s) went by unread in one session"));
        }
        Ok(())
    }

    fn verify(&mut self, h: &Harness) -> Result<(), String> {
        if h.reference(&self.dir, &self.corpus)? != self.head_report {
            return Err("`/report` at head differs from `report --archive`".to_owned());
        }
        Ok(())
    }
}

/// The rounds of one run: for each, a timed set-up from nothing with the
/// round's own scenario seed, the ops, the teardown check.
fn run_rounds<W: Workload>(
    h: &Harness,
    seed: u64,
    rounds: usize,
    ops: usize,
) -> Result<(Vec<Round>, Vec<f64>, bool), String> {
    let mut done = Vec::new();
    let mut setup_s = Vec::new();
    let mut verified = true;
    for k in 0..rounds {
        let dir = h
            .tmp
            .subdir(&format!("round-{k}"))
            .map_err(|e| e.to_string())?;
        let seed = round_seed(seed, k).to_string();
        let mut around_set_up = h.probe.samples_ms(PROBE_BATCH)?;
        let started = Instant::now();
        let mut state = W::set_up(h, &dir, &seed)?;
        let set_up_s = started.elapsed().as_secs_f64();
        let mut r = Round {
            probe_ms: h.probe.samples_ms(PROBE_BATCH)?,
            ..Round::default()
        };
        around_set_up.extend(&r.probe_ms);
        setup_s.push(set_up_s * calib::factor(&around_set_up));
        state.measure(h, ops, &mut r)?;
        r.calibrate();
        if let Err(why) = state.verify(h) {
            verified = false;
            r.notes.push(format!(
                "round {k} (seed {seed}) failed verification: {why}"
            ));
        }
        println!(
            "note round {k}: seed {seed}, host speed x{:.3}, set-up {:.4} s, {} op(s), median {:.3} ms, {} failed",
            1.0 / r.speed_factor,
            setup_s[k],
            r.op_ms.len(),
            stats::median(&r.op_ms),
            r.failed
        );
        // The round's servers are gone before the next set-up is timed.
        drop(state);
        let _ = std::fs::remove_dir_all(&dir);
        done.push(r);
        if done.iter().map(|r| r.failed).sum::<u64>() >= MAX_FAILURES {
            break;
        }
    }
    Ok((done, setup_s, verified))
}

/// One workload, the driver's way: the rounds, then the seven end-to-end
/// metrics. Timings are medians over every op of the run; the per-round
/// figures (throughput, CPU, memory, set-up) are medians over the rounds,
/// so one disturbed round does not decide them.
fn run_workload<W: Workload>(
    h: &Harness,
    workload: &str,
    seed: u64,
    (rounds, ops): (usize, usize),
    tail: stats::Tail,
) -> Result<RunResult, String> {
    let (done, setup_s, verified) = run_rounds::<W>(h, seed, rounds, ops)?;
    for note in done.iter().flat_map(|r| &r.notes) {
        println!("note {note}");
    }
    let op_ms: Vec<f64> = done.iter().flat_map(|r| r.op_ms.iter().copied()).collect();
    let failed: u64 = done.iter().map(|r| r.failed).sum();
    let n = op_ms.len();
    let attempted = n as u64 + failed;
    if n == 0 {
        return Err("no op completed".to_owned());
    }
    println!(
        "note {n} op(s) in {} round(s); op_tail_ms is their {}; min {:.3} p10 {:.3} p50 {:.3} p90 {:.3} max {:.3} ms",
        done.len(),
        tail.name(),
        stats::percentile(&op_ms, 0.0),
        stats::percentile(&op_ms, 0.10),
        stats::median(&op_ms),
        stats::percentile(&op_ms, 0.90),
        stats::percentile(&op_ms, 1.0),
    );
    // What a stopwatch read, for the traced run to compare itself with.
    let wall_ms: Vec<f64> = done
        .iter()
        .flat_map(|r| r.op_ms.iter().map(|t| t / r.speed_factor))
        .collect();
    println!(
        "metric {workload}/{WALL_METRIC} = {} ms (uncalibrated median)",
        stats::median(&wall_ms)
    );
    let per_round = |f: &dyn Fn(&Round) -> f64| {
        let values: Vec<f64> = done.iter().filter(|r| !r.op_ms.is_empty()).map(f).collect();
        stats::median(&values)
    };
    let metrics = vec![
        Metric::new("op_ms", stats::median(&op_ms), "ms"),
        Metric::new("op_tail_ms", tail.of(&op_ms), "ms"),
        Metric::new(
            "ops_per_s",
            per_round(&|r| r.op_ms.len() as f64 * 1000.0 / r.op_ms.iter().sum::<f64>()),
            "1/s",
        ),
        Metric::new(
            "cpu_ms_per_op",
            per_round(&|r| r.cpu_ms / (r.op_ms.len() as u64 + r.failed) as f64),
            "ms",
        ),
        Metric::new(
            "peak_rss_mb",
            per_round(&|r| stats::median(&r.op_peak_rss_mb) + r.standing_rss_mb),
            "MB",
        ),
        Metric::new("setup_s", stats::median(&setup_s), "s"),
        // `failed_share` the other way up: the contract wants metrics that
        // are never 0, and this one is 1 unless an op fails.
        Metric::new("ok_share", n as f64 / attempted as f64, "ratio"),
    ];
    Ok(RunResult {
        correct: verified && failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Contract mode, `--trace 0`.
fn end_to_end(args: &Args, workload: &str, cpu: usize) -> Result<RunResult, String> {
    let scale = args.run_scale();
    let h = Harness::new(scale)?;
    let plan = args.plan(workload)?;
    let tail = scale.tail[workload_index(workload)?];
    fingerprint::print(args.seed, scale.name, cpu);
    let result = match workload {
        "report" => run_workload::<Report>(&h, workload, args.seed, plan, tail),
        "fleet_reduce" => run_workload::<FleetReduce>(&h, workload, args.seed, plan, tail),
        "follow_catchup" => run_workload::<FollowCatchup>(&h, workload, args.seed, plan, tail),
        "serve_refresh" => run_workload::<ServeRefresh>(&h, workload, args.seed, plan, tail),
        other => Err(format!("unknown workload {other:?}")),
    };
    result.map_err(|e| format!("{e}\n--- last stderr of the children ---\n{}", h.log_tail()))
}

/// `follow.epoch_interval_p50_ms` and `follow.publish_growth` as a client
/// sees them: from the `/healthz` sightings of one round of real catch-ups.
fn follow_sightings(args: &Args) -> Result<(f64, f64), String> {
    let h = Harness::new(args.run_scale())?;
    let dir = h.tmp.subdir("sightings").map_err(|e| e.to_string())?;
    let corpus = h.seal(&dir, &round_seed(args.seed, 0).to_string())?;
    let (_, ops) = args.plan("follow_catchup")?;
    let (mut p50, mut growth) = (Vec::new(), Vec::new());
    for _ in 0..ops {
        let op = FollowCatchup::catch_up(&h, &corpus)?;
        shut_down(op.server, op.conn);
        let intervals = stats::epoch_intervals(&op.sightings);
        p50.push(stats::median(&intervals));
        let (first, last) = stats::decile_means(&intervals);
        growth.push(last / first.max(f64::MIN_POSITIVE));
    }
    Ok((stats::median(&p50), stats::median(&growth)))
}

/// Contract mode, `--trace 1`: the sibling `layers` binary's result line,
/// with the two `follow.*` figures of `follow_catchup` taken at the process
/// boundary instead.
fn traced(args: &Args, workload: &str) -> Result<(), String> {
    let (mut v, _) = child_run(args, args.run_scale(), workload, "layers")?;
    if workload == "follow_catchup" {
        let (p50, growth) = follow_sightings(args)?;
        for (name, value, unit) in [
            ("follow.epoch_interval_p50_ms", p50, "ms"),
            ("follow.publish_growth", growth, "ratio"),
        ] {
            println!("metric {workload}/{name} = {value} {unit} (from /healthz sightings)");
            let serde_json::Value::Object(line) = &mut v else {
                return Err("result line is not an object".to_owned());
            };
            let Some(serde_json::Value::Object(metrics)) = line.get_mut("metrics") else {
                return Err("result line has no metrics".to_owned());
            };
            metrics.insert(
                name.to_owned(),
                serde_json::json!({"value": value, "unit": unit}),
            );
        }
    }
    println!("{}", serde_json::to_string(&v).expect("a Value serializes"));
    Ok(())
}

// ---- suite mode --------------------------------------------------------------

/// Run one workload in a child — this binary again (`trace` "0" or "1") or
/// its sibling (`trace` "layers") — echo what it prints, and parse the
/// result line and, where the child printed one, the wall-clock op median.
fn child_run(
    args: &Args,
    scale: Scale,
    workload: &str,
    trace: &str,
) -> Result<(serde_json::Value, Option<f64>), String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let program = if trace == "layers" {
        me.with_file_name("layers")
    } else {
        me
    };
    let mut cmd = Command::new(&program);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args(["--scale", scale.name]);
    cmd.args(["--trace", if trace == "0" { "0" } else { "1" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(op_ms) = args.e2e_op_ms {
        cmd.args(["--e2e-op-ms", &op_ms.to_string()]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", program.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            out.status
        ));
    }
    let last = text.lines().last().unwrap_or("");
    let v: serde_json::Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    if v["correct"].as_bool() != Some(true) || v["failed"].as_u64() != Some(0) {
        return Err(format!(
            "{workload} (trace {trace}): outputs incorrect or ops failed"
        ));
    }
    let wall_line = format!("metric {workload}/{WALL_METRIC} = ");
    let wall_ms = text
        .lines()
        .find_map(|l| l.strip_prefix(&wall_line)?.split(' ').next()?.parse().ok());
    Ok((v, wall_ms))
}

/// `(name, bound)` of every end-to-end metric, from the one place bounds
/// are fixed.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let v = contract()?;
    let list = v["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| match (m["name"].as_str(), m["bound"].as_f64()) {
            (Some(name), Some(bound)) => Ok((name.to_owned(), bound)),
            _ => Err("end_to_end entry without name/bound".to_owned()),
        })
        .collect()
}

/// Two back-to-back end-to-end passes over the same build must agree
/// within each metric's bound; prints the table, returns the excesses.
fn selfcheck(args: &Args, scale: Scale, workloads: &[&str]) -> Result<usize, String> {
    let bounds = bounds()?;
    let mut passes = Vec::new();
    for pass in ["A", "B"] {
        println!("== selfcheck {}: pass {pass} ==", scale.name);
        let mut results = Vec::new();
        for w in workloads {
            results.push(child_run(args, scale, w, "0")?.0);
        }
        passes.push(results);
    }
    println!("== selfcheck {}: A/A agreement ==", scale.name);
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let mut excesses = 0;
    for (i, w) in workloads.iter().enumerate() {
        for (name, bound) in &bounds {
            let value = |pass: usize| passes[pass][i]["metrics"][name.as_str()]["value"].as_f64();
            let (Some(a), Some(b)) = (value(0), value(1)) else {
                return Err(format!("{w}: metric {name} missing from a result line"));
            };
            let diff = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
            let ok = diff <= *bound;
            excesses += usize::from(!ok);
            println!(
                "{w:<16} {name:<14} {a:>12.4} {b:>12.4} {:>7.2}% {:>6.1}%  {}",
                100.0 * diff,
                100.0 * bound,
                if ok { "ok" } else { "EXCESS" }
            );
        }
    }
    Ok(excesses)
}

fn suite(args: &Args) -> Result<ExitCode, String> {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    // Both scales unless one is asked for; the smoke run is the small one.
    let scales = match args.scale {
        Some(scale) => vec![scale],
        None if args.smoke => vec![Scale::SMALL],
        None => vec![Scale::SMALL, Scale::PAPER],
    };
    if args.selfcheck {
        let mut excesses = 0;
        for scale in scales {
            excesses += selfcheck(args, scale, &workloads)?;
        }
        println!("selfcheck: {excesses} metric(s) outside their bound");
        return Ok(if excesses == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    for scale in &scales {
        for w in &workloads {
            println!("== {} {w}: end to end ==", scale.name);
            let (_, e2e_op_ms) = child_run(args, *scale, w, "0")?;
            println!("== {} {w}: traced layers ==", scale.name);
            let traced = Args {
                e2e_op_ms,
                ..args.clone()
            };
            child_run(&traced, *scale, w, "1")?;
        }
    }
    println!(
        "suite: {} workload(s) at {} scale(s), every output verified byte for byte",
        workloads.len(),
        scales.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(calib::HELPER_FLAG) {
        return match calib::serve_probe() {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        };
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: run.sh [--workload W] [--seed N] [--seconds S] [--scale small|paper] \
                 [--smoke | --selfcheck | --trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = pin_to_one_cpu().and_then(|cpu| match (args.trace, &args.workload) {
        (Some(false), Some(w)) => end_to_end(&args, w, cpu).map(|r| {
            r.print(w);
            ExitCode::SUCCESS
        }),
        (Some(true), Some(w)) => traced(&args, w).map(|()| ExitCode::SUCCESS),
        (Some(_), None) => Err("--trace needs --workload".to_owned()),
        (None, _) => suite(&args),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
