//! Fault-tolerant socket shard fleet: the reducer side that drives remote
//! shard workers over TCP, and the worker side that serves range
//! assignments (each answered with a [`RangeFold`]'s frames).
//!
//! ```text
//!   chunks [0,a) [a,b) [b,c) …  ── homes: rendezvous rank, loads ≤ ⌈chunks/workers⌉
//!              ┌──── board (one Mutex, one Condvar) ───────────────┐
//!   reducer ──▶│ queue A: [0,a) [b,c)   queue B: [a,b) …   queue C: …│
//!              │ outstanding   results   failures   alive per worker │
//!              └──┬─────────────┬──────────────┬───────────────────┘
//!                 ▼             ▼              ▼   pop own queue; empty → wait on the condvar
//!           driver thread  driver thread  driver thread   (one per --connect, scoped)
//!           addr A         addr B         addr C
//!             │ connect-per-request: connect + assignment under one deadline,
//!             │ the reply (the worker's sweep included) under a second
//!             │ retry × budget with exponential backoff + jitter
//!             │ frames in → record them, outstanding − 1, notify_all
//!             │ budget exhausted → mark worker dead; its queue and the chunk
//!             │                    it gave up move, chunk by chunk, to the
//!             │                    next-ranked live worker (re-dispatch),
//!             │                    notify_all, thread exits
//!             ▼
//!           (chunk id, origin addr, frames) → sorted merge
//! ```
//!
//! Homes: every chunk has one home worker, fixed before any driver starts.
//! A worker's rank for a chunk is [`fnv1a64`] over the chunk's start and the
//! worker's address (highest-random-weight, or rendezvous, hashing), and the
//! chunks, walked in order, each go to the highest-ranked worker still
//! holding fewer than `⌈chunks / workers⌉`. The homes depend on the chunk
//! starts and the address set, not on the order of `--connect` nor on which
//! driver is fastest, so a repeat reduce sends every range where it went
//! before: an archived worker answers it from the segment states it kept,
//! and a warm fleet holds each state once. A live worker's chunks are never
//! taken by an idle driver: on equal workers that only turns a hit into a
//! miss and a second copy of the state.
//!
//! Liveness: a thread holding a chunk either completes it (decrementing
//! the outstanding count) or dies and re-homes it, and does either under
//! the board's lock before waking every waiting thread. A thread that finds
//! its queue empty while some chunk is outstanding waits on the condvar
//! until a chunk is re-homed to it or the last one completes — never on a
//! timer. A live driver exits only when every chunk is done, so a re-homed
//! chunk always lands on a driver that will pop it; only when no worker is
//! left does it stay in its dead home's queue. So either every chunk
//! completes, or all threads exit and the queued chunks surface as a typed
//! [`FleetError::Exhausted`] naming every worker failure — the driver can
//! stall only while some worker is inside its bounded retry loop, whose
//! backoff is the only timed wait.
//!
//! Double-delivery is impossible by construction downstream: a re-dispatched
//! range that somehow also arrived from the original worker would overlap
//! in `ReduceSession` and be rejected. All activity is exported through
//! the `txstat_fleet_*` telemetry families.
//!
//! [`RangeFold`]: crate::reduce::RangeFold

use std::collections::VecDeque;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::{Arc, Condvar, LazyLock, Mutex, PoisonError};
use std::time::{Duration, Instant};
use txstat_netsim::Timed;
use txstat_telemetry::{registry, Counter, Histogram};
use txstat_types::ids::{fnv1a64, fnv1a64_extend};
use txstat_types::rng::subseed_n;
use txstat_wire::fleet::{
    read_assignment, read_response, write_assignment, write_error, write_frames, Assignment,
    ProtocolError,
};
use txstat_wire::{PayloadFormat, ShardFrame};

/// How the fleet drives its workers: addresses, chunking, deadlines, and
/// retry policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker addresses (`host:port`), one driver thread each.
    pub workers: Vec<String>,
    /// Number of block-range chunks to tile the sweep into. No worker is
    /// home to more than `⌈chunks / workers⌉` of them, and more chunks than
    /// workers makes re-dispatch granular. With
    /// [`FleetConfig::segment_ends`] set, this is an upper bound: there are
    /// never more chunks than segments.
    pub chunks: usize,
    /// Where each segment of the corpus the workers hold ends, ascending
    /// (`reduce --connect --archive` fills it from the archive it opened).
    /// Set, every chunk is a run of whole segments, so an archived worker
    /// answers it from swept segment state without decoding a block. Empty,
    /// chunks tile the positions evenly.
    pub segment_ends: Vec<u64>,
    /// Per-request deadlines: the connect and the assignment write share
    /// one of this length, and reading the reply (the worker's sweep
    /// included) gets another.
    pub timeout: Duration,
    /// Consecutive failed attempts a worker may burn on one chunk before
    /// the chunk is re-dispatched and the worker is declared dead.
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt up to
    /// `FleetConfig::BACKOFF_CAP_MS`, plus a deterministic jitter below
    /// both the base and that cap.
    pub backoff_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl FleetConfig {
    /// Ceiling on a single backoff sleep, and the largest `backoff_ms`
    /// `reduce --backoff-ms` accepts.
    pub const BACKOFF_CAP_MS: u64 = 2_000;

    pub fn new(workers: Vec<String>) -> Self {
        FleetConfig {
            workers,
            chunks: 0,
            segment_ends: Vec::new(),
            timeout: Duration::from_secs(10),
            retries: 4,
            backoff_ms: 50,
            seed: 0,
        }
    }

    /// Chunk count actually used: the configured one, or 3 chunks per
    /// worker when left at 0.
    fn effective_chunks(&self) -> usize {
        if self.chunks > 0 {
            self.chunks
        } else {
            (self.workers.len() * 3).max(1)
        }
    }
}

/// Fleet-level failures (per-request failures are retried internally and
/// only surface here once every recovery path is spent).
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// No worker addresses were given.
    NoWorkers,
    /// Every worker died and `pending` chunks still had no frames. Each
    /// entry of `failures` names a worker address and its final error.
    Exhausted {
        pending: usize,
        failures: Vec<String>,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoWorkers => write!(f, "fleet has no worker addresses"),
            FleetError::Exhausted { pending, failures } => {
                write!(
                    f,
                    "fleet exhausted with {pending} range(s) unswept; worker failures: "
                )?;
                for (i, w) in failures.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{w}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// The `txstat_fleet_*` families: the reducer's request accounting and the
/// worker's served count. Built on first use; building it registers every
/// series at zero.
struct FleetMetrics {
    requests_ok: Arc<Counter>,
    requests_error: Arc<Counter>,
    retries: Arc<Counter>,
    reconnects: Arc<Counter>,
    redispatch: Arc<Counter>,
    workers_failed: Arc<Counter>,
    served: Arc<Counter>,
    request_us: Arc<Histogram>,
}

static METRICS: LazyLock<FleetMetrics> = LazyLock::new(|| {
    let reg = registry();
    let [requests_ok, requests_error] = ["ok", "error"].map(|result| {
        reg.counter_with(
            "txstat_fleet_requests_total",
            "Fleet range requests by outcome",
            &[("result", result)],
        )
    });
    FleetMetrics {
        requests_ok,
        requests_error,
        retries: reg.counter(
            "txstat_fleet_retries_total",
            "Fleet request attempts after a failure",
        ),
        reconnects: reg.counter(
            "txstat_fleet_reconnects_total",
            "Fleet connections re-established after at least one failure",
        ),
        redispatch: reg.counter(
            "txstat_fleet_redispatch_total",
            "Range chunks re-dispatched after a worker exhausted its retry budget",
        ),
        workers_failed: reg.counter(
            "txstat_fleet_workers_failed_total",
            "Workers declared dead by the reducer",
        ),
        served: reg.counter(
            "txstat_fleet_served_total",
            "Assignments served successfully by this worker",
        ),
        request_us: reg.histogram("txstat_fleet_request_us", "Fleet request latency"),
    }
});

/// Eagerly register the `txstat_fleet_*` families (at zero) so they are
/// rendered by `/metrics` before any fleet runs.
pub fn register_metrics() {
    LazyLock::force(&METRICS);
}

/// Tile block positions `[0, total)` into `chunks` contiguous ranges (the
/// last absorbs the remainder). `total == 0` yields one empty chunk so a
/// degenerate sweep still validates provenance end to end.
fn tile(total: u64, chunks: usize) -> Vec<(u64, u64)> {
    let chunks = (chunks.max(1) as u64).min(total.max(1));
    let size = total / chunks;
    let mut out = Vec::with_capacity(chunks as usize);
    for i in 0..chunks {
        let start = i * size;
        let end = if i + 1 == chunks { total } else { start + size };
        out.push((start, end));
    }
    out
}

/// Tile block positions `[0, total)` into at most `chunks` runs of whole
/// segments, cutting only where a segment of `segment_ends` (ascending)
/// ends; ends outside `(0, total)` cut nothing. Of `n` segments, chunk `k`
/// of `c = min(chunks, n)` takes segments `[k·n/c, (k+1)·n/c)`: no chunk
/// is empty and no segment is split. `total == 0` yields one empty chunk,
/// like [`tile`].
fn tile_segments(total: u64, chunks: usize, segment_ends: &[u64]) -> Vec<(u64, u64)> {
    let mut edges = vec![0];
    edges.extend(
        segment_ends
            .iter()
            .copied()
            .filter(|&end| 0 < end && end < total),
    );
    edges.push(total);
    let n = edges.len() - 1;
    let c = chunks.clamp(1, n);
    (0..c)
        .map(|k| (edges[k * n / c], edges[(k + 1) * n / c]))
        .collect()
}

/// One queued unit of work.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    id: usize,
    start: u64,
    end: u64,
}

/// A worker's rendezvous rank for the chunk starting at `start`: the
/// highest rank among the workers that may take it is the chunk's home.
fn rank(start: u64, addr: &str) -> u64 {
    fnv1a64_extend(fnv1a64(&start.to_le_bytes()), addr.as_bytes())
}

/// The highest-ranked worker for the chunk at `start` among those `open`
/// admits; `None` when it admits none.
fn best(start: u64, workers: &[String], open: impl Fn(usize) -> bool) -> Option<usize> {
    (0..workers.len())
        .filter(|&w| open(w))
        .max_by_key(|&w| rank(start, &workers[w]))
}

/// One queue per worker, index-aligned with `workers`: each range, in
/// order, becomes the chunk of its highest-ranked worker holding fewer than
/// `⌈ranges / workers⌉`, so no two loads differ by more than one chunk.
fn home_queues(ranges: Vec<(u64, u64)>, workers: &[String]) -> Vec<VecDeque<Chunk>> {
    let cap = ranges.len().div_ceil(workers.len());
    let mut queues = vec![VecDeque::new(); workers.len()];
    for (id, (start, end)) in ranges.into_iter().enumerate() {
        let home = best(start, workers, |w| queues[w].len() < cap)
            .expect("the loads under the cap hold every chunk");
        queues[home].push_back(Chunk { id, start, end });
    }
    queues
}

/// Everything the driver threads share, behind one lock.
struct Board {
    /// Each worker's queue, index-aligned with `FleetConfig::workers`.
    queues: Vec<VecDeque<Chunk>>,
    /// Whether each worker's driver still runs.
    alive: Vec<bool>,
    /// Chunks not yet completed (queued OR currently held by a thread).
    outstanding: usize,
    results: Vec<(usize, String, Vec<ShardFrame>)>,
    failures: Vec<String>,
}

/// The board and the condvar its waiters block on. Every change a waiter
/// could be waiting for (a completion, a re-homed chunk) is made and
/// signalled under the lock, so no wakeup can fall between a waiter's check
/// and its wait.
struct Shared {
    board: Mutex<Board>,
    changed: Condvar,
}

impl Shared {
    /// Worker `w`'s next chunk, waiting while its queue is empty but some
    /// other thread still holds a chunk; `None` once every chunk is done.
    fn next(&self, w: usize) -> Option<Chunk> {
        let mut board = self.board.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if board.outstanding == 0 {
                return None;
            }
            if let Some(chunk) = board.queues[w].pop_front() {
                return Some(chunk);
            }
            board = self
                .changed
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn complete(&self, chunk: Chunk, addr: &str, frames: Vec<ShardFrame>) {
        let mut board = self.board.lock().unwrap_or_else(PoisonError::into_inner);
        board.results.push((chunk.id, addr.to_owned(), frames));
        board.outstanding -= 1;
        self.changed.notify_all();
    }

    /// Worker `w` gave `chunk` up and dies: its queue and `chunk` move,
    /// chunk by chunk, to the next-ranked live worker, or stay queued when
    /// none is left. `failure` says why.
    fn redispatch(&self, workers: &[String], w: usize, chunk: Chunk, failure: String) {
        let mut board = self.board.lock().unwrap_or_else(PoisonError::into_inner);
        board.alive[w] = false;
        board.failures.push(failure);
        let orphans: Vec<Chunk> = std::iter::once(chunk)
            .chain(std::mem::take(&mut board.queues[w]))
            .collect();
        for chunk in orphans {
            let heir = best(chunk.start, workers, |v| board.alive[v]);
            if heir.is_some() {
                METRICS.redispatch.inc();
            }
            board.queues[heir.unwrap_or(w)].push_back(chunk);
        }
        self.changed.notify_all();
    }
}

/// One connect/request/response exchange against `addr` in two stages of
/// `timeout` each: the connect and the assignment write, then the reply,
/// which includes the worker's sweep.
pub(crate) fn request_frames(
    addr: &str,
    a: &Assignment,
    timeout: Duration,
) -> Result<Vec<ShardFrame>, ProtocolError> {
    let io = |what: &str, e: std::io::Error| ProtocolError::Io(format!("{addr}: {what}: {e}"));
    let sa = addr
        .to_socket_addrs()
        .map_err(|e| io("resolve", e))?
        .next()
        .ok_or_else(|| ProtocolError::Io(format!("{addr}: resolves to no address")))?;
    let mut stream = Timed::connect(sa, timeout).map_err(|e| io("connect", e))?;
    write_assignment(&mut stream, a)?;
    stream.restart(timeout);
    read_response(&mut stream)
}

/// Deterministic exponential backoff with jitter: `base << attempt`,
/// capped, plus a seed-derived jitter in `[0, base)` with `base` capped the
/// same way, so no sleep reaches twice the cap whatever `--backoff-ms` says.
fn backoff(cfg: &FleetConfig, addr: &str, attempt: u32) -> Duration {
    let base = cfg.backoff_ms.max(1);
    let exp = base
        .saturating_mul(1u64 << attempt.min(16))
        .min(FleetConfig::BACKOFF_CAP_MS);
    let jitter = subseed_n(cfg.seed, addr, attempt as u64) % base.min(FleetConfig::BACKOFF_CAP_MS);
    Duration::from_millis(exp + jitter)
}

/// Request `chunk` from `addr`, retrying with backoff up to the budget.
/// Counts every attempt into the `txstat_fleet_*` families.
fn request_with_retry(
    cfg: &FleetConfig,
    addr: &str,
    a: &Assignment,
) -> Result<Vec<ShardFrame>, ProtocolError> {
    let mut last = ProtocolError::Io("no attempt made".to_owned());
    for attempt in 0..=cfg.retries {
        if attempt > 0 {
            METRICS.retries.inc();
            std::thread::sleep(backoff(cfg, addr, attempt - 1));
        }
        let started = Instant::now();
        match request_frames(addr, a, cfg.timeout) {
            Ok(frames) => {
                METRICS.request_us.record(started.elapsed());
                METRICS.requests_ok.inc();
                if attempt > 0 {
                    METRICS.reconnects.inc();
                }
                return Ok(frames);
            }
            Err(e) => {
                METRICS.requests_error.inc();
                last = e;
            }
        }
    }
    Err(last)
}

/// Drive the worker fleet over the block positions `[0, total)` and return
/// every produced frame tagged with the address of the worker that swept
/// it, in ascending chunk order.
///
/// Each chunk has a home worker (see the module docs), and each worker
/// address gets one driver thread sweeping its homes. A worker that exhausts
/// its retry budget on a chunk hands that chunk and the rest of its queue to
/// the survivors (re-dispatch) and is not used again. The call returns
/// [`FleetError::Exhausted`] — naming every worker's final error — if the
/// whole fleet dies with work left.
///
/// `_shards` and `_payload` are ignored: a worker folds each range in one
/// piece and speaks one payload format. They stay until the benchmark's
/// layer harness stops passing them (ROADMAP 1(b)).
pub fn reduce_fleet(
    cfg: &FleetConfig,
    total: u64,
    _shards: usize,
    _payload: PayloadFormat,
    meta: serde::Value,
) -> Result<Vec<(String, ShardFrame)>, FleetError> {
    if cfg.workers.is_empty() {
        return Err(FleetError::NoWorkers);
    }
    let ranges = if cfg.segment_ends.is_empty() {
        tile(total, cfg.effective_chunks())
    } else {
        tile_segments(total, cfg.effective_chunks(), &cfg.segment_ends)
    };
    let shared = Shared {
        board: Mutex::new(Board {
            outstanding: ranges.len(),
            queues: home_queues(ranges, &cfg.workers),
            alive: vec![true; cfg.workers.len()],
            results: Vec::new(),
            failures: Vec::new(),
        }),
        changed: Condvar::new(),
    };
    std::thread::scope(|s| {
        for w in 0..cfg.workers.len() {
            let (shared, meta) = (&shared, &meta);
            s.spawn(move || worker_loop(cfg, w, meta, shared));
        }
    });

    let board = shared
        .board
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if board.outstanding > 0 {
        return Err(FleetError::Exhausted {
            pending: board.queues.iter().map(VecDeque::len).sum(),
            failures: board.failures,
        });
    }
    let mut results = board.results;
    results.sort_by_key(|(id, _, _)| *id);
    Ok(results
        .into_iter()
        .flat_map(|(_, addr, frames)| frames.into_iter().map(move |f| (addr.clone(), f)))
        .collect())
}

fn worker_loop(cfg: &FleetConfig, w: usize, meta: &serde::Value, shared: &Shared) {
    let addr = &cfg.workers[w];
    while let Some(chunk) = shared.next(w) {
        let a = Assignment {
            start: chunk.start,
            end: chunk.end,
            shards: 1,
            payload: PayloadFormat::Bin,
            meta: meta.clone(),
        };
        match request_with_retry(cfg, addr, &a) {
            Ok(frames) => shared.complete(chunk, addr, frames),
            Err(e) => {
                // Budget spent: hand the chunk to the survivors and die.
                METRICS.workers_failed.inc();
                shared.redispatch(
                    &cfg.workers,
                    w,
                    chunk,
                    format!(
                        "worker {addr} gave up on range [{}, {}): {e}",
                        chunk.start, chunk.end
                    ),
                );
                return;
            }
        }
    }
}

/// Worker-side accept loop: serve range assignments sequentially until the
/// listener errors or `max_requests` assignments have been answered
/// successfully (the deterministic way to kill a worker mid-reduction in
/// tests and CI). Returns the number of assignments served.
///
/// Reading an assignment and writing its reply are a stage of `timeout`
/// each, so a client that trickles its assignment is cut at `timeout` and
/// the next connection is served. A connection whose socket cannot be set
/// up is dropped unserved. Malformed requests get a best-effort error
/// response and do not count; handler failures are shipped back as typed
/// remote errors. A zero `timeout` is refused with
/// [`std::io::ErrorKind::InvalidInput`] before anything is accepted: every
/// stage would be spent before its first byte.
pub fn serve_assignments(
    listener: &TcpListener,
    max_requests: Option<u64>,
    timeout: Duration,
    mut handler: impl FnMut(&Assignment) -> Result<Vec<ShardFrame>, String>,
) -> std::io::Result<u64> {
    if timeout.is_zero() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "serve_assignments needs a nonzero timeout",
        ));
    }
    let mut served = 0u64;
    while max_requests.is_none_or(|m| served < m) {
        let (sock, _) = listener.accept()?;
        let Ok(mut stream) = Timed::new(sock, timeout) else {
            continue;
        };
        let a = match read_assignment(&mut stream) {
            Ok(a) => a,
            Err(e) => {
                let _ = write_error(&mut stream, &e.to_string());
                continue;
            }
        };
        let reply = handler(&a);
        stream.restart(timeout);
        match reply {
            Ok(frames) => {
                if write_frames(&mut stream, &frames).is_ok() {
                    served += 1;
                    METRICS.served.inc();
                }
            }
            Err(msg) => {
                let _ = write_error(&mut stream, &msg);
            }
        }
    }
    Ok(served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use std::io::Write;

    fn test_cfg(workers: Vec<String>) -> FleetConfig {
        FleetConfig {
            workers,
            chunks: 6,
            segment_ends: Vec::new(),
            timeout: Duration::from_millis(500),
            retries: 1,
            backoff_ms: 1,
            seed: 42,
        }
    }

    /// A base past the cap sleeps under twice the cap, since the jitter is
    /// taken below the capped base too (`--backoff-ms
    /// 18446744073709551615` must not sleep for ever); a base at or under
    /// the cap keeps its jitter range.
    #[test]
    fn backoff_stays_under_twice_the_cap() {
        let cap = Duration::from_millis(2 * FleetConfig::BACKOFF_CAP_MS);
        for backoff_ms in [u64::MAX, 1 << 50, FleetConfig::BACKOFF_CAP_MS + 1] {
            for seed in 0..16 {
                let cfg = FleetConfig {
                    backoff_ms,
                    seed,
                    ..test_cfg(vec![])
                };
                for attempt in 0..20 {
                    let sleep = backoff(&cfg, "127.0.0.1:1", attempt);
                    assert!(
                        sleep < cap,
                        "{backoff_ms} ms base, attempt {attempt}: {sleep:?}"
                    );
                }
            }
        }
        let cfg = FleetConfig {
            backoff_ms: 50,
            ..test_cfg(vec![])
        };
        let sleep = backoff(&cfg, "127.0.0.1:1", 0);
        assert!(sleep >= Duration::from_millis(50) && sleep < Duration::from_millis(100));
    }

    /// The ranges an echo worker answered, in arrival order.
    type Sent = Arc<Mutex<Vec<(u64, u64)>>>;

    /// A worker that answers every assignment with one synthetic frame
    /// echoing its range, until `max_requests` (None = forever-ish): its
    /// address, and the ranges it has answered.
    fn spawn_echo_worker(max_requests: Option<u64>) -> (String, Sent) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let sent = Sent::default();
        let log = Arc::clone(&sent);
        std::thread::spawn(move || {
            let _ = serve_assignments(&listener, max_requests, Duration::from_secs(2), |a| {
                log.lock().expect("log").push((a.start, a.end));
                Ok(vec![ShardFrame::from_columns(
                    "eos",
                    a.start,
                    a.end,
                    a.end - a.start,
                    a.meta.clone(),
                    vec![],
                )])
            });
        });
        (addr, sent)
    }

    /// An address with nothing listening: every connect is refused.
    fn closed_port() -> String {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr").to_string();
        drop(l);
        addr
    }

    /// Each worker's ranges since the last call, sorted, emptying the logs.
    fn drain(logs: &[Sent]) -> Vec<Vec<(u64, u64)>> {
        logs.iter()
            .map(|log| {
                let mut ranges = std::mem::take(&mut *log.lock().expect("log"));
                ranges.sort_unstable();
                ranges
            })
            .collect()
    }

    /// A peer that accepts and writes garbage — every exchange against it
    /// must fail typed, never hang past the deadline. With a `stall`, it
    /// first drains the request until its own read deadline of that long.
    fn spawn_garbage_peer(stall: Option<Duration>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                if let Some(stall) = stall {
                    let _ = s.set_read_timeout(Some(stall));
                    let _ = std::io::copy(&mut s, &mut std::io::sink());
                }
                let _ = s.write_all(b"not the fleet protocol at all");
            }
        });
        addr
    }

    fn assert_covers_all(frames: &[(String, ShardFrame)], total: u64) {
        let mut ranges: Vec<(u64, u64)> = frames
            .iter()
            .map(|(_, f)| (f.header.start, f.header.end))
            .collect();
        ranges.sort_unstable();
        ranges.dedup();
        let mut cursor = 0;
        for (s, e) in ranges {
            assert_eq!(s, cursor, "gap or overlap at {s}");
            cursor = e;
        }
        assert_eq!(cursor, total, "tail uncovered");
    }

    #[test]
    fn tiling_covers_exactly() {
        assert_eq!(tile(10, 3), vec![(0, 3), (3, 6), (6, 10)]);
        assert_eq!(
            tile(2, 5),
            vec![(0, 1), (1, 2)],
            "never more chunks than blocks"
        );
        assert_eq!(tile(0, 4), vec![(0, 0)]);
    }

    /// Every segment-aligned tiling covers `[0, total)` exactly, in
    /// order, with no empty chunk, no chunk boundary inside a segment, and
    /// `min(chunks, segments)` chunks.
    #[test]
    fn segment_tiling_covers_exactly_and_splits_no_segment() {
        for (total, size) in [
            (1u64, 1u64),
            (10, 3),
            (100, 10),
            (2_817, 256),
            (2_817, 64),
            (5, 100),
        ] {
            let ends: Vec<u64> = (1..=total.div_ceil(size))
                .map(|k| (k * size).min(total))
                .collect();
            for chunks in [0, 1, 2, 3, 8, ends.len(), ends.len() + 5] {
                let tiles = tile_segments(total, chunks, &ends);
                assert_eq!(
                    tiles.len(),
                    chunks.clamp(1, ends.len()),
                    "{total}/{size}/{chunks}"
                );
                let mut cursor = 0;
                for &(start, end) in &tiles {
                    assert_eq!(start, cursor, "contiguous");
                    assert!(end > start, "no empty chunk: {tiles:?}");
                    assert!(ends.contains(&end), "{end} splits a segment: {tiles:?}");
                    cursor = end;
                }
                assert_eq!(cursor, total, "tail covered");
            }
        }
        assert_eq!(tile_segments(0, 4, &[]), vec![(0, 0)]);
        assert_eq!(
            tile_segments(10, 2, &[0, 4, 10, 99]),
            vec![(0, 4), (4, 10)],
            "ends outside (0, total) cut nothing"
        );
    }

    #[test]
    fn healthy_fleet_covers_every_chunk() {
        let workers = vec![spawn_echo_worker(None).0, spawn_echo_worker(None).0];
        let cfg = test_cfg(workers);
        let frames =
            reduce_fleet(&cfg, 120, 2, PayloadFormat::Bin, json!({"t": 1})).expect("fleet ok");
        assert_eq!(frames.len(), 6, "one frame per chunk");
        assert_covers_all(&frames, 120);
    }

    #[test]
    fn dead_worker_redispatches_to_the_survivor() {
        // One real worker, one address with nothing listening: every chunk
        // the dead address claims comes back and the survivor sweeps it.
        let dead = closed_port();
        let cfg = test_cfg(vec![spawn_echo_worker(None).0, dead.clone()]);
        let frames =
            reduce_fleet(&cfg, 90, 1, PayloadFormat::Bin, json!({"t": 2})).expect("fleet ok");
        assert_covers_all(&frames, 90);
        assert!(
            frames.iter().all(|(origin, _)| *origin != dead),
            "no frame can come from the dead address"
        );
    }

    #[test]
    fn worker_killed_mid_run_is_survivable() {
        // The first worker answers exactly one request, then exits — the
        // fleet must still cover everything through the second.
        let cfg = test_cfg(vec![
            spawn_echo_worker(Some(1)).0,
            spawn_echo_worker(None).0,
        ]);
        let frames =
            reduce_fleet(&cfg, 60, 1, PayloadFormat::Bin, json!({"t": 3})).expect("fleet ok");
        assert_covers_all(&frames, 60);
    }

    /// Three logged workers and a config over them, tiling 120 positions
    /// into 12 chunks.
    fn logged_fleet() -> (FleetConfig, Vec<Sent>) {
        let (addrs, logs) = (0..3).map(|_| spawn_echo_worker(None)).unzip();
        let mut cfg = test_cfg(addrs);
        cfg.chunks = 12;
        (cfg, logs)
    }

    fn reduce(cfg: &FleetConfig) -> Vec<(String, ShardFrame)> {
        let frames =
            reduce_fleet(cfg, 120, 1, PayloadFormat::Bin, json!({"t": 8})).expect("fleet ok");
        assert_covers_all(&frames, 120);
        frames
    }

    #[test]
    fn every_range_goes_home_on_every_reduce() {
        let (cfg, logs) = logged_fleet();
        reduce(&cfg);
        let first = drain(&logs);
        assert_eq!(first.iter().map(Vec::len).sum::<usize>(), 12, "{first:?}");
        for _ in 0..2 {
            reduce(&cfg);
            assert_eq!(drain(&logs), first, "a range changed worker");
        }
    }

    #[test]
    fn reversing_the_workers_moves_no_home() {
        let (mut cfg, logs) = logged_fleet();
        reduce(&cfg);
        let homes = drain(&logs);
        cfg.workers.reverse();
        reduce(&cfg);
        assert_eq!(drain(&logs), homes);
    }

    /// A third worker joins a two-worker fleet (six address sets, 8, 24
    /// and 104 chunks): it takes its share, ⌊n/3⌋ or ⌈n/3⌉ chunks, and
    /// most chunks stay where they were. Not all: the ⌈n/w⌉ load cap also
    /// moves a few chunks between the two old workers — at most 1 of 8,
    /// 1 of 24 and 3 of 104 over these sets (a model over 200 address sets
    /// reaches 2, 3 and 13).
    #[test]
    fn a_joining_worker_takes_its_share_and_moves_few_others() {
        for set in 0..6u32 {
            let addr = |w: u32| format!("10.{set}.0.{w}:{}", 7000 + set);
            let (two, three) = ([addr(0), addr(1)], [addr(0), addr(1), addr(2)]);
            for (chunks, old_to_old_bound) in [(8, 1), (24, 1), (104, 3)] {
                let homes = |workers: &[String]| -> Vec<usize> {
                    let mut home = vec![0; chunks];
                    let queues = home_queues(tile(1_000_000, chunks), workers);
                    for (w, queue) in queues.iter().enumerate() {
                        for chunk in queue {
                            home[chunk.id] = w;
                        }
                    }
                    home
                };
                let (before, after) = (homes(&two), homes(&three));
                let joiner = after.iter().filter(|&&w| w == 2).count();
                let old_to_old = before
                    .iter()
                    .zip(&after)
                    .filter(|&(was, is)| *is != 2 && is != was)
                    .count();
                let what = format!("set {set}, {chunks} chunks");
                assert!(
                    joiner == chunks / 3 || joiner == chunks.div_ceil(3),
                    "{what}: the joiner took {joiner}"
                );
                assert!(
                    old_to_old <= old_to_old_bound,
                    "{what}: {old_to_old} chunks moved between the old workers"
                );
            }
        }
    }

    #[test]
    fn no_worker_is_home_to_more_than_its_share() {
        for workers in 1..=5 {
            let addrs: Vec<String> = (0..workers).map(|w| format!("10.0.0.{w}:7000")).collect();
            for chunks in [1, 2, 3, 5, 8, 13, 104] {
                let ranges = tile(1_000, chunks);
                let n = ranges.len();
                let queues = home_queues(ranges, &addrs);
                let loads: Vec<usize> = queues.iter().map(VecDeque::len).collect();
                assert_eq!(loads.iter().sum::<usize>(), n, "{loads:?}");
                assert!(
                    loads.iter().all(|&l| l <= n.div_ceil(workers)),
                    "{workers} workers, {n} chunks: {loads:?}"
                );
            }
        }
        let (cfg, logs) = logged_fleet();
        reduce(&cfg);
        assert!(drain(&logs).iter().all(|sent| sent.len() <= 4));
    }

    /// A dead home's chunks go to its next-ranked live worker, the same
    /// one on every reduce, and each range is swept once.
    #[test]
    fn a_dead_homes_chunks_go_to_its_next_ranked_survivor() {
        let ((b, sent_b), (c, sent_c)) = (spawn_echo_worker(None), spawn_echo_worker(None));
        let logs = [sent_b, sent_c];
        let mut cfg = test_cfg(vec![closed_port(), b, c]);
        cfg.chunks = 12;
        // Worker 0's homes after the first `served`, each checked to have
        // been swept by the survivor ranked next for it.
        let assert_heirs = |cfg: &FleetConfig, served: usize, survivors: &[Vec<(u64, u64)>]| {
            let homes = home_queues(tile(120, 12), &cfg.workers);
            assert!(homes[0].len() > served, "worker 0 must lose a home");
            for chunk in homes[0].iter().skip(served) {
                let heir = best(chunk.start, &cfg.workers, |w| w > 0).expect("a survivor");
                let range = (chunk.start, chunk.end);
                assert!(
                    survivors[heir - 1].contains(&range),
                    "{range:?} missed its heir"
                );
            }
        };
        reduce(&cfg);
        let first = drain(&logs);
        assert_eq!(first.iter().map(Vec::len).sum::<usize>(), 12, "{first:?}");
        assert_heirs(&cfg, 0, &first);
        reduce(&cfg);
        assert_eq!(drain(&logs), first);

        // A home that dies after serving one chunk: the survivors sweep the
        // rest of its homes.
        let (a, sent_a) = spawn_echo_worker(Some(1));
        cfg.workers[0] = a;
        reduce(&cfg);
        assert_eq!(drain(&[sent_a])[0].len(), 1);
        let survivors = drain(&logs);
        assert_eq!(survivors.iter().map(Vec::len).sum::<usize>(), 11);
        assert_heirs(&cfg, 1, &survivors);
    }

    #[test]
    fn garbage_peer_is_typed_and_survivable() {
        let cfg = test_cfg(vec![spawn_garbage_peer(None), spawn_echo_worker(None).0]);
        let frames =
            reduce_fleet(&cfg, 40, 1, PayloadFormat::Bin, json!({"t": 4})).expect("fleet ok");
        assert_covers_all(&frames, 40);
    }

    #[test]
    fn redispatched_chunk_wakes_an_idle_driver() {
        // The healthy driver sweeps its chunk and finds the queue empty
        // while the slow peer (≈ 100 ms per failed attempt) still holds the
        // other one; it must be woken when that chunk comes back, not left
        // waiting for a completion that will never come.
        let slow = spawn_garbage_peer(Some(Duration::from_millis(100)));
        let mut cfg = test_cfg(vec![spawn_echo_worker(None).0, slow.clone()]);
        cfg.chunks = 2;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(reduce_fleet(
                &cfg,
                40,
                1,
                PayloadFormat::Bin,
                json!({"t": 6}),
            ));
        });
        let frames = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("fleet hung after a re-dispatch")
            .expect("fleet ok");
        assert_covers_all(&frames, 40);
        assert!(
            frames.iter().all(|(origin, _)| *origin != slow),
            "no frame can come from the garbage peer"
        );
    }

    /// A client that sends its assignment a byte every 200 ms holds the
    /// worker for one 300 ms stage, not for the 15 s its trickle lasts: it
    /// is cut, and the client queued behind it is answered.
    #[test]
    fn a_trickling_client_is_cut_at_the_timeout_and_the_next_served() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = Assignment {
            start: 0,
            end: 4,
            shards: 1,
            payload: PayloadFormat::Bin,
            meta: json!({"t": 9}),
        };
        let (served_tx, served) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = served_tx.send(serve_assignments(
                &listener,
                Some(1),
                Duration::from_millis(300),
                |a| {
                    Ok(vec![ShardFrame::from_columns(
                        "eos",
                        a.start,
                        a.end,
                        0,
                        a.meta.clone(),
                        vec![],
                    )])
                },
            ));
        });
        let mut bytes = Vec::new();
        write_assignment(&mut bytes, &a).expect("encode");
        let mut trickler = std::net::TcpStream::connect(addr).expect("connect");
        std::thread::spawn(move || {
            for byte in bytes {
                if trickler.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        });
        // Queued behind the trickler, which connected first.
        let started = Instant::now();
        let (reply_tx, reply) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = reply_tx.send(request_frames(
                &addr.to_string(),
                &a,
                Duration::from_secs(5),
            ));
        });
        let frames = reply
            .recv_timeout(Duration::from_secs(10))
            .expect("the good client waited behind the trickler for 10 s")
            .expect("the good client is answered");
        let took = started.elapsed();
        assert_eq!((frames[0].header.start, frames[0].header.end), (0, 4));
        assert!(
            took < Duration::from_millis(1_500),
            "answered after {took:?}"
        );
        let served = served
            .recv_timeout(Duration::from_secs(5))
            .expect("worker returned");
        assert_eq!(
            served.expect("accept loop"),
            1,
            "the trickler was never served"
        );
    }

    #[test]
    fn serve_assignments_refuses_a_zero_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let client = std::thread::spawn(move || {
            let a = Assignment {
                start: 0,
                end: 4,
                shards: 1,
                payload: PayloadFormat::Bin,
                meta: json!({"t": 7}),
            };
            request_frames(&addr, &a, Duration::from_secs(2))
        });
        let served = serve_assignments(&listener, Some(1), Duration::ZERO, |a| {
            Ok(vec![ShardFrame::from_columns(
                "eos",
                a.start,
                a.end,
                0,
                a.meta.clone(),
                vec![],
            )])
        });
        drop(listener);
        let _ = client.join();
        let err = served.expect_err("a zero timeout can serve nothing");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn fleet_of_the_dead_exhausts_with_provenance() {
        let dead = closed_port();
        let mut cfg = test_cfg(vec![dead.clone()]);
        cfg.chunks = 2;
        let err = reduce_fleet(&cfg, 40, 1, PayloadFormat::Bin, json!({"t": 5}))
            .expect_err("no healthy worker");
        match err {
            FleetError::Exhausted { pending, failures } => {
                assert_eq!(pending, 2);
                assert!(failures.iter().any(|f| f.contains(&dead)), "{failures:?}");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }
}
