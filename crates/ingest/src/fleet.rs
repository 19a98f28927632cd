//! Fault-tolerant socket shard fleet: the reducer side that drives remote
//! [`ShardWorker`] processes over TCP, and the worker side that serves
//! range assignments.
//!
//! ```text
//!              ┌──── board (one Mutex, one Condvar) ───────────────┐
//!   reducer ──▶│ queue [0,a) [a,b) [b,c) …   outstanding          │
//!              │ results                     failures             │
//!              └──┬─────────────┬──────────────┬───────────────────┘
//!                 ▼             ▼              ▼   pop; queue empty → wait on the condvar
//!           driver thread  driver thread  driver thread   (one per --connect, scoped)
//!           addr A         addr B         addr C
//!             │ connect-per-request, deadline = socket timeout
//!             │ retry × budget with exponential backoff + jitter
//!             │ frames in → record them, outstanding − 1, notify_all
//!             │ budget exhausted → push chunk BACK (re-dispatch), notify_all,
//!             │                    mark worker dead, thread exits
//!             ▼
//!           (chunk id, origin addr, frames) → sorted merge
//! ```
//!
//! Liveness: a thread holding a chunk either completes it (decrementing
//! the outstanding count) or dies and re-queues it, and does either under
//! the board's lock before waking every waiting thread. A thread that finds
//! the queue empty while some chunk is outstanding waits on the condvar
//! until a chunk comes back or the last one completes — never on a timer.
//! So either every chunk completes, or all threads exit and the chunks left
//! over surface as a typed [`FleetError::Exhausted`] naming every worker
//! failure — the driver can stall only while some worker is inside its
//! bounded retry loop, whose backoff is the only timed wait.
//!
//! Double-delivery is impossible by construction downstream: a re-dispatched
//! range that somehow also arrived from the original worker would overlap
//! in `ReduceSession` and be rejected. All activity is exported through
//! the `txstat_fleet_*` telemetry families.
//!
//! [`ShardWorker`]: crate::reduce::ShardWorker

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, LazyLock, Mutex, PoisonError};
use std::time::{Duration, Instant};
use txstat_telemetry::{registry, Counter, Histogram};
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
    /// Number of block-range chunks to tile the sweep into. More chunks
    /// than workers keeps the fleet load-balanced and makes re-dispatch
    /// granular. With [`FleetConfig::segment_ends`] set, this is an upper
    /// bound: there are never more chunks than segments.
    pub chunks: usize,
    /// Where each segment of the corpus the workers hold ends, ascending
    /// (`reduce --connect --archive` fills it from the archive it opened).
    /// Set, every chunk is a run of whole segments ([`tile_segments`]), so
    /// an archived worker answers it from swept segment state without
    /// decoding a block. Empty, chunks tile the positions evenly
    /// ([`tile`]).
    pub segment_ends: Vec<u64>,
    /// Per-request deadline: connect, write, and read each get this long.
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
pub fn tile(total: u64, chunks: usize) -> Vec<(u64, u64)> {
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
pub fn tile_segments(total: u64, chunks: usize, segment_ends: &[u64]) -> Vec<(u64, u64)> {
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

/// Everything the driver threads share, behind one lock.
struct Board {
    queue: VecDeque<Chunk>,
    /// Chunks not yet completed (queued OR currently held by a thread).
    outstanding: usize,
    results: Vec<(usize, String, Vec<ShardFrame>)>,
    failures: Vec<String>,
}

/// The board and the condvar its waiters block on. Every change a waiter
/// could be waiting for (a completion, a re-dispatch) is made and signalled
/// under the lock, so no wakeup can fall between a waiter's check and its
/// wait.
struct Shared {
    board: Mutex<Board>,
    changed: Condvar,
}

impl Shared {
    /// The next chunk to sweep, waiting while the queue is empty but some
    /// other thread still holds a chunk; `None` once every chunk is done.
    fn next(&self) -> Option<Chunk> {
        let mut board = self.board.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if board.outstanding == 0 {
                return None;
            }
            if let Some(chunk) = board.queue.pop_front() {
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

    /// Hand `chunk` back to the survivors; `failure` says which worker gave
    /// it up and why.
    fn redispatch(&self, chunk: Chunk, failure: String) {
        let mut board = self.board.lock().unwrap_or_else(PoisonError::into_inner);
        board.queue.push_back(chunk);
        board.failures.push(failure);
        self.changed.notify_all();
    }
}

/// One connect/request/response exchange against `addr` with `timeout`
/// applied to the connect, the write, and the read independently.
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
    let mut stream = TcpStream::connect_timeout(&sa, timeout).map_err(|e| io("connect", e))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| io("set read timeout", e))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| io("set write timeout", e))?;
    write_assignment(&mut stream, a)?;
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
/// Each worker address gets one driver thread pulling chunks off a shared
/// queue. A worker that exhausts its retry budget on a chunk pushes the
/// chunk back for the survivors (re-dispatch) and is not used again. The
/// call returns [`FleetError::Exhausted`] — naming every worker's final
/// error — if the whole fleet dies with work left.
pub fn reduce_fleet(
    cfg: &FleetConfig,
    total: u64,
    shards: usize,
    payload: PayloadFormat,
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
    let chunks: Vec<Chunk> = ranges
        .into_iter()
        .enumerate()
        .map(|(id, (start, end))| Chunk { id, start, end })
        .collect();
    let shared = Shared {
        board: Mutex::new(Board {
            outstanding: chunks.len(),
            queue: chunks.into(),
            results: Vec::new(),
            failures: Vec::new(),
        }),
        changed: Condvar::new(),
    };
    std::thread::scope(|s| {
        for addr in &cfg.workers {
            let (shared, meta) = (&shared, &meta);
            s.spawn(move || worker_loop(cfg, addr, shards, payload, meta, shared));
        }
    });

    let board = shared
        .board
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if board.outstanding > 0 {
        return Err(FleetError::Exhausted {
            pending: board.queue.len(),
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

fn worker_loop(
    cfg: &FleetConfig,
    addr: &str,
    shards: usize,
    payload: PayloadFormat,
    meta: &serde::Value,
    shared: &Shared,
) {
    while let Some(chunk) = shared.next() {
        let a = Assignment {
            start: chunk.start,
            end: chunk.end,
            shards,
            payload,
            meta: meta.clone(),
        };
        match request_with_retry(cfg, addr, &a) {
            Ok(frames) => shared.complete(chunk, addr, frames),
            Err(e) => {
                // Budget spent: hand the chunk to the survivors and die.
                METRICS.redispatch.inc();
                METRICS.workers_failed.inc();
                shared.redispatch(
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
/// Malformed requests get a best-effort error response and do not count;
/// handler failures are shipped back as typed remote errors. A zero
/// `timeout` is refused with [`std::io::ErrorKind::InvalidInput`] before
/// anything is accepted: sockets take it as "no deadline".
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
        let (mut stream, _) = listener.accept()?;
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
        let a = match read_assignment(&mut stream) {
            Ok(a) => a,
            Err(e) => {
                let _ = write_error(&mut stream, &e.to_string());
                continue;
            }
        };
        match handler(&a) {
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

    /// A worker that answers every assignment with one synthetic frame
    /// echoing its range, until `max_requests` (None = forever-ish).
    fn spawn_echo_worker(max_requests: Option<u64>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            let _ = serve_assignments(&listener, max_requests, Duration::from_secs(2), |a| {
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
        addr
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
        let workers = vec![spawn_echo_worker(None), spawn_echo_worker(None)];
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
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = l.local_addr().expect("addr").to_string();
            drop(l); // port is now closed — connects are refused
            addr
        };
        let cfg = test_cfg(vec![spawn_echo_worker(None), dead.clone()]);
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
        let cfg = test_cfg(vec![spawn_echo_worker(Some(1)), spawn_echo_worker(None)]);
        let frames =
            reduce_fleet(&cfg, 60, 1, PayloadFormat::Bin, json!({"t": 3})).expect("fleet ok");
        assert_covers_all(&frames, 60);
    }

    #[test]
    fn garbage_peer_is_typed_and_survivable() {
        let cfg = test_cfg(vec![spawn_garbage_peer(None), spawn_echo_worker(None)]);
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
        let mut cfg = test_cfg(vec![spawn_echo_worker(None), slow.clone()]);
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
        let err = served.expect_err("a zero timeout means no deadline at all");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn fleet_of_the_dead_exhausts_with_provenance() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = l.local_addr().expect("addr").to_string();
            drop(l);
            addr
        };
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
