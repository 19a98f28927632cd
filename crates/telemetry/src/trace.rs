//! Span-based stage tracing. `Span::enter("sweep", chain)` marks a stage on
//! the global tracer; dropping the span closes it into one [`TraceEvent`]
//! (id, parent, thread, wall and *self* time: the wall time less the spans
//! it enclosed on its thread), which the NDJSON sink (`--trace-out`) writes
//! and one ledger (`--timings`) sums per stage and chain label. A span
//! opened with nothing open on its thread hangs under the run's root
//! ([`Tracer::root`]), so the self times on the root's thread partition
//! its wall time. Fan-outs go through [`par_map`] and [`join`], whose
//! workers open their spans under the caller's innermost span.
//!
//! Cost model: when the tracer is disabled (the default), entering a span
//! is a single `Relaxed` atomic load and the drop is free — no clock is
//! read. When enabled, each span costs one monotonic clock read at entry
//! and one at exit, a push and a pop on its thread's stack of open spans,
//! and one ledger lock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::marker::PhantomData;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// One closed span, as the NDJSON sink writes it. `id` is process-unique
/// and nonzero; `parent` is 0 only for a root (or a top-level span of a
/// tracer with no root); `thread` numbers the threads from 1; `start_us`
/// is relative to the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    pub stage: String,
    pub label: String,
    pub id: u64,
    pub parent: u64,
    pub thread: u64,
    pub start_us: u64,
    pub dur_us: u64,
    pub self_us: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Open spans, innermost last, with the wall µs of their closed children.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The labels that get their own sub-row: a closed set, so the summary
/// stays bounded whatever else (section names, ranges) labels carry.
const CHAIN_LABELS: [&str; 3] = ["eos", "tezos", "xrp"];

/// The ledger and the sink, under one lock.
#[derive(Default)]
struct State {
    /// `[count, self µs on the root's thread, self µs on other threads]`
    /// per `(stage, "")` and `(stage, chain)`; a stage sorts ahead of its
    /// chains.
    rows: BTreeMap<(&'static str, &'static str), [u64; 3]>,
    /// The root's thread, and once closed its stage, wall and self µs.
    root_thread: u64,
    root: Option<(&'static str, u64, u64)>,
    sink: Option<Box<dyn Write + Send>>,
}

/// Closes spans into [`TraceEvent`]s for the ledger and an optional NDJSON
/// sink. One global instance (via [`tracer`]) serves the whole process;
/// tests can construct private instances.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    /// The root span's id (0 until [`Tracer::root`]).
    root: AtomicU64,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            root: AtomicU64::new(0),
            state: Mutex::new(State::default()),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::default()
    }

    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The ledger and sink. Spans close in `Drop`, which must not panic, and
    /// every update is whole, so a lock poisoned by a panicking thread is
    /// taken as it is.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attach an NDJSON sink (one [`TraceEvent`] object per line) and
    /// enable the tracer.
    pub fn set_sink(&self, w: Box<dyn Write + Send>) {
        self.state().sink = Some(w);
        self.enable();
    }

    pub fn flush(&self) {
        if let Some(w) = self.state().sink.as_mut() {
            let _ = w.flush();
        }
    }

    /// Open a span under the innermost span open on this thread, or under
    /// the root. Inert (one atomic load, no clock read) when disabled.
    pub fn span<'a>(&'a self, stage: &'static str, label: &str) -> Span<'a> {
        if !self.is_enabled() {
            return Span {
                inner: None,
                _thread_bound: PhantomData,
            };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = match current_span() {
            0 => self.root.load(Ordering::Relaxed),
            enclosing => enclosing,
        };
        OPEN.with(|open| open.borrow_mut().push((id, 0)));
        let (label, opened) = (label.to_string(), Instant::now());
        let inner = SpanInner {
            tracer: self,
            stage,
            label,
            id,
            parent,
            opened,
        };
        Span {
            inner: Some(inner),
            _thread_bound: PhantomData,
        }
    }

    /// Open the run's root span (parent 0, before anything else opens):
    /// spans opened with nothing open on their thread hang under it, and
    /// its self time is the ledger's `unattributed` row.
    pub fn root<'a>(&'a self, stage: &'static str) -> Span<'a> {
        let span = self.span(stage, "");
        if let Some(root) = &span.inner {
            self.state().root_thread = THREAD.with(|t| *t);
            self.root.store(root.id, Ordering::Relaxed);
        }
        span
    }

    fn record(&self, stage: &'static str, event: TraceEvent) {
        let mut state = self.state();
        if event.parent == 0 && event.id == self.root.load(Ordering::Relaxed) {
            state.root = Some((stage, event.dur_us, event.self_us));
        } else {
            let on_root = state.root_thread == 0 || state.root_thread == event.thread;
            let chain = CHAIN_LABELS.iter().find(|c| **c == event.label);
            for key in [Some((stage, "")), chain.map(|c| (stage, *c))]
                .into_iter()
                .flatten()
            {
                let row = state.rows.entry(key).or_default();
                row[0] += 1;
                row[if on_root { 1 } else { 2 }] += event.self_us;
            }
        }
        if let Some(w) = state.sink.as_mut() {
            if let Ok(line) = serde_json::to_string(&event) {
                let _ = writeln!(w, "{line}");
            }
        }
    }

    /// Render the `--timings` table (empty string when no span closed): per
    /// stage (chain sub-rows indented) its span count and self time on the
    /// root's thread and on others; then the root's self time as
    /// `unattributed` and the root, whose `self_ms` is its wall time (what
    /// that column sums to) and `other_threads_ms` that column's sum.
    pub fn render_summary(&self) -> String {
        let state = self.state();
        if state.rows.is_empty() && state.root.is_none() {
            return String::new();
        }
        let ms = |us: u64| format!("{:.3}", us as f64 / 1_000.0);
        let row = |name: &str, count: &str, main: &str, other: &str| {
            format!("{name:<20} {count:>8} {main:>12} {other:>18}\n")
        };
        let mut out = row("stage", "count", "self_ms", "other_threads_ms");
        for (&(stage, chain), &[count, main_us, other_us]) in &state.rows {
            let name = if chain.is_empty() {
                stage.to_string()
            } else {
                format!("  {chain}")
            };
            out.push_str(&row(&name, &count.to_string(), &ms(main_us), &ms(other_us)));
        }
        if let Some((stage, dur_us, self_us)) = state.root {
            let other_us = state
                .rows
                .iter()
                .filter(|((_, c), _)| c.is_empty())
                .map(|(_, r)| r[2]);
            out.push_str(&row("unattributed", "1", &ms(self_us), "-"));
            out.push_str(&row(stage, "1", &ms(dur_us), &ms(other_us.sum())));
        }
        out
    }
}

/// The id of the innermost span open on this thread (0 when none is):
/// what [`par_map`] and [`join`] hand their workers through [`within`].
pub(crate) fn current_span() -> u64 {
    OPEN.with(|open| open.borrow().last().map_or(0, |&(id, _)| id))
}

/// Run `f` with `parent` enclosing the spans it opens on this thread (a
/// fan-out worker's part). A no-op when `parent` is 0 (nothing was open, or
/// tracing is off) or open on this thread already (the part the calling
/// thread runs), so a span's wall time leaves only a same-thread parent's.
pub(crate) fn within<R>(parent: u64, f: impl FnOnce() -> R) -> R {
    if parent == 0 || OPEN.with(|open| open.borrow().iter().any(|&(id, _)| id == parent)) {
        return f();
    }
    OPEN.with(|open| open.borrow_mut().push((parent, 0)));
    let out = f();
    OPEN.with(|open| open.borrow_mut().pop());
    out
}

/// Map `f` over `items` on one scoped worker per available CPU (the
/// calling thread is one of them) and return the results in item order.
/// Each worker claims the next unclaimed item, so one heavy item holds up
/// only its own worker. Spans `f` opens nest under the caller's innermost
/// span whatever thread runs them; the calling thread's wait for the
/// others stays in that span's self time. With one worker (one CPU, or one
/// item) everything runs on the calling thread. A panic in `f` reaches the
/// caller with its payload.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    par_map_on(cpus(), items, f)
}

/// The CPUs this process may run on (`available_parallelism`, 1 when it is
/// unknown), read once per process: on Linux each read opens the cgroup's
/// CPU quota files, about 20 µs. Every fan-out sizes itself by this.
pub fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// [`par_map`] on at most `workers` workers.
fn par_map_on<T: Sync, U: Send>(workers: usize, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // `next` only hands out indices (`Relaxed` suffices); the results
    // travel back through the joins.
    let (parent, next) = (current_span(), AtomicUsize::new(0));
    let work = || {
        within(parent, || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return done;
                };
                done.push((i, f(item)));
            }
        })
    };
    let mut slots: Vec<Option<U>> = items.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let others: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mine = work();
        let theirs = others
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)));
        for (i, u) in theirs.chain(mine) {
            slots[i] = Some(u);
        }
    });
    slots
        .into_iter()
        .map(|u| u.expect("every item was claimed"))
        .collect()
}

/// Run `a` on the calling thread and `b` on a scoped thread under the
/// caller's innermost span, and return both results once both finished. A
/// panic in either reaches the caller with its payload.
pub fn join<A, B: Send>(a: impl FnOnce() -> A, b: impl FnOnce() -> B + Send) -> (A, B) {
    let parent = current_span();
    std::thread::scope(|s| {
        let b = s.spawn(|| within(parent, b));
        let a = a();
        (a, b.join().unwrap_or_else(|e| resume_unwind(e)))
    })
}

struct SpanInner<'a> {
    tracer: &'a Tracer,
    stage: &'static str,
    label: String,
    id: u64,
    parent: u64,
    opened: Instant,
}

/// An RAII stage marker, closed on drop. Not `Send`: a span closes on the
/// thread whose stack of open spans holds it.
#[must_use = "a span measures the scope it lives in; bind it with `let _span = ...`"]
pub struct Span<'a> {
    inner: Option<SpanInner<'a>>,
    _thread_bound: PhantomData<*const ()>,
}

impl Span<'static> {
    /// Open a span on the process-global tracer.
    pub fn enter(stage: &'static str, label: &str) -> Span<'static> {
        tracer().span(stage, label)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(s) = self.inner.take() else { return };
        let dur_us = micros(s.opened.elapsed());
        // Scoping closes spans innermost first, so the top frame is this one.
        let children_us = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (_, children_us) = open.pop().unwrap_or_default();
            if let Some(enclosing) = open.last_mut() {
                enclosing.1 += dur_us;
            }
            children_us
        });
        let event = TraceEvent {
            stage: s.stage.to_string(),
            label: s.label,
            id: s.id,
            parent: s.parent,
            thread: THREAD.with(|t| *t),
            start_us: micros(s.opened.duration_since(s.tracer.origin)),
            dur_us,
            self_us: dur_us.saturating_sub(children_us),
        };
        s.tracer.record(s.stage, event);
    }
}

/// The process-global tracer behind [`Span::enter`]. Disabled until
/// `enable()`/`set_sink()` — typically wired by the CLI's `--timings` /
/// `--trace-out` flags.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::panic::catch_unwind;
    use std::sync::{mpsc, Arc, Barrier};

    /// An in-memory sink, readable after the tracer wrote to it.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Shared {
        fn events(&self) -> Vec<TraceEvent> {
            let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
            text.lines()
                .map(|l| serde_json::from_str(l).expect("trace line parses"))
                .collect()
        }
    }

    fn sinked() -> (Tracer, Shared) {
        let (t, buf) = (Tracer::new(), Shared::default());
        t.set_sink(Box::new(buf.clone()));
        (t, buf)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let t = Tracer::new();
        {
            let _r = t.root("report");
            let _s = t.span("sweep", "eos");
            assert_eq!(current_span(), 0, "an inert span opens nothing");
        }
        assert_eq!(t.render_summary(), "");
    }

    #[test]
    fn nested_spans_link_parents_and_split_self_time() {
        let (t, buf) = sinked();
        {
            let _outer = t.span("reduce_submit", "eos");
            for _ in 0..2 {
                let _inner = t.span("reduce_decode", "eos");
            }
        }
        let events = buf.events();
        let stages: Vec<&str> = events.iter().map(|e| e.stage.as_str()).collect();
        assert_eq!(stages, ["reduce_decode", "reduce_decode", "reduce_submit"]);
        let outer = &events[2];
        assert_eq!(outer.parent, 0, "no root: a top-level span has no parent");
        assert!(events[..2]
            .iter()
            .all(|e| e.parent == outer.id && e.self_us == e.dur_us));
        let children: u64 = events[..2].iter().map(|e| e.dur_us).sum();
        assert_eq!(outer.self_us, outer.dur_us - children);
        assert!(events.iter().all(|e| e.id != 0 && e.thread == outer.thread));
    }

    #[test]
    fn chain_labelled_spans_get_indented_sub_rows() {
        let t = Tracer::new();
        t.enable();
        for label in ["tezos", "eos", "tezos", "headline"] {
            let _s = t.span("generate", label);
        }
        {
            let _s = t.span("render", "figure 2");
        }
        // generate, its two chains (eos 1, tezos 2) indented under it, then
        // render with no sub-row: "figure 2" and "headline" are not chains.
        let table = t.render_summary();
        let rows: Vec<(&str, &str)> = table
            .lines()
            .skip(1)
            .map(|l| {
                (
                    &l[..8],
                    l[20..].split_whitespace().next().expect("count column"),
                )
            })
            .collect();
        assert_eq!(
            rows,
            vec![
                ("generate", "4"),
                ("  eos   ", "1"),
                ("  tezos ", "2"),
                ("render  ", "1")
            ],
            "{table}"
        );
    }

    #[test]
    fn root_self_times_partition_its_wall_time() {
        let (t, buf) = sinked();
        {
            let _root = t.root("report");
            let _generate = t.span("generate", "eos");
            std::thread::scope(|s| {
                // A thread outside `join` / `par_map` hangs straight under
                // the root.
                s.spawn(|| drop(t.span("fig2_storage", "eos")));
                // The calling thread's own part stays in its own nesting.
                join(
                    || drop(t.span("sweep", "tezos")),
                    || drop(t.span("fig2_storage", "xrp")),
                );
            });
        }
        let events = buf.events();
        let root = events.last().expect("root closes last");
        assert_eq!((root.stage.as_str(), root.parent), ("report", 0));
        let generate = events.iter().find(|e| e.stage == "generate").unwrap();
        let parent_of = |label: &str| {
            events
                .iter()
                .find(|e| e.stage == "fig2_storage" && e.label == label)
                .unwrap()
                .parent
        };
        assert_eq!((parent_of("xrp"), parent_of("eos")), (generate.id, root.id));
        let on_root: u64 = events
            .iter()
            .filter(|e| e.thread == root.thread)
            .map(|e| e.self_us)
            .sum();
        assert_eq!(on_root, root.dur_us, "{events:?}");
        let sweep = events.iter().find(|e| e.stage == "sweep").unwrap();
        assert_eq!((sweep.parent, sweep.thread), (generate.id, root.thread));

        let table = t.render_summary();
        let last: Vec<&str> = table
            .lines()
            .rev()
            .take(2)
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        assert_eq!(last, ["report", "unattributed"], "{table}");
        let fig2 = table
            .lines()
            .find(|l| l.starts_with("fig2_storage"))
            .unwrap();
        assert_eq!(fig2.split_whitespace().nth(2), Some("0.000"), "{table}");
    }

    #[test]
    fn par_map_returns_results_in_item_order_whatever_their_cost() {
        let items: Vec<u64> = (0..64).collect();
        let squares = par_map_on(4, &items, |&i| {
            std::thread::sleep(Duration::from_micros(i * 37 % 11 * 100));
            i * i
        });
        assert_eq!(squares, items.iter().map(|i| i * i).collect::<Vec<_>>());
        let panicked = catch_unwind(|| {
            par_map_on(4, &items, |&i| if i == 40 { panic!("item 40") } else { i })
        });
        assert_eq!(
            panicked.unwrap_err().downcast_ref::<&str>(),
            Some(&"item 40")
        );
    }

    #[test]
    fn a_blocked_item_does_not_hold_up_the_items_after_it() {
        // Item 0 waits until every later item is done. Workers that claim
        // item by item get there; a static split leaves item 0's share
        // queued behind it, so the wait times out.
        const N: usize = 16;
        let (done, waiting) = mpsc::channel();
        let waiting = Mutex::new(waiting);
        let items: Vec<usize> = (0..N).collect();
        let finished = par_map_on(2, &items, |&i| {
            if i > 0 {
                return done.send(()).is_ok();
            }
            let waiting = waiting.lock().unwrap();
            (1..N).all(|_| waiting.recv_timeout(Duration::from_secs(10)).is_ok())
        });
        assert!(finished.iter().all(|&ok| ok), "{finished:?}");
    }

    #[test]
    fn par_map_workers_open_their_spans_under_the_callers_span() {
        let (t, buf) = sinked();
        let items: Vec<usize> = (0..12).collect();
        // Holds each worker on its first item until all four have one, so
        // four threads run items.
        let started = Barrier::new(4);
        {
            let _root = t.root("report");
            let _render = t.span("render", "figure 2");
            par_map_on(4, &items, |&i| {
                let _span = t.span("fig2_storage", "eos");
                if i < 4 {
                    started.wait();
                }
            });
        }
        let events = buf.events();
        let root = events.last().expect("root closes last");
        let render = events.iter().find(|e| e.stage == "render").unwrap();
        let fig2: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.stage == "fig2_storage")
            .collect();
        assert_eq!(fig2.len(), items.len());
        assert!(fig2.iter().all(|e| e.parent == render.id), "{events:?}");
        let threads: BTreeSet<u64> = fig2.iter().map(|e| e.thread).collect();
        assert_eq!(threads.len(), 4, "{events:?}");
        let on_root: u64 = events
            .iter()
            .filter(|e| e.thread == root.thread)
            .map(|e| e.self_us)
            .sum();
        assert_eq!(on_root, root.dur_us, "{events:?}");
    }

    #[test]
    fn one_worker_runs_every_item_on_the_calling_thread() {
        let me = std::thread::current().id();
        let on = par_map_on(1, &[1, 2, 3], |_| std::thread::current().id());
        assert_eq!(on, [me; 3]);
        assert_eq!(par_map(&[7], |_| std::thread::current().id()), [me]);
    }

    #[test]
    fn join_nests_b_under_the_caller_and_hands_back_its_panic() {
        let (t, buf) = sinked();
        {
            let _crawl = t.span("crawl", "");
            let chains = join(
                || drop(t.span("crawl", "eos")),
                || drop(t.span("crawl", "tezos")),
            );
            assert_eq!(chains, ((), ()));
        }
        let events = buf.events();
        let crawl = events.last().expect("the caller's span closes last");
        let chain = |label: &str| events.iter().find(|e| e.label == label).unwrap();
        assert!([chain("eos"), chain("tezos")]
            .iter()
            .all(|e| e.parent == crawl.id));
        assert_eq!(
            chain("eos").thread,
            crawl.thread,
            "a runs on the calling thread"
        );
        assert_ne!(
            chain("tezos").thread,
            crawl.thread,
            "b runs on its own thread"
        );

        let panicked = catch_unwind(|| join(|| 1, || -> u8 { panic!("b failed") }));
        assert_eq!(
            panicked.unwrap_err().downcast_ref::<&str>(),
            Some(&"b failed")
        );
    }

    #[test]
    fn trace_event_round_trips_through_ndjson() {
        let e = TraceEvent {
            stage: "sweep".into(),
            label: "tezos".into(),
            id: 7,
            parent: 2,
            thread: 3,
            start_us: 12345,
            dur_us: 678,
            self_us: 600,
        };
        let line = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, e);
    }
}
