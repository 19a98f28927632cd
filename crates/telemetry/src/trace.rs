//! Span-based stage tracing. `Span::enter("sweep", chain)` marks a stage
//! on the global tracer; dropping the span records its wall time into a
//! per-stage histogram, optionally appends an NDJSON event to a sink
//! (`--trace-out`), and feeds the end-of-run `--timings` summary. A span
//! labelled with a chain name also lands in a per-(stage, chain) histogram,
//! which the summary prints as an indented sub-row: which chain a layer's
//! time went to is the first question every profile of this pipeline asks.
//!
//! Cost model: when the tracer is disabled (the default), entering a span
//! is a single `Relaxed` atomic load and the drop is free — no clock is
//! read. When enabled, each span costs exactly one monotonic clock read at
//! entry (the exit uses `Instant::elapsed`, the second read the contract
//! allows) plus one histogram `fetch_add`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::metrics::Histogram;

/// One completed span, as written to the NDJSON trace sink. `start_us` is
/// relative to the tracer's origin (process-local monotonic time), `depth`
/// is the nesting level at entry (0 = top level) on the span's thread.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    pub stage: String,
    pub label: String,
    pub depth: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

thread_local! {
    static DEPTH: Cell<u64> = const { Cell::new(0) };
}

/// The labels that get their own sub-row: a closed set, so the summary
/// stays bounded whatever else (section names, ranges) labels carry.
const CHAIN_LABELS: [&str; 3] = ["eos", "tezos", "xrp"];

/// Collects spans into per-stage histograms and an optional NDJSON sink.
/// One global instance (via [`tracer`]) serves the whole process; tests
/// can construct private instances.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    /// Keyed `(stage, "")` for a whole stage and `(stage, chain)` for its
    /// spans labelled with one of [`CHAIN_LABELS`]; a stage's own row sorts
    /// ahead of its chains.
    stages: RwLock<BTreeMap<(&'static str, &'static str), Arc<Histogram>>>,
    sink: Mutex<Option<Box<dyn Write + Send>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            stages: RwLock::new(BTreeMap::new()),
            sink: Mutex::new(None),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

/// Per-stage aggregate for the `--timings` end-of-run table.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    pub stage: &'static str,
    pub count: u64,
    pub total_us: u64,
    pub mean_us: f64,
    pub p50_us: u64,
    pub p99_us: u64,
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

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Attach an NDJSON sink (one [`TraceEvent`] object per line) and
    /// enable the tracer.
    pub fn set_sink(&self, w: Box<dyn Write + Send>) {
        *self.sink.lock().unwrap() = Some(w);
        self.enable();
    }

    pub fn flush(&self) {
        if let Some(w) = self.sink.lock().unwrap().as_mut() {
            let _ = w.flush();
        }
    }

    /// Drop the sink, disable tracing, and clear accumulated stages
    /// (test isolation).
    pub fn reset(&self) {
        self.disable();
        *self.sink.lock().unwrap() = None;
        self.stages.write().unwrap().clear();
    }

    /// Open a span. Inert (one atomic load, no clock read) when disabled.
    pub fn span<'a>(&'a self, stage: &'static str, label: &str) -> Span<'a> {
        if !self.is_enabled() {
            return Span { inner: None };
        }
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        Span {
            inner: Some(SpanInner {
                tracer: self,
                stage,
                label: label.to_string(),
                depth,
                started: Instant::now(),
            }),
        }
    }

    fn stage_histogram(&self, key: (&'static str, &'static str)) -> Arc<Histogram> {
        if let Some(h) = self.stages.read().unwrap().get(&key) {
            return h.clone();
        }
        let mut stages = self.stages.write().unwrap();
        stages.entry(key).or_insert_with(|| Arc::new(Histogram::new())).clone()
    }

    fn record(&self, stage: &'static str, label: &str, depth: u64, start_us: u64, dur_us: u64) {
        self.stage_histogram((stage, "")).record_us(dur_us);
        if let Some(chain) = CHAIN_LABELS.iter().find(|c| **c == label) {
            self.stage_histogram((stage, chain)).record_us(dur_us);
        }
        let mut sink = self.sink.lock().unwrap();
        if let Some(w) = sink.as_mut() {
            let event = TraceEvent {
                stage: stage.to_string(),
                label: label.to_string(),
                depth,
                start_us,
                dur_us,
            };
            if let Ok(line) = serde_json::to_string(&event) {
                let _ = writeln!(w, "{line}");
            }
        }
    }

    /// Aggregates of every stage seen so far, in stage-name order.
    pub fn summary(&self) -> Vec<StageSummary> {
        self.rows().into_iter().filter(|(chain, _)| chain.is_empty()).map(|(_, row)| row).collect()
    }

    /// Every histogram as `(chain, aggregate)`: a stage's own row (chain
    /// `""`) followed by its per-chain rows.
    fn rows(&self) -> Vec<(&'static str, StageSummary)> {
        let stages = self.stages.read().unwrap();
        stages
            .iter()
            .map(|(&(stage, chain), h)| {
                let row = StageSummary {
                    stage,
                    count: h.total(),
                    total_us: h.sum(),
                    mean_us: h.mean_us(),
                    p50_us: h.quantile_us(0.5),
                    p99_us: h.quantile_us(0.99),
                };
                (chain, row)
            })
            .collect()
    }

    /// Render the `--timings` table (empty string when no spans fired): one
    /// row per stage and, indented under it, one per chain its spans were
    /// labelled with.
    pub fn render_summary(&self) -> String {
        let rows = self.rows();
        if rows.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<20} {:>8} {:>12} {:>10} {:>10} {:>10}\n",
            "stage", "count", "total_ms", "mean_us", "p50_us", "p99_us"
        ));
        for (chain, r) in rows {
            let name = if chain.is_empty() { r.stage.to_string() } else { format!("  {chain}") };
            out.push_str(&format!(
                "{:<20} {:>8} {:>12.3} {:>10.1} {:>10} {:>10}\n",
                name,
                r.count,
                r.total_us as f64 / 1_000.0,
                r.mean_us,
                r.p50_us,
                r.p99_us
            ));
        }
        out
    }
}

struct SpanInner<'a> {
    tracer: &'a Tracer,
    stage: &'static str,
    label: String,
    depth: u64,
    started: Instant,
}

/// An RAII stage marker; the stage's wall time is recorded on drop.
#[must_use = "a span measures the scope it lives in; bind it with `let _span = ...`"]
pub struct Span<'a> {
    inner: Option<SpanInner<'a>>,
}

impl Span<'static> {
    /// Open a span on the process-global tracer.
    pub fn enter(stage: &'static str, label: &str) -> Span<'static> {
        tracer().span(stage, label)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let dur_us = inner.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let start_us = inner
            .started
            .duration_since(inner.tracer.origin)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        inner.tracer.record(inner.stage, &inner.label, inner.depth, start_us, dur_us);
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

    #[test]
    fn disabled_spans_record_nothing() {
        let t = Tracer::new();
        {
            let _s = t.span("sweep", "eos");
        }
        assert!(t.summary().is_empty());
        assert_eq!(t.render_summary(), "");
    }

    #[test]
    fn nested_spans_track_depth_and_stages() {
        let t = Tracer::new();
        t.enable();
        {
            let _outer = t.span("reduce_submit", "eos");
            {
                let _inner = t.span("reduce_decode", "eos");
            }
            {
                let _inner = t.span("reduce_decode", "eos");
            }
        }
        let rows = t.summary();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].stage, "reduce_decode");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[1].stage, "reduce_submit");
        assert_eq!(rows[1].count, 1);
        let table = t.render_summary();
        assert!(table.contains("reduce_submit"), "{table}");
        // Outer span wholly contains the inner ones.
        assert!(rows[1].total_us >= rows[0].total_us / 2);
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
        // The stage rows are what they were: one per stage, every span in.
        let rows = t.summary();
        assert_eq!(
            rows.iter().map(|r| (r.stage, r.count)).collect::<Vec<_>>(),
            vec![("generate", 4), ("render", 1)]
        );
        // generate, its two chains (eos 1, tezos 2) indented under it, then
        // render with no sub-row: "figure 2" and "headline" are not chains.
        let table = t.render_summary();
        let rows: Vec<(&str, &str)> = table
            .lines()
            .skip(1)
            .map(|l| (&l[..8], l[20..].split_whitespace().next().expect("count column")))
            .collect();
        assert_eq!(
            rows,
            vec![("generate", "4"), ("  eos   ", "1"), ("  tezos ", "2"), ("render  ", "1")],
            "{table}"
        );
    }

    #[test]
    fn sink_receives_ndjson_events_with_depth() {
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = std::sync::Arc::new(Mutex::new(Vec::new()));
        let t = Tracer::new();
        t.set_sink(Box::new(Shared(buf.clone())));
        {
            let _outer = t.span("merge", "all");
            let _inner = t.span("sweep", "eos");
        }
        t.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let events: Vec<TraceEvent> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("trace line parses"))
            .collect();
        assert_eq!(events.len(), 2);
        // Inner drops first.
        assert_eq!((events[0].stage.as_str(), events[0].depth), ("sweep", 1));
        assert_eq!((events[1].stage.as_str(), events[1].depth), ("merge", 0));
        assert_eq!(events[0].label, "eos");
        assert!(events[0].start_us >= events[1].start_us);
    }

    #[test]
    fn trace_event_round_trips_through_ndjson() {
        let e = TraceEvent {
            stage: "sweep".into(),
            label: "tezos".into(),
            depth: 2,
            start_us: 12345,
            dur_us: 678,
        };
        let line = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, e);
    }
}
