//! Tier-1 tests for the telemetry subsystem: concurrent instrument
//! hammering, histogram quantile edge cases, a rooted span tree across a
//! real workload shape, and the NDJSON trace schema. One release-only test
//! prints the tracing overhead on the fused sweeps.

use std::hint::black_box;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use txstat::core::{ChainSweeps, EosColumnar, TezosColumnar, XrpColumnar};
use txstat::reports::{generate, PipelineData};
use txstat::telemetry::{
    current_span, tracer, within, Histogram, Registry, Span, TraceEvent, Tracer,
};
use txstat::types::time::{ChainTime, Period};
use txstat::workload::Scenario;

#[test]
fn counters_and_histograms_survive_concurrent_hammering() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;

    let registry = Arc::new(Registry::new());
    let counter = registry.counter("txstat_test_ops_total", "hammered ops");
    let gauge = registry.gauge("txstat_test_in_flight", "hammered gauge");
    let hist = registry.histogram("txstat_test_latency_us", "hammered latencies");

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (counter, gauge, hist) = (counter.clone(), gauge.clone(), hist.clone());
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    gauge.inc();
                    // Spread values across buckets: exact small values and
                    // exponentially-ranged larger ones.
                    hist.record_us((t as u64 + 1) * (i % 1024));
                    gauge.dec();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.get(), total, "no increments lost");
    assert_eq!(gauge.get(), 0, "gauge returns to zero");
    assert!(gauge.peak() >= 1, "peak saw at least one in-flight op");
    assert!(gauge.peak() <= THREADS as u64, "peak bounded by thread count");
    assert_eq!(hist.total(), total, "every sample recorded");

    // The rendered exposition agrees with the instruments.
    let text = registry.render_prometheus();
    assert!(text.contains(&format!("txstat_test_ops_total {total}")), "{text}");
    assert!(text.contains(&format!("txstat_test_latency_us_count {total}")), "{text}");
    assert!(text.contains("txstat_test_in_flight_peak"), "{text}");
}

#[test]
fn histogram_quantile_edge_cases() {
    // Empty: quantiles and mean are zero, snapshot has no buckets.
    let snap = Histogram::new().snapshot();
    assert_eq!(snap.quantile(0.5), 0);
    assert_eq!(snap.mean(), 0.0);
    assert!(snap.buckets.is_empty());

    // Single bucket: every quantile answers that bucket's value.
    let h = Histogram::new();
    for _ in 0..100 {
        h.record_us(3);
    }
    let snap = h.snapshot();
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(snap.quantile(q), 3, "q={q}");
    }

    // Overflow bucket: the top bucket's upper bound reads as +Inf/u64::MAX
    // rather than a wrapped shift.
    let h = Histogram::new();
    h.record_us(u64::MAX);
    let snap = h.snapshot();
    assert_eq!(snap.total, 1);
    assert_eq!(snap.buckets.last().expect("one bucket").upper, u64::MAX);

    // Out-of-range quantile arguments clamp instead of panicking.
    let h = Histogram::new();
    h.record_us(10);
    let snap = h.snapshot();
    assert_eq!(snap.quantile(-1.0), snap.quantile(0.0));
    assert_eq!(snap.quantile(2.0), snap.quantile(1.0));
}

/// An in-memory NDJSON sink whose bytes stay readable after the tracer
/// took the writer.
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
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("utf8 trace")
    }
}

#[test]
fn spans_nest_and_aggregate_like_a_pipeline_run() {
    let (t, buf) = (Tracer::new(), Shared::default());
    t.set_sink(Box::new(buf.clone()));
    // Shape of a pipeline run under its root: one crawl per chain on its
    // own thread, each containing a sweep; then a single merge.
    {
        let _root = t.root("report");
        let parent = current_span();
        std::thread::scope(|s| {
            for chain in ["eos", "tezos", "xrp"] {
                let t = &t;
                s.spawn(move || {
                    within(parent, || {
                        let _crawl = t.span("crawl", chain);
                        let _sweep = t.span("sweep", chain);
                    })
                });
            }
        });
        let _merge = t.span("merge", "all");
    }
    let events: Vec<TraceEvent> =
        buf.text().lines().map(|l| serde_json::from_str(l).expect("event")).collect();
    let root = events.last().expect("the root closes last");
    assert_eq!((root.stage.as_str(), root.parent), ("report", 0));
    // Each sweep sits under its chain's crawl, each crawl under the root.
    for e in &events[..events.len() - 1] {
        let parent = events.iter().find(|p| p.id == e.parent).expect("parent in the trace");
        let expected = if e.stage == "sweep" { "crawl" } else { "report" };
        assert_eq!(parent.stage, expected, "{e:?}");
    }
    // The root's thread partitions its wall time: merge plus unattributed.
    let on_root: u64 = events.iter().filter(|e| e.thread == root.thread).map(|e| e.self_us).sum();
    assert_eq!(on_root, root.dur_us);

    let table = t.render_summary();
    let rows: Vec<(&str, &str)> = table
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with(' '))
        .map(|l| (l.split_whitespace().next().unwrap(), l.split_whitespace().nth(1).unwrap()))
        .collect();
    assert_eq!(
        rows,
        vec![
            ("crawl", "3"),
            ("merge", "1"),
            ("sweep", "3"),
            ("unattributed", "1"),
            ("report", "1")
        ],
        "{table}"
    );
}

#[test]
fn ndjson_trace_schema_round_trips_through_a_sink() {
    let buf = Shared::default();
    let t = Tracer::new();
    t.set_sink(Box::new(buf.clone()));
    {
        let _outer = t.span("follow_advance", "");
        let _inner = t.span("follow_merge", "");
    }
    t.flush();

    let text = buf.text();
    let events: Vec<TraceEvent> = text
        .lines()
        .map(|line| {
            // Every line is a self-contained JSON object with the full
            // schema.
            let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
            for key in ["stage", "label", "id", "parent", "thread", "start_us", "dur_us", "self_us"]
            {
                assert!(!v[key].is_null(), "missing {key} in {line}");
            }
            serde_json::from_str(line).expect("TraceEvent parses")
        })
        .collect();
    assert_eq!(events.len(), 2);
    // Inner closes first, under the outer span, which contains it in time
    // and whose self time excludes it.
    let (inner, outer) = (&events[0], &events[1]);
    assert_eq!((inner.stage.as_str(), inner.parent), ("follow_merge", outer.id));
    assert_eq!((outer.stage.as_str(), outer.parent), ("follow_advance", 0));
    assert!(outer.dur_us >= inner.dur_us);
    assert_eq!(outer.self_us, outer.dur_us - inner.dur_us);
    // Round-trip: re-serializing yields an equal event.
    let line = serde_json::to_string(inner).expect("serialize");
    let back: TraceEvent = serde_json::from_str(&line).expect("parse");
    assert_eq!(&back, inner);
}

/// The three columnar sweeps in the span layout `PipelineData::sweeps()`
/// uses: one `sweep` span per chain around its compute. Whether the spans
/// cost anything is decided by the global tracer's state alone.
fn fused_sweeps(data: &PipelineData) -> ChainSweeps {
    let period = data.scenario.period;
    ChainSweeps {
        eos: {
            let _span = Span::enter("sweep", "eos");
            EosColumnar::compute(&data.eos_blocks, period)
        },
        tezos: {
            let _span = Span::enter("sweep", "tezos");
            TezosColumnar::compute(&data.tezos_blocks, period, &data.governance_periods)
        },
        xrp: {
            let _span = Span::enter("sweep", "xrp");
            XrpColumnar::compute(&data.xrp_blocks, period, &data.oracle)
        },
    }
}

/// The < 2 % tracing-overhead contract on the hottest analytics path: the
/// fused sweeps of a 12-day small window straddling the EIDOS launch, timed
/// in alternating pairs with the global tracer off, then on. Prints the
/// medians; asserts nothing about them, since a shared runner's clock
/// means nothing.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing: release only")]
fn tracing_overhead_on_the_fused_sweeps() {
    const PAIRS: usize = 15;
    const SWEEPS_PER_SAMPLE: u32 = 3;
    let mut sc = Scenario::small(42);
    sc.period = Period::new(ChainTime::from_ymd(2019, 10, 26), ChainTime::from_ymd(2019, 11, 7));
    let data = generate(&sc);
    black_box(fused_sweeps(&data));

    let sample_ms = |enable: bool| {
        if enable {
            tracer().enable();
        } else {
            tracer().disable();
        }
        let started = Instant::now();
        for _ in 0..SWEEPS_PER_SAMPLE {
            black_box(fused_sweeps(&data));
        }
        started.elapsed().as_secs_f64() * 1e3 / f64::from(SWEEPS_PER_SAMPLE)
    };
    // Which side of a pair runs first alternates too, so neither inherits
    // the other's warm caches every time.
    let (mut off, mut on) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            off.push(sample_ms(false));
            on.push(sample_ms(true));
        } else {
            on.push(sample_ms(true));
            off.push(sample_ms(false));
        }
    }
    tracer().disable();

    let median = |mut ms: Vec<f64>| {
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    let (off, on) = (median(off), median(on));
    println!(
        "telemetry overhead on fused sweeps: {off:.3} ms off vs {on:.3} ms on ({:+.2}%)",
        (on / off - 1.0) * 100.0
    );
}
