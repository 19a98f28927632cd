//! Tier-1 tests for the telemetry subsystem: concurrent instrument
//! hammering, histogram quantile edge cases, span nesting across a real
//! workload shape, and the NDJSON trace schema. One release-only test
//! prints the tracing overhead on the fused sweeps.

use std::hint::black_box;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use txstat::core::{ChainSweeps, EosColumnar, TezosColumnar, XrpColumnar};
use txstat::reports::{generate, PipelineData};
use txstat::telemetry::{tracer, Histogram, Registry, Span, TraceEvent, Tracer};
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
    let h = Histogram::new();
    assert_eq!(h.quantile_us(0.5), 0);
    assert_eq!(h.mean_us(), 0.0);
    assert!(h.snapshot().buckets.is_empty());

    // Single bucket: every quantile answers that bucket's value.
    let h = Histogram::new();
    for _ in 0..100 {
        h.record_us(3);
    }
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(h.quantile_us(q), 3, "q={q}");
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
    assert_eq!(h.quantile_us(-1.0), h.quantile_us(0.0));
    assert_eq!(h.quantile_us(2.0), h.quantile_us(1.0));
}

#[test]
fn spans_nest_and_aggregate_like_a_pipeline_run() {
    let t = Tracer::new();
    t.enable();
    // Shape of a pipeline run: one crawl per chain, each containing a
    // sweep; then a single merge.
    for chain in ["eos", "tezos", "xrp"] {
        let _crawl = t.span("crawl", chain);
        let _sweep = t.span("sweep", chain);
    }
    {
        let _merge = t.span("merge", "all");
    }
    let rows = t.summary();
    let by_stage: Vec<(&str, u64)> = rows.iter().map(|r| (r.stage, r.count)).collect();
    assert_eq!(by_stage, vec![("crawl", 3), ("merge", 1), ("sweep", 3)]);
    let table = t.render_summary();
    for stage in ["crawl", "merge", "sweep"] {
        assert!(table.contains(stage), "{table}");
    }
}

#[test]
fn ndjson_trace_schema_round_trips_through_a_sink() {
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

    let buf = Arc::new(Mutex::new(Vec::new()));
    let t = Tracer::new();
    t.set_sink(Box::new(Shared(buf.clone())));
    {
        let _outer = t.span("follow_advance", "");
        let _inner = t.span("follow_merge", "");
    }
    t.flush();

    let text = String::from_utf8(buf.lock().unwrap().clone()).expect("utf8 trace");
    let events: Vec<TraceEvent> = text
        .lines()
        .map(|line| {
            // Every line is a self-contained JSON object with the full
            // schema (stage/label/depth/start_us/dur_us).
            let v: serde_json::Value = serde_json::from_str(line).expect("line parses");
            for key in ["stage", "label", "depth", "start_us", "dur_us"] {
                assert!(!v[key].is_null(), "missing {key} in {line}");
            }
            serde_json::from_str(line).expect("TraceEvent parses")
        })
        .collect();
    assert_eq!(events.len(), 2);
    // Inner closes first and carries depth 1; outer contains it in time.
    assert_eq!((events[0].stage.as_str(), events[0].depth), ("follow_merge", 1));
    assert_eq!((events[1].stage.as_str(), events[1].depth), ("follow_advance", 0));
    assert!(events[1].dur_us >= events[0].dur_us);
    // Round-trip: re-serializing yields an equal event.
    let line = serde_json::to_string(&events[0]).expect("serialize");
    let back: TraceEvent = serde_json::from_str(&line).expect("parse");
    assert_eq!(back, events[0]);
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
