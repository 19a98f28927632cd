//! Unified telemetry for the txstat workspace: a lock-free metrics
//! registry (counters, gauges with high-water marks, quarter-octave
//! histograms), a span-based stage tracer, and exposition in Prometheus
//! text and JSON snapshot form.
//!
//! The instruments live in [`metrics`]; named/labeled families and the
//! gather/render machinery in [`mod@registry`]; stage spans and the NDJSON
//! trace sink in [`trace`]. Hot paths hold `Arc` handles (or the
//! `static_counter!`-style macros' `OnceLock` statics) so recording never
//! takes the registry lock.

pub mod metrics;
pub mod registry;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{registry, MetricKind, Registry, Sample, SampleValue};
pub use trace::{tracer, Span, TraceEvent, Tracer};

/// A `&'static Arc<Counter>` registered once in the global registry.
///
/// ```
/// use txstat_telemetry::static_counter;
/// fn frames_seen() {
///     static_counter!(FRAMES, "txstat_doc_frames_total", "Frames seen").inc();
///     assert!(static_counter!(FRAMES, "txstat_doc_frames_total", "Frames seen").get() >= 1);
/// }
/// frames_seen();
/// ```
#[macro_export]
macro_rules! static_counter {
    ($ident:ident, $name:expr, $help:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        static $ident: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> =
            std::sync::OnceLock::new();
        &**$ident.get_or_init(|| {
            $crate::registry().counter_with($name, $help, &[$(($k, $v)),*])
        })
    }};
}

/// A `&'static Gauge` registered once in the global registry.
#[macro_export]
macro_rules! static_gauge {
    ($ident:ident, $name:expr, $help:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        static $ident: std::sync::OnceLock<std::sync::Arc<$crate::Gauge>> =
            std::sync::OnceLock::new();
        &**$ident.get_or_init(|| {
            $crate::registry().gauge_with($name, $help, &[$(($k, $v)),*])
        })
    }};
}

/// A `&'static Histogram` registered once in the global registry.
#[macro_export]
macro_rules! static_histogram {
    ($ident:ident, $name:expr, $help:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        static $ident: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
            std::sync::OnceLock::new();
        &**$ident.get_or_init(|| {
            $crate::registry().histogram_with($name, $help, &[$(($k, $v)),*])
        })
    }};
}
