//! Unified telemetry for the txstat workspace: a lock-free metrics
//! registry (counters, gauges with high-water marks, quarter-octave
//! histograms), a span-based stage tracer, and exposition in Prometheus
//! text and JSON snapshot form.
//!
//! The instruments live in [`metrics`]; named/labeled families and the
//! gather/render machinery in [`mod@registry`]; stage spans and the NDJSON
//! trace sink in [`trace`]. Hot paths hold `Arc` handles — each layer
//! keeps its families in one struct of them, built once — so recording
//! never takes the registry lock.

pub mod metrics;
pub mod registry;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{registry, MetricKind, Registry, Sample, SampleValue};
pub use trace::{cpus, join, par_map, tracer, Span, TraceEvent, Tracer};
