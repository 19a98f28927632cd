//! The metric registry: named families of [`Counter`]/[`Gauge`]/[`Histogram`]
//! instruments with label sets, gathered into samples and rendered as
//! Prometheus text exposition or a JSON snapshot.
//!
//! Handle acquisition (`counter`, `gauge_with`, …) takes a write lock once
//! and hands back an `Arc` the caller keeps; the hot path then touches only
//! the instrument's atomics. `gather` takes read locks and copies values out.
//!
//! Naming conventions (see crates/telemetry/README.md): every family is
//! `txstat_<layer>_<what>[_total|_us]` — `_total` for counters, `_us` for
//! microsecond histograms; labels carry cardinality (chain, shard, route,
//! format), never the layer.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use serde_json::{json, Value};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// What kind of instrument a family holds; mixing kinds under one name is a
/// programmer error and panics at registration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn prom_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// A normalized (sorted, owned) label set.
pub(crate) type Labels = Vec<(String, String)>;

fn normalize(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    out.sort();
    out
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    metrics: Vec<(Labels, Metric)>,
}

/// One gathered time series: a family's name/help/kind plus one labeled value.
#[derive(Debug, Clone)]
pub struct Sample {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    pub labels: Labels,
    pub value: SampleValue,
}

#[derive(Debug, Clone)]
pub enum SampleValue {
    Int(u64),
    /// Gauges also expose their high-water mark as `<name>_peak`.
    Hist(HistogramSnapshot),
}

type Collector = Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

/// A collection of metric families plus ad-hoc collectors, gatherable into
/// a consistent-enough sample set for exposition.
#[derive(Default)]
pub struct Registry {
    families: RwLock<BTreeMap<String, Family>>,
    collectors: RwLock<Vec<Collector>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fams = self.families.read().unwrap();
        f.debug_struct("Registry").field("families", &fams.keys().collect::<Vec<_>>()).finish()
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_create(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let want = normalize(labels);
        let mut fams = self.families.write().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: MetricKind::Counter, // overwritten below on first insert
            metrics: Vec::new(),
        });
        if let Some((_, m)) = fam.metrics.iter().find(|(l, _)| *l == want) {
            return m.clone();
        }
        let metric = make();
        if fam.metrics.is_empty() {
            fam.kind = metric.kind();
            if fam.help.is_empty() {
                fam.help = help.to_string();
            }
        } else {
            assert_eq!(
                fam.kind,
                metric.kind(),
                "metric family `{name}` registered with conflicting kinds"
            );
        }
        fam.metrics.push((want, metric.clone()));
        metric
    }

    /// Get or create an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Get or create a counter with the given labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_create(name, help, labels, || Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c,
            _ => panic!("metric family `{name}` is not a counter"),
        }
    }

    /// Get or create an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Get or create a gauge with the given labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_create(name, help, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric family `{name}` is not a gauge"),
        }
    }

    /// Get or create an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Get or create a histogram with the given labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self
            .get_or_create(name, help, labels, || Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => h,
            _ => panic!("metric family `{name}` is not a histogram"),
        }
    }

    /// Register a closure that contributes extra samples at gather time
    /// (for stats owned elsewhere, e.g. per-route serving stats).
    pub fn register_collector(&self, f: impl Fn(&mut Vec<Sample>) + Send + Sync + 'static) {
        self.collectors.write().unwrap().push(Box::new(f));
    }

    /// Copy every instrument (and collector output) into a sample list.
    pub(crate) fn gather(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        {
            let fams = self.families.read().unwrap();
            for (name, fam) in fams.iter() {
                for (labels, metric) in &fam.metrics {
                    let value = match metric {
                        Metric::Counter(c) => SampleValue::Int(c.get()),
                        Metric::Gauge(g) => SampleValue::Int(g.get()),
                        Metric::Histogram(h) => SampleValue::Hist(h.snapshot()),
                    };
                    out.push(Sample {
                        name: name.clone(),
                        help: fam.help.clone(),
                        kind: fam.kind,
                        labels: labels.clone(),
                        value,
                    });
                    // A gauge's high-water mark rides along as a sibling
                    // gauge family.
                    if let Metric::Gauge(g) = metric {
                        out.push(Sample {
                            name: format!("{name}_peak"),
                            help: format!("{} (high-water mark)", fam.help),
                            kind: MetricKind::Gauge,
                            labels: labels.clone(),
                            value: SampleValue::Int(g.peak()),
                        });
                    }
                }
            }
        }
        let collectors = self.collectors.read().unwrap();
        for c in collectors.iter() {
            c(&mut out);
        }
        out
    }

    /// Render every sample in the Prometheus text exposition format
    /// (`# HELP`/`# TYPE` once per family, histograms as cumulative
    /// `_bucket{le=}` series plus `_sum`/`_count`).
    pub fn render_prometheus(&self) -> String {
        let mut by_name: BTreeMap<String, Vec<Sample>> = BTreeMap::new();
        for s in self.gather() {
            by_name.entry(s.name.clone()).or_default().push(s);
        }
        let mut out = String::new();
        for (name, samples) in &by_name {
            let first = &samples[0];
            if !first.help.is_empty() {
                out.push_str(&format!("# HELP {name} {}\n", first.help));
            }
            out.push_str(&format!("# TYPE {name} {}\n", first.kind.prom_type()));
            for s in samples {
                match &s.value {
                    SampleValue::Int(v) => {
                        out.push_str(&format!("{name}{} {v}\n", render_labels(&s.labels, &[])));
                    }
                    SampleValue::Hist(h) => {
                        for b in &h.buckets {
                            let le = if b.upper == u64::MAX {
                                "+Inf".to_string()
                            } else {
                                b.upper.to_string()
                            };
                            out.push_str(&format!(
                                "{name}_bucket{} {}\n",
                                render_labels(&s.labels, &[("le", &le)]),
                                b.cumulative
                            ));
                        }
                        if h.buckets.last().map(|b| b.upper) != Some(u64::MAX) {
                            out.push_str(&format!(
                                "{name}_bucket{} {}\n",
                                render_labels(&s.labels, &[("le", "+Inf")]),
                                h.total
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            render_labels(&s.labels, &[]),
                            h.sum
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            render_labels(&s.labels, &[]),
                            h.total
                        ));
                    }
                }
            }
        }
        out
    }

    /// The same samples as a JSON tree (for `/statusz`): one object per
    /// family, labeled series keyed by their rendered label set, histograms
    /// summarized as count/sum/mean/p50/p99.
    pub fn snapshot_json(&self) -> Value {
        let mut by_name: BTreeMap<String, Vec<Sample>> = BTreeMap::new();
        for s in self.gather() {
            by_name.entry(s.name.clone()).or_default().push(s);
        }
        let mut families = serde_json::Map::new();
        for (name, samples) in &by_name {
            let mut series = serde_json::Map::new();
            for s in samples {
                let key = if s.labels.is_empty() {
                    "".to_string()
                } else {
                    render_labels(&s.labels, &[])
                };
                let v = match &s.value {
                    SampleValue::Int(v) => json!(v),
                    SampleValue::Hist(h) => json!({
                        "count": h.total,
                        "sum": h.sum,
                        "mean": h.mean(),
                        "p50": h.quantile(0.5),
                        "p99": h.quantile(0.99),
                    }),
                };
                series.insert(key, v);
            }
            families.insert(
                name.clone(),
                json!({
                    "type": samples[0].kind.prom_type(),
                    "series": Value::Object(series),
                }),
            );
        }
        Value::Object(families)
    }
}

fn render_labels(labels: &Labels, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts = Vec::with_capacity(labels.len() + extra.len());
    for (k, v) in labels {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    for (k, v) in extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// The process-wide default registry. Library layers record here when not
/// handed an explicit registry; `reproduce serve` exposes it at `/metrics`.
pub fn registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_labels_are_order_independent() {
        let reg = Registry::new();
        let a = reg.counter_with("txstat_test_total", "help", &[("chain", "eos"), ("shard", "0")]);
        let b = reg.counter_with("txstat_test_total", "help", &[("shard", "0"), ("chain", "eos")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same labels (any order) share one instrument");
        let c = reg.counter_with("txstat_test_total", "help", &[("chain", "xrp"), ("shard", "0")]);
        c.inc();
        assert_eq!(c.get(), 1);
        assert_eq!(reg.gather().len(), 2);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        let _ = reg.counter("txstat_conflict", "");
        let _ = reg.gauge("txstat_conflict", "");
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = Registry::new();
        reg.counter_with("txstat_frames_total", "Frames decoded", &[("format", "v2_bin")]).add(5);
        reg.gauge("txstat_lag", "Batch lag").set(3);
        let h = reg.histogram("txstat_decode_us", "Decode time");
        h.record_us(100);
        h.record_us(10_000);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE txstat_frames_total counter"), "{text}");
        assert!(text.contains("txstat_frames_total{format=\"v2_bin\"} 5"), "{text}");
        assert!(text.contains("# TYPE txstat_lag gauge"), "{text}");
        assert!(text.contains("txstat_lag 3"), "{text}");
        assert!(text.contains("txstat_lag_peak 3"), "{text}");
        assert!(text.contains("# TYPE txstat_decode_us histogram"), "{text}");
        assert!(text.contains("txstat_decode_us_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("txstat_decode_us_sum 10100"), "{text}");
        assert!(text.contains("txstat_decode_us_count 2"), "{text}");
        // Families render in sorted order exactly once.
        assert_eq!(text.matches("# TYPE txstat_decode_us histogram").count(), 1);

        let snap = reg.snapshot_json();
        assert_eq!(snap["txstat_lag"]["series"][""], 3u64);
        assert_eq!(snap["txstat_decode_us"]["series"][""]["count"], 2u64);
    }

    #[test]
    fn collectors_contribute_samples() {
        let reg = Registry::new();
        reg.register_collector(|out| {
            out.push(Sample {
                name: "txstat_extra".into(),
                help: "from a collector".into(),
                kind: MetricKind::Gauge,
                labels: vec![("route".into(), "exhibit".into())],
                value: SampleValue::Int(7),
            });
        });
        let text = reg.render_prometheus();
        assert!(text.contains("txstat_extra{route=\"exhibit\"} 7"), "{text}");
    }
}
