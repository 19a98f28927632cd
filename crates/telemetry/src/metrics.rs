//! The metric primitives. Every update path is a handful of `Relaxed`
//! atomic operations — no locks, no allocation — so instruments can sit on
//! pipeline hot paths (per-block folds, per-request serving) without
//! perturbing what they measure. Reads (snapshots, quantiles) are racy in
//! the usual monitoring sense: each counter is individually consistent,
//! cross-counter consistency is not promised.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable level with a high-water mark. `inc`/`dec` make it usable as
/// an in-flight gauge (the peak then records the worst concurrency seen).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the level (peak-tracked).
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Increment and return the new level (peak-tracked).
    #[inline]
    pub fn inc(&self) -> u64 {
        let now = self.value.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        now
    }

    #[inline]
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest level ever set or reached.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// A cheap lock-free histogram: quarter-octave (≤ ~19% wide) buckets over
/// unsigned values (canonically microseconds), atomic counters throughout.
/// Recording is one `fetch_add`; quantiles walk 256 buckets. Precise
/// enough for p50/p99 observability without a sample buffer or a lock.
///
/// Promoted from `txstat_netsim`'s endpoint latency accounting.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; Self::BUCKETS],
    total: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// One non-empty bucket of a [`HistogramSnapshot`]: the `[lower, upper)`
/// value range and the cumulative count up to and including it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramBucket {
    pub lower: u64,
    /// Exclusive upper edge; `u64::MAX` marks the overflow bucket
    /// (rendered as `+Inf`).
    pub upper: u64,
    pub cumulative: u64,
}

/// A point-in-time copy of a histogram: totals plus the non-empty buckets
/// in ascending order with cumulative counts (the Prometheus exposition
/// shape).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub total: u64,
    pub sum: u64,
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// The `q`-quantile (0.0 ..= 1.0) as the lower edge of the bucket where
    /// the cumulative count crosses it. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        for b in &self.buckets {
            if b.cumulative >= target {
                return b.lower;
            }
        }
        self.buckets.last().map_or(0, |b| b.lower)
    }
}

impl Histogram {
    pub(crate) const BUCKETS: usize = 256;

    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index for a value: exact below 4, then four sub-buckets per
    /// power of two (quarter-octave resolution).
    pub(crate) fn bucket_of(us: u64) -> usize {
        if us < 4 {
            return us as usize;
        }
        let b = 63 - us.leading_zeros() as usize; // us >= 4 ⇒ b >= 2
        let sub = ((us >> (b - 2)) & 0b11) as usize;
        (4 * (b - 1) + sub).min(Self::BUCKETS - 1)
    }

    /// Lower edge of a bucket (the value quantiles report).
    pub(crate) fn bucket_value(idx: usize) -> u64 {
        if idx < 4 {
            return idx as u64;
        }
        let b = idx / 4 + 1;
        let sub = (idx % 4) as u64;
        (4 + sub) << (b - 2)
    }

    /// Exclusive upper edge of a bucket; `u64::MAX` for the overflow
    /// bucket (the last one reachable — `bucket_of(u64::MAX)` — and
    /// beyond, whose nominal upper edge exceeds the u64 range).
    pub(crate) fn bucket_upper(idx: usize) -> u64 {
        if idx >= Self::bucket_of(u64::MAX) {
            u64::MAX
        } else {
            Self::bucket_value(idx + 1)
        }
    }

    #[inline]
    pub fn record_us(&self, us: u64) {
        self.counts[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
    }

    pub fn record(&self, elapsed: Duration) {
        self.record_us(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of every recorded value.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copy out the non-empty buckets with cumulative counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cum = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            cum += c;
            buckets.push(HistogramBucket {
                lower: Self::bucket_value(idx),
                upper: Self::bucket_upper(idx),
                cumulative: cum,
            });
        }
        HistogramSnapshot { total: self.total(), sum: self.sum(), buckets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        assert_eq!(g.inc(), 1);
        assert_eq!(g.inc(), 2);
        g.dec();
        assert_eq!(g.get(), 1);
        assert_eq!(g.peak(), 2);
        g.set(7);
        assert_eq!((g.get(), g.peak()), (7, 7));
        g.set(3);
        assert_eq!((g.get(), g.peak()), (3, 7));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile(0.5), 0, "empty histogram");
        // Exact low buckets.
        for us in 0..4 {
            assert_eq!(Histogram::bucket_value(Histogram::bucket_of(us)), us);
        }
        // Bucket lower edges never exceed the recorded value, and stay
        // within quarter-octave resolution of it.
        for us in [4u64, 7, 8, 100, 1_000, 65_535, 1_000_000, u64::MAX / 2] {
            let edge = Histogram::bucket_value(Histogram::bucket_of(us));
            assert!(edge <= us, "edge {edge} > {us}");
            assert!(us < edge + edge / 4 + 1, "us {us} too far above edge {edge}");
        }
        // Quantiles over a known distribution: 90 fast + 10 slow.
        for _ in 0..90 {
            h.record_us(100);
        }
        for _ in 0..10 {
            h.record_us(10_000);
        }
        assert_eq!(h.total(), 100);
        let s = h.snapshot();
        let (p50, p99) = (s.quantile(0.5), s.quantile(0.99));
        assert!((96..=100).contains(&p50), "p50={p50}");
        assert!((8_192..=10_000).contains(&p99), "p99={p99}");
        assert!(s.mean() > 100.0 && s.mean() < 10_000.0);
    }

    #[test]
    fn snapshot_is_cumulative_and_quantile_consistent() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record_us(100);
        }
        for _ in 0..10 {
            h.record_us(10_000);
        }
        let s = h.snapshot();
        assert_eq!(s.total, 100);
        assert_eq!(s.sum, 90 * 100 + 10 * 10_000);
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.buckets[0].cumulative, 90);
        assert_eq!(s.buckets[1].cumulative, 100);
        assert!(s.buckets[0].lower <= 100 && 100 < s.buckets[0].upper);
        assert_eq!(s.quantile(0.5), s.buckets[0].lower);
        assert_eq!(s.quantile(0.99), s.buckets[1].lower);
    }

    #[test]
    fn overflow_bucket_is_plus_inf() {
        let h = Histogram::default();
        h.record_us(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets.len(), 1);
        assert_eq!(s.buckets[0].upper, u64::MAX);
        assert_eq!(s.buckets[0].cumulative, 1);
        assert_eq!(s.quantile(1.0), Histogram::bucket_value(Histogram::bucket_of(u64::MAX)));
    }
}
