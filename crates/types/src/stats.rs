//! Streaming statistics used throughout the analytics pipeline.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;

/// Welford online mean / standard deviation.
///
/// Figure 6 of the paper reports, per Tezos sender, the mean and standard
/// deviation of transactions per receiver; this is the accumulator behind it.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (the paper's σ over a complete enumeration).
    pub(crate) fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    pub fn stdev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merge another accumulator (parallel aggregation).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        *self = RunningStats { n, mean, m2 };
    }
}

/// Exact top-K by accumulated count.
///
/// The paper repeatedly ranks accounts/contracts by transaction count
/// (Figures 4, 5, 6, 8). Cardinalities are modest (≤ a few hundred thousand
/// accounts), so we keep exact counts and extract the top K at the end.
#[derive(Debug, Clone)]
pub struct TopK<T: Eq + Hash + Clone> {
    counts: HashMap<T, u64>,
}

impl<T: Eq + Hash + Clone> Default for TopK<T> {
    fn default() -> Self {
        TopK {
            counts: HashMap::new(),
        }
    }
}

impl<T: Eq + Hash + Clone> TopK<T> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, key: T, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    pub fn inc(&mut self, key: T) {
        self.add(key, 1);
    }

    pub fn count_of(&self, key: &T) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&T, &u64)> {
        self.counts.iter()
    }

    /// Merge another counter: per-key counts add. Associative and
    /// commutative, so chunked parallel accumulation is exact.
    pub fn merge(&mut self, other: TopK<T>) {
        if self.counts.is_empty() {
            self.counts = other.counts;
            return;
        }
        for (k, n) in other.counts {
            *self.counts.entry(k).or_insert(0) += n;
        }
    }
}

impl<T: Eq + Hash + Clone + Ord> TopK<T> {
    /// The `k` largest entries (all of them if `k` exceeds
    /// [`TopK::distinct`]), descending by count, ties in ascending key
    /// order: every entry sorted by that order and truncated to `k`. Only
    /// the kept entries are sorted and only their keys are cloned, so a
    /// short list off a large counter costs one pass over borrowed counts.
    pub fn top(&self, k: usize) -> Vec<(T, u64)> {
        let mut ranked: Vec<(&T, u64)> = self.counts.iter().map(|(t, c)| (t, *c)).collect();
        sort_truncated_by(&mut ranked, k, |a, b| {
            b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0))
        });
        ranked.into_iter().map(|(t, c)| (t.clone(), c)).collect()
    }
}

/// `v.sort_by(ord); v.truncate(k)`, computed by selecting the `k` first
/// elements under `ord` and sorting only those. The result is the same
/// whenever `ord` orders no two elements of `v` equal — every ranking
/// here breaks count ties by a distinct key — and a caller can then build
/// the expensive part of each row for the `k` kept alone.
pub fn sort_truncated_by<T>(v: &mut Vec<T>, k: usize, mut ord: impl FnMut(&T, &T) -> Ordering) {
    if k == 0 {
        v.clear();
        return;
    }
    if k < v.len() {
        v.select_nth_unstable_by(k - 1, &mut ord);
        v.truncate(k);
    }
    v.sort_unstable_by(ord);
}

/// Fixed-width linear histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo && nbins > 0, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
        }
    }

    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let i = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[i] += 1;
        }
    }

    #[cfg(test)]
    fn bins(&self) -> &[u64] {
        &self.bins
    }

    #[cfg(test)]
    fn underflow(&self) -> u64 {
        self.underflow
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

/// Gini coefficient of a non-negative sample (0 = perfect equality).
/// Used when characterising the skew of per-account activity (§3.3: "the 18
/// most active accounts are responsible for half of the total traffic").
pub fn gini(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| *x >= 0.0).collect();
    if v.is_empty() {
        return 0.0;
    }
    // Equal values are interchangeable in the weighted sum, so an unstable
    // sort gives the stable sort's bits.
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len() as f64;
    let sum: f64 = v.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stdev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        data.iter().for_each(|x| whole.push(*x));
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        data[..37].iter().for_each(|x| a.push(*x));
        data[37..].iter().for_each(|x| b.push(*x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stdev() - whole.stdev()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stdev(), 0.0);
    }

    #[test]
    fn topk_ranks_and_breaks_ties() {
        let mut t = TopK::new();
        for (k, n) in [("b", 5), ("a", 5), ("c", 9), ("d", 1)] {
            t.add(k, n);
        }
        let top = t.top(3);
        assert_eq!(top, vec![("c", 9), ("a", 5), ("b", 5)]);
        assert_eq!(t.total(), 20);
        assert_eq!(t.distinct(), 4);
        assert_eq!(t.count_of(&"d"), 1);
        assert_eq!(t.count_of(&"zz"), 0);
    }

    #[test]
    fn topk_merge_matches_combined_stream() {
        let items = ["a", "b", "a", "c", "b", "a", "d"];
        let mut whole = TopK::new();
        items.iter().for_each(|k| whole.inc(*k));
        let mut left = TopK::new();
        let mut right = TopK::new();
        items[..3].iter().for_each(|k| left.inc(*k));
        items[3..].iter().for_each(|k| right.inc(*k));
        left.merge(right);
        assert_eq!(left.top(4), whole.top(4));
        assert_eq!(left.total(), whole.total());
        // Merging into an empty counter is the identity.
        let mut empty = TopK::new();
        empty.merge(whole.clone());
        assert_eq!(empty.top(4), whole.top(4));
    }

    #[test]
    fn histogram_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 0.0, 0.5, 9.99, 10.0, 25.0] {
            h.record(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert!(
            (gini(&[5.0, 5.0, 5.0, 5.0])).abs() < 1e-12,
            "equal shares → 0"
        );
        // One account holds everything among many: approaches 1.
        let mut v = vec![0.0; 99];
        v.push(100.0);
        assert!(gini(&v) > 0.98);
    }
}
