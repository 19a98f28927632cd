//! Bucketed categorical time series — the data structure behind Figure 3.
//!
//! A `BucketSeries<K>` counts events per `(time bucket, category)` over a
//! fixed [`Period`], using the paper's six-hour buckets by default.

use crate::time::{ChainTime, Period, SIX_HOURS};
use std::collections::HashMap;
use std::hash::Hash;

#[derive(Debug, Clone)]
pub struct BucketSeries<K: Eq + Hash + Clone> {
    period: Period,
    width: i64,
    buckets: Vec<HashMap<K, u64>>,
    /// Events outside the period (kept for audit; not in any bucket).
    out_of_range: u64,
}

impl<K: Eq + Hash + Clone> BucketSeries<K> {
    pub fn new(period: Period, width: i64) -> Self {
        let n = period.bucket_count(width);
        BucketSeries {
            period,
            width,
            buckets: (0..n).map(|_| HashMap::new()).collect(),
            out_of_range: 0,
        }
    }

    /// Paper-style series: six-hour buckets.
    pub fn six_hourly(period: Period) -> Self {
        Self::new(period, SIX_HOURS)
    }

    pub fn period(&self) -> Period {
        self.period
    }

    pub fn width(&self) -> i64 {
        self.width
    }

    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// Record `n` events of category `key` at time `t`.
    pub fn record(&mut self, t: ChainTime, key: K, n: u64) {
        if !self.period.contains(t) {
            self.out_of_range += n;
            return;
        }
        let idx = t.bucket_index(self.period.start, self.width) as usize;
        *self.buckets[idx].entry(key).or_insert(0) += n;
    }

    /// Count for a category in a bucket.
    pub fn get(&self, bucket: usize, key: &K) -> u64 {
        self.buckets
            .get(bucket)
            .and_then(|b| b.get(key))
            .copied()
            .unwrap_or(0)
    }

    /// Total events in a bucket across categories.
    pub fn bucket_total(&self, bucket: usize) -> u64 {
        self.buckets
            .get(bucket)
            .map(|b| b.values().sum())
            .unwrap_or(0)
    }

    /// Total events for a category across all buckets.
    pub fn category_total(&self, key: &K) -> u64 {
        self.buckets
            .iter()
            .map(|b| b.get(key).copied().unwrap_or(0))
            .sum()
    }

    /// Grand total of all in-period events.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.values().sum::<u64>()).sum()
    }

    /// All categories seen, in deterministic (unspecified but stable-per-run)
    /// order only if `K: Ord`; see [`BucketSeries::categories_sorted`].
    pub(crate) fn categories(&self) -> Vec<K> {
        let mut set: Vec<K> = Vec::new();
        let mut seen: HashMap<K, ()> = HashMap::new();
        for b in &self.buckets {
            for k in b.keys() {
                if seen.insert(k.clone(), ()).is_none() {
                    set.push(k.clone());
                }
            }
        }
        set
    }

    /// Time series for one category: `(bucket start, count)` per bucket.
    pub fn series_for(&self, key: &K) -> Vec<(ChainTime, u64)> {
        (0..self.buckets.len())
            .map(|i| (self.period.bucket_start(i, self.width), self.get(i, key)))
            .collect()
    }

    /// The peak bucket (index, total) across categories.
    pub fn peak(&self) -> Option<(usize, u64)> {
        (0..self.buckets.len())
            .map(|i| (i, self.bucket_total(i)))
            .max_by_key(|(i, c)| (*c, std::cmp::Reverse(*i)))
    }

    /// Merge another series over the same period and bucket width.
    /// Counts add per `(bucket, category)`; the operation is associative and
    /// commutative, which is what makes parallel map-reduce sweeps exact.
    pub fn merge(&mut self, other: BucketSeries<K>) {
        assert_eq!(
            self.period, other.period,
            "merge requires identical periods"
        );
        assert_eq!(
            self.width, other.width,
            "merge requires identical bucket widths"
        );
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            for (k, n) in theirs {
                *mine.entry(k).or_insert(0) += n;
            }
        }
        self.out_of_range += other.out_of_range;
    }

    /// Re-key every count through `f`, combining categories that map to the
    /// same key. Used by the fused engine to record cheap raw keys during the
    /// sweep (e.g. contract names) and project them onto report categories
    /// (e.g. app labels) once, at finalization.
    pub fn map_keys<K2: Eq + Hash + Clone>(&self, f: impl Fn(&K) -> K2) -> BucketSeries<K2> {
        let mut out = BucketSeries::new(self.period, self.width);
        for (i, bucket) in self.buckets.iter().enumerate() {
            for (k, n) in bucket {
                *out.buckets[i].entry(f(k)).or_insert(0) += n;
            }
        }
        out.out_of_range = self.out_of_range;
        out
    }
}

impl<K: Eq + Hash + Clone + Ord> BucketSeries<K> {
    pub fn categories_sorted(&self) -> Vec<K> {
        let mut c = self.categories();
        c.sort();
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_period() -> Period {
        Period::new(
            ChainTime::from_ymd(2019, 10, 1),
            ChainTime::from_ymd(2019, 10, 3),
        )
    }

    #[test]
    fn buckets_cover_period() {
        let s: BucketSeries<&str> = BucketSeries::six_hourly(small_period());
        assert_eq!(s.bucket_count(), 8); // 2 days * 4
    }

    #[test]
    fn record_and_totals() {
        let mut s = BucketSeries::six_hourly(small_period());
        let t0 = ChainTime::from_ymd_hms(2019, 10, 1, 1, 0, 0);
        let t1 = ChainTime::from_ymd_hms(2019, 10, 2, 23, 0, 0);
        s.record(t0, "payment", 3);
        s.record(t0, "offer", 1);
        s.record(t1, "payment", 2);
        assert_eq!(s.get(0, &"payment"), 3);
        assert_eq!(s.get(7, &"payment"), 2);
        assert_eq!(s.bucket_total(0), 4);
        assert_eq!(s.category_total(&"payment"), 5);
        assert_eq!(s.total(), 6);
        assert_eq!(s.peak(), Some((0, 4)));
    }

    #[test]
    fn out_of_range_is_audited_not_binned() {
        let mut s = BucketSeries::six_hourly(small_period());
        s.record(ChainTime::from_ymd(2019, 9, 30), "x", 5);
        s.record(ChainTime::from_ymd(2019, 10, 3), "x", 7); // end is exclusive
        assert_eq!(s.total(), 0);
        assert_eq!(s.out_of_range(), 12);
    }

    #[test]
    fn series_extraction() {
        let mut s = BucketSeries::six_hourly(small_period());
        s.record(ChainTime::from_ymd_hms(2019, 10, 1, 7, 0, 0), "e", 9);
        let ser = s.series_for(&"e");
        assert_eq!(ser.len(), 8);
        assert_eq!(ser[1].1, 9);
        assert_eq!(ser[0].1, 0);
        assert_eq!(ser[1].0.hms(), (6, 0, 0));
    }

    #[test]
    fn merge_matches_combined_recording() {
        let t = |h: u32| ChainTime::from_ymd_hms(2019, 10, 1, h, 0, 0);
        let mut whole = BucketSeries::six_hourly(small_period());
        let mut a = BucketSeries::six_hourly(small_period());
        let mut b = BucketSeries::six_hourly(small_period());
        a.record(t(1), "x", 3);
        a.record(t(7), "y", 1);
        b.record(t(1), "x", 2);
        b.record(t(13), "z", 5);
        for (hour, key, n) in [(1, "x", 3), (7, "y", 1), (1, "x", 2), (13, "z", 5)] {
            whole.record(t(hour), key, n);
        }
        b.record(ChainTime::from_ymd(2019, 9, 1), "oob", 4);
        whole.record(ChainTime::from_ymd(2019, 9, 1), "oob", 4);
        a.merge(b);
        assert_eq!(a.total(), whole.total());
        assert_eq!(a.out_of_range(), whole.out_of_range());
        for key in ["x", "y", "z"] {
            assert_eq!(a.series_for(&key), whole.series_for(&key), "{key}");
        }
    }

    #[test]
    fn map_keys_projects_categories() {
        let mut s = BucketSeries::six_hourly(small_period());
        s.record(ChainTime::from_ymd_hms(2019, 10, 1, 1, 0, 0), 10u32, 2);
        s.record(ChainTime::from_ymd_hms(2019, 10, 1, 2, 0, 0), 11u32, 3);
        s.record(ChainTime::from_ymd_hms(2019, 10, 2, 1, 0, 0), 20u32, 7);
        s.record(ChainTime::from_ymd(2019, 9, 1), 99u32, 1);
        let projected = s.map_keys(|k| if *k < 20 { "teens" } else { "twenties" });
        assert_eq!(projected.get(0, &"teens"), 5, "10 and 11 fold together");
        assert_eq!(projected.category_total(&"twenties"), 7);
        assert_eq!(projected.out_of_range(), 1);
        assert_eq!(projected.total(), s.total());
    }

    #[test]
    fn categories_sorted_is_stable() {
        let mut s = BucketSeries::six_hourly(small_period());
        s.record(ChainTime::from_ymd_hms(2019, 10, 1, 1, 0, 0), "b", 1);
        s.record(ChainTime::from_ymd_hms(2019, 10, 1, 2, 0, 0), "a", 1);
        assert_eq!(s.categories_sorted(), vec!["a", "b"]);
    }
}
