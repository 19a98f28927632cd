//! Range-keyed checkpoints of per-shard accumulators — the groundwork for
//! incremental re-sweep.
//!
//! A [`Checkpoint`] freezes the state of a sharded ingestion run: the
//! per-shard accumulators (still unmerged, in shard order), the inclusive
//! block range they observed, and the per-shard observation counts. Because
//! the sweep algebra is a commutative monoid, appending new blocks only
//! requires routing the *tail* (`n > high`) through [`Checkpoint::observe_tail`]
//! — the already-observed prefix is never re-scanned — and
//! [`Checkpoint::merged`] re-merges the shards into a full accumulator in
//! O(shards) instead of O(chain).
//!
//! Checkpoints live in memory only — every block is a pure function of
//! `(preset, seed)`, so a restarted follower re-sweeps rather than
//! reloading state.

use crate::IngestError;

/// Frozen sharded sweep state over the inclusive block range `[low, high]`.
///
/// No production path follows through a `Checkpoint` any more: `serve` and
/// `follow` fold per-batch deltas into standing sweeps
/// (`txstat_reports::Follower`). [`Checkpoint::new`],
/// [`Checkpoint::observe_tail`] and [`Checkpoint::merged`] keep their exact
/// signatures because `benchmark/src/bin/layers.rs` spells its private
/// follower with them and `benchmark/` changes only in its own PR; ROADMAP
/// item 6(i)'s benchmark PR removes that last caller.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<A> {
    /// Per-shard accumulators, in shard-index order. Block `n` lives in
    /// shard `n % shards.len()`.
    pub shards: Vec<A>,
    /// Per-shard observed-block counts (same order).
    pub counts: Vec<u64>,
    /// Inclusive observed block range.
    pub low: u64,
    pub high: u64,
}

impl<A> Checkpoint<A> {
    /// An empty checkpoint poised to observe from block `low` upward:
    /// zero counts, `high` one below `low` so the first tail block at
    /// `low` clears the high-water check.
    pub fn new(shards: Vec<A>, low: u64) -> Self {
        let counts = vec![0u64; shards.len()];
        Checkpoint {
            shards,
            counts,
            low,
            high: low.saturating_sub(1),
        }
    }

    /// Total blocks observed.
    pub fn observed(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fold an appended tail of blocks into the existing shard
    /// accumulators, extending the range. The tail may arrive in any order
    /// (crawl sources emit reverse-chronologically) as long as every block
    /// is strictly above the high-water mark the checkpoint had when the
    /// call started and appears at most once — anything already covered, or
    /// repeated within the tail, would double-count and is rejected. On
    /// `Err` the checkpoint has absorbed an unspecified prefix of the tail
    /// and must be discarded.
    pub fn observe_tail<B>(
        &mut self,
        tail: impl IntoIterator<Item = (u64, B)>,
        observe: impl Fn(&mut A, u64, &B),
    ) -> Result<u64, IngestError> {
        let shards = self.shards.len() as u64;
        let floor = self.high;
        let mut seen = std::collections::HashSet::new();
        let mut appended = 0u64;
        for (n, block) in tail {
            if n <= floor || !seen.insert(n) {
                return Err(IngestError::RangeRegression { n, high: floor });
            }
            let shard = (n % shards) as usize;
            observe(&mut self.shards[shard], n, &block);
            self.counts[shard] += 1;
            self.high = self.high.max(n);
            appended += 1;
        }
        Ok(appended)
    }

    /// Merge the shard accumulators (cloned, so the checkpoint stays
    /// extendable) in shard-index order.
    pub fn merged(&self, mut merge: impl FnMut(&mut A, A)) -> A
    where
        A: Clone,
    {
        let mut it = self.shards.iter().cloned();
        let mut acc = it.next().expect("at least one shard");
        for other in it {
            merge(&mut acc, other);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature mergeable accumulator with the same shape as the chain
    /// sweeps: counters plus a bucketed series.
    #[derive(Debug, Clone, PartialEq)]
    struct MiniAcc {
        blocks: u64,
        weight: u64,
        buckets: Vec<u64>,
    }

    impl MiniAcc {
        fn identity() -> Self {
            MiniAcc {
                blocks: 0,
                weight: 0,
                buckets: vec![0; 4],
            }
        }

        fn observe(&mut self, n: u64, w: &u64) {
            self.blocks += 1;
            self.weight += *w;
            self.buckets[(n % 4) as usize] += *w;
        }

        fn merge(&mut self, other: MiniAcc) {
            self.blocks += other.blocks;
            self.weight += other.weight;
            for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
                *a += b;
            }
        }
    }

    /// Build a checkpoint by folding `range` (1-based, like block numbers)
    /// through `observe_tail` from an empty shard layout.
    fn fold_range(range: std::ops::RangeInclusive<u64>, shards: usize) -> Checkpoint<MiniAcc> {
        let low = *range.start();
        assert!(
            low >= 1,
            "test helper uses low-1 as the empty high-water mark"
        );
        let mut cp = Checkpoint::new(vec![MiniAcc::identity(); shards], low);
        cp.observe_tail(range.map(|n| (n, n * 7 % 13)), |a, n, w| a.observe(n, w))
            .expect("ascending tail");
        cp
    }

    #[test]
    fn tail_extension_equals_full_fold() {
        // Checkpoint the prefix, extend with the tail: must equal folding
        // the whole range in one go.
        let mut prefix = fold_range(1..=49, 4);
        prefix
            .observe_tail((50..=80).map(|n| (n, n * 7 % 13)), |a, n, w| {
                a.observe(n, w)
            })
            .expect("tail extends");
        let whole = fold_range(1..=80, 4);
        assert_eq!(prefix, whole);
        assert_eq!(prefix.merged(MiniAcc::merge), whole.merged(MiniAcc::merge));
    }

    #[test]
    fn tail_order_does_not_matter() {
        // Crawl sources emit reverse-chronologically; a descending tail
        // must be accepted (everything is above the entry high-water mark)
        // and fold to the same state as an ascending one.
        let mut desc = fold_range(1..=49, 4);
        desc.observe_tail((50..=80).rev().map(|n| (n, n * 7 % 13)), |a, n, w| {
            a.observe(n, w)
        })
        .expect("descending tail is still strictly above the old high");
        let whole = fold_range(1..=80, 4);
        assert_eq!(desc, whole);
    }

    #[test]
    fn rejects_reobserving_the_prefix() {
        let mut cp = fold_range(1..=9, 2);
        let err = cp.observe_tail([(5u64, 1u64)], |a, n, w| a.observe(n, w));
        assert!(err.is_err(), "block 5 is already inside the range");
    }

    #[test]
    fn rejects_duplicates_within_one_tail() {
        let mut cp = fold_range(1..=9, 2);
        let err = cp.observe_tail([(10u64, 1u64), (10u64, 2u64)], |a, n, w| a.observe(n, w));
        assert!(err.is_err(), "block 10 appears twice in the same tail");
    }
}
