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
//!
//! Per-range content marks ([`RangeMark`]): after each observed batch the
//! follower seals a mark recording the batch's high block, block count,
//! and a chained content hash over the blocks it covered. A later pass
//! over the (possibly reorged) chain can then find the exact mark where
//! history diverged — a mismatched mark invalidates only the checkpoint's
//! suffix, not the whole sweep.

use crate::IngestError;

/// One sealed observation range: the batch's high block number, how many
/// blocks it covered, and a chained content hash over those blocks. Marks
/// accumulate in observation order, so comparing them against a chain's
/// current content locates the first reorged range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeMark {
    /// Highest block number observed when the mark was sealed.
    pub high: u64,
    /// Blocks covered by this mark (since the previous mark).
    pub blocks: u64,
    /// Content hash over the covered blocks, in observation order.
    pub hash: u64,
}

/// Frozen sharded sweep state over the inclusive block range `[low, high]`.
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
    /// Sealed per-range content marks, in observation order (empty unless
    /// the owner seals them — see [`Checkpoint::seal_mark`]).
    pub marks: Vec<RangeMark>,
}

impl<A> Checkpoint<A> {
    /// An empty checkpoint poised to observe from block `low` upward: no
    /// marks, zero counts, `high` one below `low` so the first tail block
    /// at `low` clears the high-water check.
    pub fn new(shards: Vec<A>, low: u64) -> Self {
        let counts = vec![0u64; shards.len()];
        Checkpoint { shards, counts, low, high: low.saturating_sub(1), marks: Vec::new() }
    }

    /// Seal everything observed since the last mark under `hash` (the
    /// caller computes it over the covered blocks' content). No-op when
    /// nothing new was observed — empty marks would be indistinguishable
    /// from each other during divergence search.
    pub fn seal_mark(&mut self, hash: u64) {
        let marked: u64 = self.marks.iter().map(|m| m.blocks).sum();
        let blocks = self.observed() - marked;
        if blocks == 0 {
            return;
        }
        self.marks.push(RangeMark { high: self.high, blocks, hash });
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
            MiniAcc { blocks: 0, weight: 0, buckets: vec![0; 4] }
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
        assert!(low >= 1, "test helper uses low-1 as the empty high-water mark");
        let mut cp = Checkpoint::new(vec![MiniAcc::identity(); shards], low);
        cp.observe_tail(range.map(|n| (n, n * 7 % 13)), |a, n, w| a.observe(n, w))
            .expect("ascending tail");
        cp
    }

    #[test]
    fn marks_seal_incrementally_and_skip_empty_ranges() {
        let mut cp = fold_range(1..=10, 2);
        cp.seal_mark(111);
        // Nothing new observed: sealing again must not create an empty mark.
        cp.seal_mark(222);
        cp.observe_tail((11..=25).map(|n| (n, n)), |a, n, w| a.observe(n, w))
            .expect("tail extends");
        cp.seal_mark(333);
        assert_eq!(
            cp.marks,
            vec![
                RangeMark { high: 10, blocks: 10, hash: 111 },
                RangeMark { high: 25, blocks: 15, hash: 333 },
            ]
        );
    }

    #[test]
    fn tail_extension_equals_full_fold() {
        // Checkpoint the prefix, extend with the tail: must equal folding
        // the whole range in one go.
        let mut prefix = fold_range(1..=49, 4);
        prefix
            .observe_tail((50..=80).map(|n| (n, n * 7 % 13)), |a, n, w| a.observe(n, w))
            .expect("tail extends");
        let whole = fold_range(1..=80, 4);
        assert_eq!(prefix, whole);
        assert_eq!(
            prefix.merged(MiniAcc::merge),
            whole.merged(MiniAcc::merge)
        );
    }

    #[test]
    fn tail_order_does_not_matter() {
        // Crawl sources emit reverse-chronologically; a descending tail
        // must be accepted (everything is above the entry high-water mark)
        // and fold to the same state as an ascending one.
        let mut desc = fold_range(1..=49, 4);
        desc.observe_tail((50..=80).rev().map(|n| (n, n * 7 % 13)), |a, n, w| a.observe(n, w))
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
