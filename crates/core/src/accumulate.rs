//! The fused sweep driver: chunked parallel map-reduce over block slices.
//!
//! Every chain accumulator in this crate follows the same algebra —
//! `identity() / observe(block) / merge(other)` — with all merged state kept
//! in exactly-mergeable domains (integer counters, count maps, bucketed
//! series, vector concatenation). That makes the reduction associative *and*
//! independent of chunk boundaries, so a parallel sweep over N workers
//! produces bit-identical integer state to a sequential fold. Floating-point
//! math happens only at finalization, after the merge, on deterministic
//! orderings.
//!
//! `par_sweep` is the one place parallelism enters: it partitions the
//! block slice into chunks (a few per worker), folds each chunk through
//! `observe`, and merges the per-chunk accumulators in slice order.

use rayon::prelude::*;

/// Floor on blocks per chunk: below this, per-chunk accumulator setup,
/// thread spawn, and merge overhead dominate the fold itself, so small
/// inputs collapse into fewer (possibly one) chunks regardless of worker
/// count.
const MIN_CHUNK: usize = 256;

/// Adaptive chunk size: `blocks / workers` with a floor. One chunk per
/// worker minimizes the number of merges — the accumulators carry
/// per-account state whose merge cost scales with distinct keys, not with
/// blocks, so fewer, larger chunks beat the fixed chunks-per-worker
/// oversubscription that made 2-thread sweeps slower than 1-thread.
fn chunk_size(len: usize) -> usize {
    let workers = rayon::current_num_threads().max(1);
    if workers <= 1 {
        // One worker: a single chunk, so the sequential path pays zero
        // merge overhead.
        return len.max(1);
    }
    len.div_ceil(workers).max(MIN_CHUNK)
}

/// Fold `blocks` through `observe` in parallel chunks, then `merge` the
/// per-chunk accumulators in slice order. Returns `identity()` on an empty
/// slice.
pub(crate) fn par_sweep<B, A>(
    blocks: &[B],
    identity: impl Fn() -> A + Sync,
    observe: impl Fn(&mut A, &B) + Sync,
    merge: impl Fn(&mut A, A) + Sync,
) -> A
where
    B: Sync,
    A: Send,
{
    blocks
        .par_chunks(chunk_size(blocks.len()))
        .map(|chunk| {
            let mut acc = identity();
            for b in chunk {
                observe(&mut acc, b);
            }
            acc
        })
        .reduce(&identity, |mut a, b| {
            merge(&mut a, b);
            a
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_equals_sequential_fold() {
        let blocks: Vec<u64> = (0..10_000).collect();
        let seq: u64 = blocks.iter().sum();
        let par = par_sweep(&blocks, || 0u64, |acc, b| *acc += *b, |a, b| *a += b);
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_sweep_is_identity() {
        let blocks: Vec<u64> = Vec::new();
        let out = par_sweep(&blocks, || 41u64, |acc, b| *acc += *b, |a, b| *a += b);
        assert_eq!(out, 41);
    }

    #[test]
    fn order_preserved_for_associative_noncommutative_merge() {
        // Vec concatenation: merge order must follow slice order so
        // time-ordered event logs survive the parallel sweep.
        let blocks: Vec<u32> = (0..5_000).collect();
        let par = par_sweep(
            &blocks,
            Vec::new,
            |acc: &mut Vec<u32>, b| acc.push(*b),
            |a, mut b| a.append(&mut b),
        );
        assert_eq!(par, blocks);
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let blocks: Vec<u64> = (0..4_321).map(|i| i * 7 % 1013).collect();
        let run = |threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                par_sweep(&blocks, || 0u64, |acc, b| *acc += *b * *b, |a, b| *a += b)
            })
        };
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(8));
    }
}
