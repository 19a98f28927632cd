//! Segment states — the shard worker's sweep-once table.
//!
//! A segment is the worker's unit of memoized work: the first assignment
//! that covers segment `i` whole decodes its bytes (LZSS decompress +
//! column decode + chain parse), folds the blocks into whatever state the
//! caller derives from them (the reports layer keeps the three swept
//! columnar accumulators), and drops the blocks. Every later assignment
//! covering that segment whole is served from the kept state, so a warm
//! worker decodes nothing.
//!
//! The table is keyed by segment *index* in the opened archive.
//! [`Archive::open`](crate::Archive::open) verifies every segment's content
//! hash before it returns, and
//! [`Archive::decode_segment`](crate::Archive::decode_segment) checks the
//! bytes it reads back against the same hash, so segment `i`'s bytes cannot
//! change under the table: a reorg that rewrites the file on disk since the
//! open fails the decode, typed, and is seen whole by the next open.
//! Nothing is evicted — a table holds at most one state per segment of its
//! archive.
//!
//! Accounting is exact and per-instance — [`SegmentStates::stats`]
//! returns counters that tests can assert equalities on even though the
//! process also mirrors them into the global `txstat_archive_cache_*`
//! families (which are shared across instances).

use crate::METRICS;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A point-in-time copy of one table's counters. `hits + misses` equals
/// the number of [`SegmentStates::get_or_fill`] calls; `entries` is the
/// number of segments filled so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
}

/// One state slot per segment of an opened archive.
pub struct SegmentStates<T> {
    slots: Box<[OnceLock<T>]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> SegmentStates<T> {
    /// An empty table for an archive of `segments` segments.
    pub fn new(segments: usize) -> Self {
        SegmentStates {
            slots: (0..segments).map(|_| OnceLock::new()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Segment `i`'s state, filled by `fill` if the slot is empty. Counts
    /// exactly one hit or one miss. Two assignments that miss the same
    /// segment at once both fill it: the first state stored is kept and
    /// the later duplicate dropped. A failed fill leaves the slot empty.
    pub fn get_or_fill<E>(&self, i: usize, fill: impl FnOnce() -> Result<T, E>) -> Result<&T, E> {
        let slot = &self.slots[i];
        if let Some(state) = slot.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            METRICS.cache_hits.inc();
            return Ok(state);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        METRICS.cache_misses.inc();
        let state = fill()?;
        Ok(slot.get_or_init(|| state))
    }

    /// Exact per-instance counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.slots.iter().filter(|s| s.get().is_some()).count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_fill_is_kept_and_a_failed_fill_keeps_nothing() {
        let table: SegmentStates<u32> = SegmentStates::new(2);
        assert_eq!(table.get_or_fill(1, || Err("damaged")), Err("damaged"));
        assert_eq!(table.get_or_fill(1, || Ok::<_, ()>(10)), Ok(&10));
        assert_eq!(
            table.get_or_fill(1, || Ok::<_, ()>(20)),
            Ok(&10),
            "a filled slot is not filled again"
        );
        assert_eq!(
            table.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                entries: 1
            }
        );
    }

    #[test]
    fn accounting_exact_under_concurrent_assignments() {
        let table: SegmentStates<Vec<u8>> = SegmentStates::new(50);
        let threads = 8;
        let per_thread = 200;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let table = &table;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let key = (t * per_thread + i) % 50;
                        let state = table.get_or_fill(key, || Ok::<_, ()>(vec![key as u8; 16]));
                        assert_eq!(state, Ok(&vec![key as u8; 16]));
                    }
                });
            }
        });
        let s = table.stats();
        // Every lookup is exactly one hit or one miss.
        assert_eq!(s.hits + s.misses, (threads * per_thread) as u64);
        assert!(s.misses >= 50, "every key missed at least once: {s:?}");
        assert_eq!(s.entries, 50);
    }
}
