//! Decoded segments — the shard worker's decode-once table.
//!
//! Decoding a segment (LZSS decompress + column decode + chain parse) is
//! the dominant cold-start cost; a worker that is re-assigned an
//! overlapping range, or several assignments in flight on one worker, pay
//! it once per segment instead of once per assignment by parking the
//! decoded value here.
//!
//! The table is keyed by segment *index* in the opened archive.
//! [`Archive::open`](crate::Archive::open) reads `archive.seg` into memory
//! and verifies every segment's content hash before it returns, and a
//! worker decodes only from that in-memory copy, so segment `i`'s bytes
//! cannot change under the table: a reorg that rewrites the file on disk
//! is seen by the next open, never by this one. Nothing is evicted — a
//! table holds at most one decode per segment of its archive.
//!
//! Accounting is exact and per-instance — [`DecodedSegments::stats`]
//! returns counters that tests can assert equalities on even though the
//! process also mirrors them into the global `txstat_archive_cache_*`
//! families (which are shared across instances).

use crate::METRICS;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A point-in-time copy of one table's counters. `hits + misses` equals
/// the number of [`DecodedSegments::get`] calls; `entries` is the number
/// of segments decoded so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
}

/// One decode slot per segment of an opened archive.
pub struct DecodedSegments<T> {
    slots: Box<[OnceLock<Arc<T>>]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> DecodedSegments<T> {
    /// An empty table for an archive of `segments` segments.
    pub fn new(segments: usize) -> Self {
        DecodedSegments {
            slots: (0..segments).map(|_| OnceLock::new()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Segment `i`'s decode, if one was inserted. Counts exactly one hit
    /// or one miss.
    pub fn get(&self, i: usize) -> Option<Arc<T>> {
        let found = self.slots[i].get().cloned();
        let (local, global) = match found {
            Some(_) => (&self.hits, &METRICS.cache_hits),
            None => (&self.misses, &METRICS.cache_misses),
        };
        local.fetch_add(1, Ordering::Relaxed);
        global.inc();
        found
    }

    /// Keep `value` as segment `i`'s decode and return what the table
    /// holds. Two assignments that missed the same segment at once decode
    /// the same bytes: the first insert is kept and the later duplicate
    /// dropped.
    pub fn insert(&self, i: usize, value: T) -> Arc<T> {
        Arc::clone(self.slots[i].get_or_init(|| Arc::new(value)))
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
    fn insert_keeps_the_first_decode() {
        let table: DecodedSegments<u32> = DecodedSegments::new(2);
        assert!(table.get(1).is_none());
        assert_eq!(*table.insert(1, 10), 10);
        assert_eq!(*table.insert(1, 20), 10, "a racing duplicate is dropped");
        assert_eq!(table.get(1).as_deref(), Some(&10));
        assert_eq!(table.stats(), CacheStats { hits: 1, misses: 1, entries: 1 });
    }

    #[test]
    fn accounting_exact_under_concurrent_assignments() {
        let table: DecodedSegments<Vec<u8>> = DecodedSegments::new(50);
        let threads = 8;
        let per_thread = 200;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let table = &table;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let key = (t * per_thread + i) % 50;
                        if table.get(key).is_none() {
                            table.insert(key, vec![0u8; 16]);
                        }
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
