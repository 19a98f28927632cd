//! Decoded-segment LRU cache — the shard fleet's warm-restart layer.
//!
//! Decoding a segment (LZSS decompress + column decode + chain parse) is
//! the dominant cold-start cost; a worker that is re-assigned an
//! overlapping range, or several workers sharing one process, pay it once
//! per segment instead of once per assignment by parking the decoded value
//! here, keyed by the segment's *content hash* (so a reorg that rewrites a
//! segment in place can never serve the stale decode — the hash changes
//! with the bytes).
//!
//! The cache is byte-budgeted: each entry carries the caller-declared cost
//! (the segment's decompressed `raw_len` is the conventional estimate) and
//! least-recently-used entries are evicted until the cache fits the
//! budget. The newest entry always stays, so a single oversized segment
//! still caches rather than thrashing.
//!
//! Accounting is exact and per-instance — [`SegmentCache::stats`] returns
//! counters that tests can assert equalities on even though the process
//! also mirrors them into the global `txstat_archive_cache_*` families
//! (which are shared across instances).

use crate::METRICS;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A point-in-time copy of one cache's counters. `hits + misses` equals
/// the number of [`SegmentCache::get`] calls; `bytes` is the summed cost
/// of the currently resident entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes: u64,
    pub entries: u64,
}

struct Entry<T> {
    value: Arc<T>,
    cost: u64,
    /// Monotonic recency tick; smallest = least recently used.
    used: u64,
}

struct Inner<T> {
    entries: HashMap<u64, Entry<T>>,
    bytes: u64,
    tick: u64,
}

/// A byte-budgeted LRU map from segment content hash to decoded value.
pub struct SegmentCache<T> {
    inner: Mutex<Inner<T>>,
    budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<T> SegmentCache<T> {
    /// A cache holding at most `budget_bytes` of caller-declared cost.
    pub fn new(budget_bytes: u64) -> Self {
        SegmentCache {
            inner: Mutex::new(Inner { entries: HashMap::new(), bytes: 0, tick: 0 }),
            budget: budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Look up a decoded segment by content hash, refreshing its recency.
    /// Counts exactly one hit or one miss.
    pub fn get(&self, hash: u64) -> Option<Arc<T>> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&hash) {
            Some(e) => {
                e.used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                METRICS.cache_hits.inc();
                Some(Arc::clone(&e.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                METRICS.cache_misses.inc();
                None
            }
        }
    }

    /// Insert a decoded segment at the given cost, evicting
    /// least-recently-used entries until the budget fits again. The entry
    /// just inserted is never evicted. Re-inserting an existing hash
    /// replaces the value without counting an eviction.
    pub fn insert(&self, hash: u64, value: Arc<T>, cost: u64) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.entries.insert(hash, Entry { value, cost, used: tick }) {
            inner.bytes -= old.cost;
        }
        inner.bytes += cost;
        while inner.bytes > self.budget && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .filter(|(&k, _)| k != hash)
                .min_by_key(|(_, e)| e.used)
                .map(|(&k, _)| k)
                .expect("len > 1 means a non-newest entry exists");
            let evicted = inner.entries.remove(&victim).expect("victim present");
            inner.bytes -= evicted.cost;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            METRICS.cache_evictions.inc();
        }
        METRICS.cache_bytes.set(inner.bytes);
    }

    /// Exact per-instance counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: inner.bytes,
            entries: inner.entries.len() as u64,
        }
    }
}

impl<T> std::fmt::Debug for SegmentCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SegmentCache")
            .field("budget", &self.budget)
            .field("stats", &s)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_eviction_accounting() {
        let cache: SegmentCache<String> = SegmentCache::new(100);
        assert!(cache.get(1).is_none());
        cache.insert(1, Arc::new("a".into()), 60);
        assert_eq!(cache.get(1).as_deref().map(String::as_str), Some("a"));
        cache.insert(2, Arc::new("b".into()), 60); // 120 > 100: evicts 1
        assert!(cache.get(1).is_none());
        assert_eq!(cache.get(2).as_deref().map(String::as_str), Some("b"));
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.evictions, s.bytes, s.entries),
            (2, 2, 1, 60, 1)
        );
    }

    #[test]
    fn lru_order_and_touch() {
        let cache: SegmentCache<u32> = SegmentCache::new(30);
        cache.insert(1, Arc::new(10), 10);
        cache.insert(2, Arc::new(20), 10);
        cache.insert(3, Arc::new(30), 10);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.insert(4, Arc::new(40), 10);
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert!(cache.get(4).is_some());
    }

    #[test]
    fn oversized_newest_entry_survives() {
        let cache: SegmentCache<u32> = SegmentCache::new(10);
        cache.insert(1, Arc::new(1), 5);
        cache.insert(2, Arc::new(2), 50); // over budget alone
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (1, 50, 1));
        assert!(cache.get(2).is_some());
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let cache: SegmentCache<u32> = SegmentCache::new(100);
        cache.insert(7, Arc::new(1), 40);
        cache.insert(7, Arc::new(2), 60);
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (1, 60, 0));
        assert_eq!(cache.get(7).as_deref(), Some(&2));
    }

    #[test]
    fn accounting_exact_under_concurrent_assignments() {
        let cache: Arc<SegmentCache<Vec<u8>>> = Arc::new(SegmentCache::new(u64::MAX));
        let threads = 8;
        let per_thread = 200;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let key = ((t * per_thread + i) % 50) as u64;
                        if cache.get(key).is_none() {
                            cache.insert(key, Arc::new(vec![0u8; 16]), 16);
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        // Every lookup is exactly one hit or one miss.
        assert_eq!(s.hits + s.misses, (threads * per_thread) as u64);
        // Unbounded budget: nothing evicted, bytes = 16 per resident key.
        assert_eq!(s.evictions, 0);
        assert_eq!(s.bytes, s.entries * 16);
        assert_eq!(s.entries, 50);
    }
}
