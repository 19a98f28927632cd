//! Epoch-swapped snapshot publication for the follow → serve path.
//!
//! The follow loop finalizes a fresh set of sweeps per batch; the query
//! service must expose each as an immutable snapshot without ever blocking
//! ingestion on readers or letting a reader observe a torn state. An
//! [`EpochCell`] holds `Arc<T>` behind a reader-writer lock whose write
//! section is a single pointer swap: readers clone the `Arc` (nanoseconds,
//! shared), the publisher replaces it (nanoseconds, exclusive), and the
//! old snapshot stays alive until its last holder drops it. Torn reads are
//! impossible by construction — `T` is never mutated after publication.
//!
//! The cell's own reference to the retired snapshot is released *after* the
//! write lock: freeing a whole `T` keeps no `load()` waiting. Once cell and
//! readers have all let go, the follower folds its next epoch into that copy
//! instead of cloning (the left-right pair in `txstat_reports::follow`).

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A published, epoch-counted immutable snapshot slot.
#[derive(Debug)]
pub struct EpochCell<T> {
    slot: RwLock<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> EpochCell<T> {
    /// Start at epoch 1 with the given snapshot.
    pub fn new(initial: Arc<T>) -> Self {
        EpochCell { slot: RwLock::new(initial), epoch: AtomicU64::new(1) }
    }

    /// The current snapshot. Cheap (one `Arc` clone under a read lock) and
    /// never blocked by a publisher for longer than one pointer swap.
    pub fn load(&self) -> Arc<T> {
        self.slot.read().clone()
    }

    /// The epoch counter: bumped once per publish, starting at 1.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publish a new snapshot, returning the new epoch. In-progress readers
    /// keep the snapshot they already loaded; later loads see the new one.
    pub fn publish(&self, value: Arc<T>) -> u64 {
        let (retired, epoch) = {
            let mut slot = self.slot.write();
            let retired = std::mem::replace(&mut *slot, value);
            (retired, self.epoch.fetch_add(1, Ordering::AcqRel) + 1)
        };
        // Possibly the last reference: its destructor runs outside the lock.
        drop(retired);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn publish_bumps_epoch_and_swaps_value() {
        let cell = EpochCell::new(Arc::new(10u64));
        assert_eq!(cell.epoch(), 1);
        assert_eq!(*cell.load(), 10);
        assert_eq!(cell.publish(Arc::new(20)), 2);
        assert_eq!(cell.epoch(), 2);
        assert_eq!(*cell.load(), 20);
    }

    #[test]
    fn readers_always_see_a_complete_snapshot() {
        // Snapshots are (n, n): a torn read would surface as a mismatched
        // pair. Readers hammer loads while the writer publishes new pairs.
        let cell = Arc::new(EpochCell::new(Arc::new((0u64, 0u64))));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..20_000 {
                        let snap = cell.load();
                        assert_eq!(snap.0, snap.1, "torn snapshot");
                        assert!(snap.0 >= last, "snapshot went backwards");
                        last = snap.0;
                    }
                })
            })
            .collect();
        for n in 1..=500u64 {
            cell.publish(Arc::new((n, n)));
        }
        for r in readers {
            r.join().expect("reader panicked");
        }
    }

    /// The cell's reference to the retired snapshot may be the last one:
    /// its destructor must not run inside the write lock, where every
    /// `load()` would wait for it.
    #[test]
    fn retired_snapshot_is_dropped_outside_the_write_lock() {
        struct Probe {
            cell: std::sync::OnceLock<Arc<EpochCell<Probe>>>,
            dropped_unlocked: Arc<AtomicU64>,
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                if let Some(cell) = self.cell.get() {
                    let unlocked = cell.slot.try_read().is_some();
                    self.dropped_unlocked.store(unlocked as u64 + 1, Ordering::SeqCst);
                }
            }
        }
        let dropped_unlocked = Arc::new(AtomicU64::new(0));
        // Reports only once it has been told which cell to look at.
        let probe = || {
            let dropped_unlocked = dropped_unlocked.clone();
            Arc::new(Probe { cell: std::sync::OnceLock::new(), dropped_unlocked })
        };
        let first = probe();
        let cell = Arc::new(EpochCell::new(first.clone()));
        assert!(first.cell.set(cell.clone()).is_ok());
        drop(first); // the cell now holds the only reference
        cell.publish(probe());
        assert_eq!(dropped_unlocked.load(Ordering::SeqCst), 2, "0 = never dropped, 1 = locked");
    }

    #[test]
    fn old_snapshot_survives_until_dropped() {
        let cell = EpochCell::new(Arc::new(String::from("old")));
        let pinned = cell.load();
        cell.publish(Arc::new(String::from("new")));
        assert_eq!(*pinned, "old");
        assert_eq!(*cell.load(), "new");
    }
}
