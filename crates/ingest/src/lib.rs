//! # txstat-ingest — streaming ingestion from crawler to accumulator
//!
//! The paper's statistics are a pure fold over block streams, so nothing
//! about them requires the chain to exist in memory. This crate connects
//! block producers (the loopback RPC crawler, any loop over blocks already
//! in memory) directly to the sweep algebra of `txstat_core`
//! (`identity / observe / merge`) through bounded channels:
//!
//! ```text
//!   producers                         shard channels            reducer
//!  ┌──────────────┐   Sink::send    ┌─────────────┐
//!  │ RPC crawl ×K │ ──(n, block)──▶ │ ch[n % S] ──┼─▶ worker s: observe()
//!  │ or any loop  │    (bounded,    │   …         │        │
//!  │ over blocks  │     gauged)     └─────────────┘        ▼
//!  └──────────────┘                              merge shards in order ─▶ sweep ─▶ report
//! ```
//!
//! - [`channel`] — the bounded, gauged MPSC channel (the backpressure and
//!   memory-bounding primitive).
//! - [`shard`] — the sharded worker pool: `S` private accumulators fed by
//!   residue-class routing, merged in shard order at end of stream.
//! - [`crawl`] — [`crawl_into`]: the crawler's reverse-order range driver
//!   with [`Sink::send`] as its emit step, and the crawl-time exchange-rate
//!   cache XRP's fetch resolves through.
//! - [`checkpoint`] — range-keyed frozen shard states for incremental
//!   re-sweep (append a tail without re-observing the prefix).
//! - [`reduce`] — the distributed shard/merge boundary: [`ShardWorker`]
//!   folds a block range into `txstat_wire` frames in one process,
//!   [`ReduceSession`] validates and remap-merges them in another.
//!
//! Peak memory of a streamed sweep is `O(shards × (accumulator +
//! channel_capacity × block))` — independent of chain length. Equivalence
//! of the shard pool with one materializing `par_sweep` is pinned by
//! `tests/property_suite.rs` for random shard counts and capacities (on
//! the scalar reference fold `*Sweep::observe`; the pool is generic), and
//! the streamed columnar report end to end by `tests/streamed_ingest.rs`.

pub mod channel;
pub mod checkpoint;
pub mod crawl;
pub mod epoch;
pub mod fleet;
pub mod reduce;
pub mod shard;

pub use channel::{bounded, ChannelGauge, GaugeSnapshot};
pub use checkpoint::Checkpoint;
pub use epoch::EpochCell;
pub use crawl::{crawl_into, RateCache};
pub use fleet::{reduce_fleet, serve_assignments, FleetConfig, FleetError};
pub use reduce::{ReduceError, ReduceSession, ShardWorker};
pub use shard::{spawn_sharded, IngestOptions, IngestOutcome, ShardPoolHandle, Sink};

use txstat_crawler::CrawlError;

/// Ingestion failures.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying crawl failed.
    Crawl(CrawlError),
    /// The shard pool was torn down while producers were still sending.
    SinkClosed,
    /// A checkpoint tail tried to re-observe an already-covered block.
    RangeRegression { n: u64, high: u64 },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Crawl(e) => write!(f, "crawl: {e}"),
            IngestError::SinkClosed => write!(f, "shard pool closed mid-stream"),
            IngestError::RangeRegression { n, high } => {
                write!(f, "block {n} is not past the checkpoint high-water mark {high}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl From<CrawlError> for IngestError {
    fn from(e: CrawlError) -> Self {
        IngestError::Crawl(e)
    }
}

impl From<IngestError> for CrawlError {
    fn from(e: IngestError) -> Self {
        match e {
            IngestError::Crawl(c) => c,
            other => CrawlError::Protocol(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Backpressure, virtual-clock style (no wall-clock sleeps): the
    /// consumer refuses to drain until the producer has provably filled the
    /// channel and parked; the high-water mark must never exceed capacity.
    #[test]
    fn slow_consumer_stalls_producer_without_buffering() {
        tokio::runtime::block_on(async {
            const CAPACITY: usize = 4;
            const TOTAL: u64 = 200;
            let (tx, mut rx, gauge) = bounded::<u64>(CAPACITY);
            let producer = tokio::spawn(async move {
                for n in 0..TOTAL {
                    tx.send(n).await.expect("receiver alive");
                }
            });
            // Gate on the channel being full *and* a blocked send recorded —
            // the deterministic signal that the producer is parked on the
            // bounded channel rather than allocating.
            loop {
                let snap = gauge.snapshot();
                if snap.blocked_sends > 0 && gauge.queued() == CAPACITY {
                    break;
                }
                std::thread::yield_now();
            }
            let mut received = 0u64;
            while rx.recv().await.is_some() {
                received += 1;
                // Memory stays bounded the whole way through.
                assert!(gauge.snapshot().high_water <= CAPACITY as u64);
            }
            producer.await.expect("producer");
            let snap = gauge.snapshot();
            assert_eq!(received, TOTAL);
            assert_eq!(snap.sent, TOTAL);
            assert!(
                snap.high_water <= CAPACITY as u64,
                "queue grew past capacity: {}",
                snap.high_water
            );
            assert!(snap.blocked_sends > 0, "producer never hit backpressure");
        });
    }
}
