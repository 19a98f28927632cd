//! # txstat-ingest — streaming ingestion from crawler to accumulator
//!
//! The paper's statistics are a pure fold over block streams, so nothing
//! about them requires the chain to exist in memory. This crate connects
//! block *sources* (the loopback RPC crawler, NDJSON captures, in-memory
//! scenarios) directly to the sweep algebra of `txstat_core`
//! (`identity / observe / merge`) through bounded channels:
//!
//! ```text
//!   source workers                    shard channels            reducer
//!  ┌──────────────┐   Sink::send    ┌─────────────┐
//!  │ RPC crawl ×K │ ──(n, block)──▶ │ ch[n % S] ──┼─▶ worker s: observe()
//!  │ NDJSON replay│    (bounded,    │   …         │        │
//!  │ MemorySource │     gauged)     └─────────────┘        ▼
//!  └──────────────┘                              merge shards in order ─▶ sweep ─▶ report
//! ```
//!
//! - [`channel`] — the bounded, gauged MPSC channel (the backpressure and
//!   memory-bounding primitive).
//! - [`shard`] — the sharded worker pool: `S` private accumulators fed by
//!   residue-class routing, merged in shard order at end of stream.
//! - [`source`] — the [`source::BlockSource`] trait plus in-memory and
//!   NDJSON-replay adapters.
//! - [`crawl`] — streaming RPC crawl sources for the three chains, with
//!   crawl-time exchange-rate resolution for XRP.
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
pub mod source;

pub use channel::{bounded, ChannelGauge, GaugeSnapshot};
pub use checkpoint::Checkpoint;
pub use epoch::EpochCell;
pub use crawl::{EosCrawlSource, RateCache, TezosCrawlSource, XrpCrawlSource};
pub use fleet::{reduce_fleet, serve_assignments, FleetConfig, FleetError};
pub use reduce::{ReduceError, ReduceSession, ShardWorker};
pub use shard::{spawn_sharded, IngestOptions, IngestOutcome, ShardPoolHandle, Sink};
pub use source::{BlockSource, MemorySource, NdjsonReplay};

use txstat_crawler::CrawlError;

/// Ingestion failures.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying crawl failed.
    Crawl(CrawlError),
    /// An NDJSON replay line did not parse.
    Replay { line: usize, error: String },
    /// The shard pool was torn down while producers were still sending.
    SinkClosed,
    /// A checkpoint tail tried to re-observe an already-covered block.
    RangeRegression { n: u64, high: u64 },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Crawl(e) => write!(f, "crawl: {e}"),
            IngestError::Replay { line, error } => write!(f, "replay line {line}: {error}"),
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
    use txstat_types::time::{ChainTime, Period};

    fn window() -> Period {
        Period::new(ChainTime::from_ymd(2019, 10, 26), ChainTime::from_ymd(2019, 11, 7))
    }

    /// NDJSON round trip: chain → capture → replayed stream → sweep equals
    /// the materialized parallel sweep, with crawl-grade byte accounting.
    #[test]
    fn ndjson_replay_sweep_equals_materialized() {
        let mut sc = txstat_workload::Scenario::small(11);
        sc.period = window();
        let chain = txstat_workload::eos::build_eos(&sc);
        let blocks = chain.blocks();
        let period = sc.period;
        let direct = txstat_core::EosSweep::compute(blocks, period);

        let text = source::eos_to_ndjson(blocks);
        let (streamed, stats) = tokio::runtime::block_on(async {
            let opts = IngestOptions { shards: 3, channel_capacity: 16, label: "" };
            let (sink, pool) = spawn_sharded(
                opts,
                move || txstat_core::EosSweep::new(period),
                |acc: &mut txstat_core::EosSweep, _n, b: &txstat_eos::Block| acc.observe(b),
            );
            let producer = tokio::spawn(source::eos_replay(text).produce(sink));
            let outcome = pool.finish().await;
            let stats = producer.await.expect("producer").expect("replay parses");
            (outcome.merged(|a, b| a.merge(b)), stats)
        });
        assert_eq!(stats.blocks, blocks.len() as u64);
        assert!(stats.wire_bytes > 0);
        let (rows, total) = streamed.action_distribution();
        let (drows, dtotal) = direct.action_distribution();
        assert_eq!(total, dtotal);
        assert_eq!(rows.len(), drows.len());
        for (a, b) in rows.iter().zip(&drows) {
            assert_eq!((a.class, &a.action, a.count), (b.class, &b.action, b.count));
        }
        assert_eq!(streamed.tps(), direct.tps());
    }

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
