//! # txstat-ingest — what feeds the sweeps besides the blocks themselves
//!
//! The paper's statistics are a pure fold over block streams, so nothing
//! about them requires the chain to exist in memory. The crawl folds each
//! block on the fetch worker that fetched it
//! (`txstat_reports::generate_with_crawl`: `txstat_crawler::crawl_range`
//! with the chain's one accumulator as its emit step); this crate holds the
//! pieces around that fold and the distributed one:
//!
//! - [`crawl`] — [`RateCache`]: the crawl-time exchange-rate cache XRP's
//!   fetch resolves through, so payments are valued at observe time.
//! - [`checkpoint`] — range-keyed frozen shard states for incremental
//!   re-sweep (append a tail without re-observing the prefix).
//! - [`reduce`] — the distributed shard/merge boundary: [`RangeFold`]
//!   folds a block range of the three chains and encodes it into
//!   `txstat_wire` frames in one process, [`ReduceSession`] validates and
//!   remap-merges them in another.
//! - [`fleet`] — the socket fleet that drives shard workers for a reducer.
//! - [`epoch`] — [`EpochCell`], the published snapshot slot of `serve`.
//!
//! That a fold of the blocks in any arrival order equals the one-shot
//! sweep is pinned by the `*_columnar_merge_algebra` proptests of
//! `tests/property_suite.rs`, and the crawled report end to end by
//! `tests/streamed_ingest.rs`.

pub mod checkpoint;
pub mod crawl;
pub mod epoch;
pub mod fleet;
pub mod reduce;

pub use checkpoint::Checkpoint;
pub use crawl::RateCache;
pub use epoch::EpochCell;
pub use fleet::{reduce_fleet, serve_assignments, FleetConfig, FleetError};
pub use reduce::{RangeFold, ReduceError, ReduceSession};

/// Ingestion failures.
#[derive(Debug)]
pub enum IngestError {
    /// A checkpoint tail tried to re-observe an already-covered block.
    RangeRegression { n: u64, high: u64 },
    /// The block source could not give the next run: a corpus segment that
    /// does not decode. The message names the segment.
    Source(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::RangeRegression { n, high } => {
                write!(
                    f,
                    "block {n} is not past the checkpoint high-water mark {high}"
                )
            }
            IngestError::Source(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for IngestError {}
