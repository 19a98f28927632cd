//! # txstat-core — the paper's analytics as one columnar, mergeable engine
//!
//! The primary contribution of *"Revisiting Transactional Statistics of
//! High-scalability Blockchains"* is a measurement methodology: classify
//! every transaction/operation/action of three high-throughput chains,
//! decompose throughput over time, rank the accounts driving it, and — for
//! XRP — determine how much of it carries actual economic value.
//!
//! ## Architecture: one engine, one reference
//!
//! Every exhibit statistic is computed by a per-chain **accumulator** with a
//! map-reduce algebra — `identity() / observe(block) / merge(other)` — and
//! has exactly two implementations:
//!
//! - [`columnar`] is **the engine**: [`EosColumnar`], [`TezosColumnar`] and
//!   [`XrpColumnar`] are what every reduction path runs (the one-shot
//!   report, the crawl's fold, the frame fleet, the follower). Account /
//!   contract / action names are interned to dense `u32` ids at decode
//!   time, per-block struct-of-arrays batches are classified through
//!   precomputed tag tables, and the id-indexed counters (vectors plus
//!   residue-sharded pair tables) merge by remapped vector adds instead of
//!   `HashMap` rehashes. A columnar accumulator's one serialized form is
//!   its [`columnar::WireState`] binary column sections — what a
//!   `txstat_wire` frame carries between processes, validated
//!   (`validate()`) on every decode.
//! - `finalize()` resolves the ids back to names and emits the engine's
//!   **finalized state**: the scalar sweep structs, which own `new`,
//!   `merge` (the follower folds batch deltas with it) and every
//!   figure-shaped accessor the renderers read:
//!   - [`eos_analysis::EosSweep`] — Figure 1 (action taxonomy), Figure 3a
//!     (category throughput), Figures 4–5 (top receivers/senders), the
//!     §4.1 detectors (WhaleEx wash trading, EIDOS boomerang mining), TPS,
//!     and the §5 transfer graph.
//!   - [`tezos_analysis::TezosSweep`] — Figure 1 (operation taxonomy),
//!     Figure 3b (endorsements vs payments), Figure 6 (sender dispersion),
//!     Figure 9 (governance vote curves), §4.2 counts, TPS.
//!   - [`xrp_analysis::XrpSweep`] — Figure 1 (type distribution),
//!     Figure 3c, Figure 7 (the value funnel), Figure 8 (most-active
//!     accounts), Figure 12 (value flows), §4.3 spam waves, §3.3
//!     concentration, TPS, and the §5 payment graph.
//! - `*Sweep::observe` / `*Sweep::compute` are the **reference fold**: the
//!   same statistics folded block by block straight into the name-keyed
//!   state. No production path calls them; the equivalence suites
//!   (`tests/property_suite.rs`, `tests/streamed_ingest.rs`, the
//!   `columnar_*_scalar_*` unit tests) hold the engine to them state for
//!   state, and the hand-computed unit tests in the three `*_analysis`
//!   modules pin every accessor through them.
//!
//! `*Columnar::compute` and `*Sweep::compute` are plain sequential folds.
//! All merged state lives in exactly-mergeable domains (integer counters,
//! count maps, [`txstat_types::BucketSeries`], vector concatenation), so
//! folding contiguous runs of the blocks and merging the partial
//! accumulators in position order is **bit-identical** to the sequential
//! fold, whatever the run boundaries; the floating-point conversions happen
//! once, at finalization, over deterministic orderings. That is what lets
//! the report's sweeps fan out: `txstat_reports` folds one run per
//! available CPU on `txstat_telemetry::par_map` and merges the runs in
//! order, one sweep per chain. This crate spawns no thread.
//!
//! Supporting modules:
//!
//! - [`eos_analysis`], [`tezos_analysis`], [`xrp_analysis`] — besides the
//!   sweep structs, the shared vocabulary (`classify_*`, the class and
//!   throughput-category enums, [`eos_analysis::EosLabels`]) and the
//!   exhibit row / report types.
//! - [`cluster`] — XRP entity clustering by username/parent (§3.3).
//! - [`graph`] — mergeable transaction-graph metrics (degree distributions,
//!   hubs, fan-out outliers), the §5 related-work lens.

pub mod cluster;
pub mod columnar;
pub mod eos_analysis;
pub mod graph;
pub mod tezos_analysis;
pub mod xrp_analysis;

pub use cluster::ClusterInfo;
pub use columnar::{EosColumnar, TezosColumnar, WireState, XrpColumnar};
pub use eos_analysis::EosSweep;
pub use graph::{GraphReport, TransferGraph};
pub use tezos_analysis::TezosSweep;
pub use xrp_analysis::XrpSweep;

/// The three per-chain accumulators behind the full report — what every
/// reduction path (in-process parallel sweep, the crawl's fold, distributed
/// frame reduction) ultimately produces.
#[derive(Clone)]
pub struct ChainSweeps {
    pub eos: EosSweep,
    pub tezos: TezosSweep,
    pub xrp: XrpSweep,
}
