//! # txstat-types
//!
//! Foundation crate for the `txstat` workspace: the reproduction of
//! *"Revisiting Transactional Statistics of High-scalability Blockchains"*
//! (IMC 2020).
//!
//! Everything here is chain-agnostic and dependency-light:
//!
//! - [`time`] — seconds-precision chain clock, civil-date math (no chrono),
//!   observation periods and the paper's 6-hour bucketing.
//! - [`amount`] — `i128` fixed-point quantities and inline symbol codes.
//! - [`ids`] — chain identifiers and stable FNV-1a hashing.
//! - [`base58`] — the alphabet-parameterised base58 behind Tezos and XRP
//!   address text, rendered into stack buffers.
//! - [`colcodec`] — the binary column codec (canonical LE varints,
//!   length-prefixed columns, typed offset errors) behind wire payload
//!   schema v2.
//! - [`intern`] — dense key interning and the fx hasher behind the
//!   columnar sweep engine.
//! - [`stats`] — streaming mean/stdev, exact top-K, histograms, Gini.
//! - [`distrib`] — the samplers the workload engine needs (Poisson, Zipf,
//!   log-normal) built on plain `rand`.
//! - [`jsonw`] — the streaming writer behind the canonical wire JSON
//!   (`block_bytes` / `ledger_bytes` in the chain crates), writing bytes
//!   or only counting them.
//! - [`lzss`] — a real LZSS compressor used for the paper's "storage, gzip"
//!   dataset statistics (Figure 2) and the archive's segments.
//! - [`table`] — plain-text table rendering shared by all report output.
//! - [`series`] — bucketed categorical time series (Figure 3).
//! - [`rng`] — deterministic seed derivation so every run is reproducible.

pub mod amount;
pub mod base58;
pub mod colcodec;
pub mod distrib;
pub mod ids;
pub mod intern;
pub mod jsonw;
pub mod lzss;
pub mod rng;
pub mod series;
pub mod stats;
pub mod table;
pub mod time;

pub use amount::{fmt_scaled, SymCode};
pub use colcodec::{ColError, ColKey, ColReader, ColWriter};
pub use ids::{fnv1a64, Chain};
pub use intern::{FxHashMap, Interner};
pub use jsonw::{JsonLen, JsonOut, JsonWriter, WireText};
pub use series::BucketSeries;
pub use stats::{gini, Histogram, RunningStats, TopK};
pub use time::{ChainTime, Period, SIX_HOURS};
