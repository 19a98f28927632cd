//! # txstat — facade crate
//!
//! Re-exports the full reproduction toolkit for *"Revisiting Transactional
//! Statistics of High-scalability Blockchains"* (IMC 2020).
//!
//! See the individual crates for details:
//! - [`types`] — shared primitives (time, amounts, stats, LZSS, tables)
//! - [`eos`], [`tezos`], [`xrp`] — the three ledger simulators
//! - [`workload`] — the agent-based scenario engine (paper preset)
//! - [`telemetry`] — lock-free metrics registry, stage tracer, and
//!   Prometheus/JSON exposition
//! - [`netsim`], [`crawler`] — RPC substrate and measurement crawler
//! - [`ingest`] — streaming crawl-to-accumulator ingestion and the
//!   distributed [`ingest::ReduceSession`]
//! - [`wire`] — the versioned shard-frame codec (`ShardFrame`)
//! - [`archive`] — the persistent segmented block archive cold-started
//!   from (`--archive DIR`)
//! - [`core`] — the paper's analytics pipeline
//! - [`reports`] — per-figure/table renderers

pub use txstat_archive as archive;
pub use txstat_core as core;
pub use txstat_crawler as crawler;
pub use txstat_eos as eos;
pub use txstat_ingest as ingest;
pub use txstat_netsim as netsim;
pub use txstat_reports as reports;
pub use txstat_telemetry as telemetry;
pub use txstat_tezos as tezos;
pub use txstat_types as types;
pub use txstat_wire as wire;
pub use txstat_workload as workload;
pub use txstat_xrp as xrp;
