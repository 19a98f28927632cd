//! Pipeline orchestration: scenario → chains → (optional RPC crawl) →
//! the dataset every exhibit renders from.
//!
//! Four paths produce the same exhibits:
//! - [`generate`] reads the simulated chains directly (fast; what
//!   `reproduce report` runs);
//! - [`generate_with_crawl`] serves the chains over loopback RPC endpoints,
//!   benchmarks and shortlists them, and runs the real crawler with the
//!   three chain crawls overlapped — the full §3.1 measurement path,
//!   materializing each chain before sweeping it (the equivalence
//!   baseline, and what `reproduce archive --crawl` seals);
//! - [`generate_with_crawl_streamed`] runs the same crawl but pipes every
//!   block straight from the fetch workers into sharded sweep accumulators
//!   over bounded channels (`txstat_ingest`). No `Vec<Block>` is ever
//!   materialized on the measurement side: peak memory is
//!   O(accumulator × shards + channel capacity), and the report is ready
//!   the moment the crawl finishes;
//! - [`pipeline_from_archive`] / [`reducer_from_archive`] cold-start from a
//!   sealed corpus ([`write_archive`]) without generating any chain.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use txstat_core::{ClusterInfo, EosColumnar, TezosColumnar, XrpColumnar};
use txstat_crawler::{
    benchmark_endpoints, crawl_eos, crawl_tezos, crawl_xrp, eos_head, exchange,
    fetch_account_meta, fetch_eos_block, fetch_exchange_rate, fetch_exchanges, fetch_tezos_block,
    fetch_xrp_ledger, shortlist, tezos_head, xrp_head, Advertised, ClientConfig, CrawlError,
    CrawlStats, RotatingPool,
};
use txstat_ingest::crawl::ledger_ious;
use txstat_ingest::{
    crawl_into, spawn_sharded, IngestOptions, IngestOutcome, RateCache, ReduceError,
    ReduceSession, ShardWorker, Sink,
};
use txstat_telemetry::{static_counter, Span};
use rayon::prelude::*;
use crate::archive_io::{Bounds, SegmentSummary, SUMMARY_SCHEMA};
use txstat_archive::{Archive, ArchiveWriter, SegmentCache, SegmentMemo, SegmentMeta};

/// Decoded-segment cache budget of [`ShardContext::from_archive`].
const DEFAULT_SEGMENT_CACHE_MB: u64 = 64;
use txstat_wire::{PayloadFormat, ShardFrame};
use txstat_netsim::handlers::{EosRpcHandler, TezosRpcHandler, XrpRpcHandler};
use txstat_netsim::server::{spawn_http, spawn_ndjson, EndpointHandle};
use txstat_netsim::{EndpointProfile, Http};
use txstat_netsim::http::HttpRequest;
use txstat_tezos::address::Address;
use txstat_tezos::governance::PeriodKind;
use txstat_types::time::{ChainTime, Period};
use txstat_workload::{eos::build_eos, tezos::build_tezos, xrp::build_xrp, Scenario};
use txstat_xrp::amount::IssuedCurrency;
use txstat_xrp::rates::{RateOracle, TradeRecord};
use txstat_xrp::tx::TxPayload;

/// Everything the exhibits need.
///
/// The heavy inputs (block vectors, oracle, cluster, …) sit behind `Arc`
/// so the serve path can fork one cheap dataset per epoch
/// ([`PipelineData::fork_with_sweeps`]): every fork shares the same chain
/// data and differs only in its installed sweeps. Deref coercion keeps the
/// field access sites (`&data.eos_blocks` as `&[Block]`, `&data.oracle` as
/// `&RateOracle`, …) unchanged.
pub struct PipelineData {
    pub scenario: Scenario,
    /// Materialized chains. Empty on the streamed path and on a reducer's
    /// block-free cold start ([`reducer_from_archive`]); exhibits go
    /// through the accessor methods ([`PipelineData::eos_bounds`] etc.)
    /// rather than the vectors.
    pub eos_blocks: Arc<Vec<txstat_eos::Block>>,
    pub tezos_blocks: Arc<Vec<txstat_tezos::TezosBlock>>,
    pub xrp_blocks: Arc<Vec<txstat_xrp::LedgerBlock>>,
    /// Exchange-rate oracle over the window (Data API substitute).
    pub oracle: Arc<RateOracle>,
    /// Individual IOU↔XRP exchange events (Figure 11b).
    pub trades: Arc<Vec<TradeRecord>>,
    pub cluster: Arc<ClusterInfo>,
    /// (block number, CPU price index) per EOS block (§4.1).
    pub eos_cpu_price: Arc<Vec<(u64, f64)>>,
    /// EOS transactions rejected during production (congestion drops).
    pub eos_dropped_txs: u64,
    pub tezos_rolls: Arc<HashMap<Address, u64>>,
    /// The governance period windows of the Tezos chain, in order.
    pub governance_periods: Vec<(PeriodKind, Period)>,
    /// Crawl accounting when the RPC path was used.
    pub crawl: Option<Arc<CrawlSummary>>,
    /// Streaming-ingestion accounting when the streamed path was used.
    pub stream: Option<StreamSummary>,
    /// Lazily-computed fused accumulators (one parallel sweep per chain);
    /// every exhibit renders from these instead of re-scanning the blocks.
    /// The streamed path pre-fills them from the shard reducer.
    sweeps: OnceLock<Arc<ChainSweeps>>,
    /// Chain lengths `[eos, tezos, xrp]` of a block-free dataset (the
    /// streamed counts, or the manifest's for [`reducer_from_archive`]).
    /// `None` wherever the vectors are held: their own lengths are the
    /// truth there, whatever a caller has since put in the public fields.
    block_free_lens: Option<[u64; 3]>,
    /// Every report input that needs block bytes and is not a sweep
    /// (Figure 2's serialize + LZSS-sample accounting — ~30× any other
    /// figure — block bounds, CPU-price peaks). Shared across every fork of
    /// this dataset, so serve resolves it at most once per process, never
    /// per request or per epoch swap.
    facts: Arc<Facts>,
}

/// The lazily resolved [`SegmentSummary`] of a whole dataset family, and
/// where it may be memoized.
struct Facts {
    cell: OnceLock<(SegmentSummary, Option<MemoStatus>)>,
    /// `archive.memo` of the corpus the blocks were replayed from: one
    /// summary per segment is looked up there first, and what was missing
    /// is written back. `None`: summarize the dataset's own blocks.
    memo: Option<SegmentMemo>,
}

impl Facts {
    fn lazy(memo: Option<SegmentMemo>) -> Arc<Facts> {
        Arc::new(Facts { cell: OnceLock::new(), memo })
    }

    fn known(summary: SegmentSummary, status: Option<MemoStatus>) -> Arc<Facts> {
        Arc::new(Facts { cell: OnceLock::from((summary, status)), memo: None })
    }
}

/// How an archived dataset's facts were resolved against `archive.memo`
/// (`/statusz` shows it; the CLI turns `write_error` into a warning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoStatus {
    /// Live segments of the corpus.
    pub segments: usize,
    /// Summaries this process took from `archive.memo` as they were; the
    /// other `segments - hits` it recomputed from the blocks.
    pub hits: usize,
    /// How many summaries `archive.memo` holds as far as this process
    /// knows: the hits, or every segment once it has written the healed
    /// file.
    pub memoized: usize,
    /// Why the best-effort memo write failed, if it did (the report is
    /// unaffected; the next process recomputes).
    pub write_error: Option<String>,
}

/// First/last block `(number, time)` of one chain's observed range.
pub type ChainBounds = (Option<(u64, ChainTime)>, Option<(u64, ChainTime)>);

pub use txstat_core::ChainSweeps;

impl PipelineData {
    /// The analytics state: computed on first use with one columnar rayon
    /// map-reduce sweep per chain (interned ids, batched classification,
    /// remap merges — see `txstat_core::columnar`), then shared by every
    /// exhibit. The engine finalizes into the `*Sweep` structs whose
    /// accessors the renderers read. On the streamed and reduced paths the
    /// shard reducer has already filled this through
    /// [`PipelineData::install_sweeps`]; `tests/streamed_ingest.rs` installs
    /// the scalar reference fold the same way and pins the whole report
    /// bit-identical to this default.
    pub fn sweeps(&self) -> &ChainSweeps {
        self.sweeps.get_or_init(|| {
            let period = self.scenario.period;
            Arc::new(ChainSweeps {
                eos: {
                    let _span = Span::enter("sweep", "eos");
                    EosColumnar::compute(&self.eos_blocks, period)
                },
                tezos: {
                    let _span = Span::enter("sweep", "tezos");
                    TezosColumnar::compute(&self.tezos_blocks, period, &self.governance_periods)
                },
                xrp: {
                    let _span = Span::enter("sweep", "xrp");
                    XrpColumnar::compute(&self.xrp_blocks, period, &self.oracle)
                },
            })
        })
    }

    /// Block positions of the longest chain: how far a position-keyed
    /// replay (follow batches, serve epochs, fleet ranges) runs to cover
    /// every chain.
    pub fn longest_chain(&self) -> usize {
        self.lens().into_iter().max().unwrap_or(0) as usize
    }

    /// Chain lengths `[eos, tezos, xrp]`.
    fn lens(&self) -> [u64; 3] {
        self.block_free_lens
            .unwrap_or_else(|| lens_of(&self.eos_blocks, &self.tezos_blocks, &self.xrp_blocks))
    }

    /// Install externally-reduced sweeps (e.g. from a distributed
    /// `txstat_ingest::ReduceSession`) as this dataset's analytics state.
    /// Returns false if the sweeps were already computed.
    pub fn install_sweeps(&self, sweeps: ChainSweeps) -> bool {
        self.sweeps.set(Arc::new(sweeps)).is_ok()
    }

    /// The dataset's block-derived facts, resolved on first use: already
    /// known (streamed crawl, block-free cold start), summed from
    /// `archive.memo` with misses summarized from the held blocks and
    /// written back, or summarized from the blocks outright.
    fn facts(&self) -> &(SegmentSummary, Option<MemoStatus>) {
        self.facts.cell.get_or_init(|| match &self.facts.memo {
            None => {
                let starts: Vec<u64> =
                    (0..self.longest_chain() as u64).step_by(SUMMARY_RUN_BLOCKS as usize).collect();
                let sum = starts
                    .par_iter()
                    .map(|&start| self.summarize_range(start, start + SUMMARY_RUN_BLOCKS))
                    .reduce(SegmentSummary::default, |mut a, b| {
                        a.merge(&b);
                        a
                    });
                (sum, None)
            }
            Some(memo) => {
                let (sum, status) =
                    memoized_summary(memo, |_, m| Ok(self.summarize_range(m.start, m.end)))
                        .expect("summarizing held blocks cannot fail");
                (sum, Some(status))
            }
        })
    }

    /// [`summarize`] over block positions `[start, end)` of the held chains.
    fn summarize_range(&self, start: u64, end: u64) -> SegmentSummary {
        summarize(
            start,
            run_of(&self.eos_blocks, start, end),
            run_of(&self.tezos_blocks, start, end),
            run_of(&self.xrp_blocks, start, end),
            run_of(&self.eos_cpu_price, start, end),
        )
    }

    /// First/last EOS block `(number, time)`.
    pub fn eos_bounds(&self) -> ChainBounds {
        let b = self.facts().0.bounds[0];
        (b.first, b.last)
    }

    /// First/last Tezos block `(level, time)`.
    pub fn tezos_bounds(&self) -> ChainBounds {
        let b = self.facts().0.bounds[1];
        (b.first, b.last)
    }

    /// First/last XRP ledger `(index, close time)`.
    pub fn xrp_bounds(&self) -> ChainBounds {
        let b = self.facts().0.bounds[2];
        (b.first, b.last)
    }

    /// Peak EOS CPU price index before/after the EIDOS launch (§4.1).
    pub fn eos_cpu_peaks(&self) -> (f64, f64) {
        self.facts().0.cpu_peaks
    }

    /// The Figure 2 storage accounting, resolved once per dataset *family*:
    /// forks share it, so an epoch swap never re-pays the serialize + LZSS
    /// sweep — and over an archive with a warm `archive.memo` no process
    /// pays it at all.
    pub fn storage_stats(&self) -> &(CrawlStats, CrawlStats, CrawlStats) {
        &self.facts().0.storage
    }

    /// `archive.memo` coverage of this dataset's facts: `None` unless an
    /// archive backs them; nothing memoized is known of before the facts
    /// are first needed.
    pub fn memo_status(&self) -> Option<MemoStatus> {
        match self.facts.cell.get() {
            Some((_, status)) => status.clone(),
            None => self.facts.memo.as_ref().map(|m| MemoStatus {
                segments: m.segments().len(),
                hits: 0,
                memoized: 0,
                write_error: None,
            }),
        }
    }

    /// Fork this dataset with a different set of installed sweeps: all
    /// heavy inputs (blocks, oracle, cluster, CPU-price history, …) are
    /// shared by `Arc`, the block-derived facts are shared too, and only
    /// the analytics state differs. This is what lets the serve path
    /// publish one immutable snapshot per follow batch without re-deriving
    /// or copying the chains.
    pub fn fork_with_sweeps(&self, sweeps: ChainSweeps) -> PipelineData {
        self.fork_sharing(Arc::new(sweeps))
    }

    /// [`PipelineData::fork_with_sweeps`] over sweeps the caller goes on
    /// holding (the follower's rollback ring keeps its published epochs).
    pub(crate) fn fork_sharing(&self, sweeps: Arc<ChainSweeps>) -> PipelineData {
        let fork = self.sibling(self.facts.clone());
        let installed = fork.sweeps.set(sweeps).is_ok();
        debug_assert!(installed, "fresh fork cannot have sweeps yet");
        fork
    }

    /// This dataset's scenario and sidecar over other chain content (a
    /// competing fork's): fresh, uncomputed sweeps and facts — and no tie
    /// to an archive's `archive.memo`, whose segments describe the old
    /// history — so a from-scratch report over it reflects the new one.
    pub(crate) fn with_chains(
        &self,
        eos: Vec<txstat_eos::Block>,
        tezos: Vec<txstat_tezos::TezosBlock>,
        xrp: Vec<txstat_xrp::LedgerBlock>,
    ) -> PipelineData {
        PipelineData {
            eos_blocks: Arc::new(eos),
            tezos_blocks: Arc::new(tezos),
            xrp_blocks: Arc::new(xrp),
            crawl: None,
            stream: None,
            block_free_lens: None,
            ..self.unswept_twin()
        }
    }

    /// A dataset sharing every input of this one by `Arc`, with its own
    /// uncomputed sweeps and facts (and no `archive.memo` source): what a
    /// from-scratch render of the same chains reads.
    pub(crate) fn unswept_twin(&self) -> PipelineData {
        self.sibling(Facts::lazy(None))
    }

    /// A dataset sharing every input of this one by `Arc`, with no sweeps
    /// yet and the given facts.
    fn sibling(&self, facts: Arc<Facts>) -> PipelineData {
        PipelineData {
            scenario: self.scenario.clone(),
            eos_blocks: self.eos_blocks.clone(),
            tezos_blocks: self.tezos_blocks.clone(),
            xrp_blocks: self.xrp_blocks.clone(),
            oracle: self.oracle.clone(),
            trades: self.trades.clone(),
            cluster: self.cluster.clone(),
            eos_cpu_price: self.eos_cpu_price.clone(),
            eos_dropped_txs: self.eos_dropped_txs,
            tezos_rolls: self.tezos_rolls.clone(),
            governance_periods: self.governance_periods.clone(),
            crawl: self.crawl.clone(),
            stream: self.stream.clone(),
            sweeps: OnceLock::new(),
            block_free_lens: self.block_free_lens,
            facts,
        }
    }
}

/// Per-chain crawl accounting for Figure 2.
#[derive(Debug)]
pub struct CrawlSummary {
    pub eos: CrawlStats,
    pub tezos: CrawlStats,
    pub xrp: CrawlStats,
    pub eos_advertised: usize,
    pub eos_shortlisted: usize,
}

/// Streaming accounting for one chain: how much the shards folded and the
/// backpressure gauges of the shard channels.
#[derive(Debug, Clone)]
pub struct ChainStreamInfo {
    pub shards: usize,
    pub channel_capacity: usize,
    /// Blocks folded across all shards.
    pub streamed_blocks: u64,
    /// Peak blocks buffered in any one shard channel (≤ capacity — the
    /// memory bound that replaces the materialized `Vec<Block>`).
    pub peak_buffered: u64,
    /// Producer sends that parked on a full channel (backpressure hits).
    pub blocked_sends: u64,
}

/// What the streamed path records beside its (pre-resolved) facts.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    pub eos: ChainStreamInfo,
    pub tezos: ChainStreamInfo,
    pub xrp: ChainStreamInfo,
}

fn governance_periods_of(chain: &txstat_tezos::TezosChain) -> Vec<(PeriodKind, Period)> {
    let p = chain.config.governance.period_blocks as i64 * chain.config.block_interval_secs;
    let mut out = Vec::new();
    let mut start = chain.config.genesis_time;
    for result in &chain.governance.history {
        let window = Period::new(start, start + p);
        out.push((result.kind, window));
        start = window.end;
    }
    out
}

fn cluster_from_ledger(ledger: &txstat_xrp::XrpLedger) -> ClusterInfo {
    let usernames: HashMap<_, _> = txstat_workload::xrp::known_usernames().into_iter().collect();
    let mut cluster = ClusterInfo::new();
    for (id, root) in ledger.accounts() {
        let username = usernames.get(id).map(|s| (*s).to_owned());
        cluster.insert(*id, username, root.activated_by);
    }
    cluster
}

/// Every from-scratch chain build (all three chains generated). Workers
/// cold-starting from an archive must leave this at zero — the fleet smoke
/// pins that through `--metrics-out`.
fn generations() -> &'static txstat_telemetry::Counter {
    static_counter!(
        GEN,
        "txstat_pipeline_generate_total",
        "Full chain-generation passes (all three chains built from scratch)"
    )
}

/// Register the pipeline's metric families at zero, so a process that
/// never generates (an archive cold-start) still exposes them.
pub fn register_metrics() {
    generations().add(0);
}

/// Direct path: generate the three chains and read them in-process.
pub fn generate(sc: &Scenario) -> PipelineData {
    generations().inc();
    let mut eos = {
        let _span = Span::enter("generate", "eos");
        build_eos(sc)
    };
    let tezos = {
        let _span = Span::enter("generate", "tezos");
        build_tezos(sc)
    };
    let mut xrp = {
        let _span = Span::enter("generate", "xrp");
        build_xrp(sc)
    };

    let oracle = RateOracle::from_trades(&xrp.trades, sc.period.end, sc.period.days() as i64 + 1);
    let cluster = cluster_from_ledger(&xrp);
    let governance_periods = governance_periods_of(&tezos);
    let tezos_rolls = tezos_rolls_of(&tezos);

    // Everything derived is taken above; the chains now give up their
    // vectors instead of copying them.
    let eos_dropped_txs = eos.dropped_txs;
    let eos_cpu_price = std::mem::take(&mut eos.cpu_price_history);
    let trades = std::mem::take(&mut xrp.trades);
    let (eos_blocks, tezos_blocks, xrp_blocks) =
        (eos.into_blocks(), tezos.into_blocks(), xrp.into_closed_ledgers());
    PipelineData {
        scenario: sc.clone(),
        block_free_lens: None,
        eos_blocks: Arc::new(eos_blocks),
        tezos_blocks: Arc::new(tezos_blocks),
        xrp_blocks: Arc::new(xrp_blocks),
        oracle: Arc::new(oracle),
        trades: Arc::new(trades),
        cluster: Arc::new(cluster),
        eos_cpu_price: Arc::new(eos_cpu_price),
        eos_dropped_txs,
        tezos_rolls: Arc::new(tezos_rolls),
        governance_periods,
        crawl: None,
        stream: None,
        sweeps: OnceLock::new(),
        facts: Facts::lazy(None),
    }
}

fn lens_of(
    eos: &[txstat_eos::Block],
    tezos: &[txstat_tezos::TezosBlock],
    xrp: &[txstat_xrp::LedgerBlock],
) -> [u64; 3] {
    [eos.len() as u64, tezos.len() as u64, xrp.len() as u64]
}

/// Accounting returned by [`write_archive`].
#[derive(Debug, Clone, Copy)]
pub struct ArchiveStats {
    pub segments: usize,
    pub total_positions: u64,
    pub raw_bytes: u64,
    pub compressed_bytes: u64,
}

/// The dataset's non-chain state in the archive sidecar's deterministic
/// export order (maps sorted by key, so two writes of the same dataset
/// are byte-identical).
fn sidecar_from_data(data: &PipelineData) -> crate::Sidecar {
    let mut tezos_rolls: Vec<(Address, u64)> =
        data.tezos_rolls.iter().map(|(a, r)| (*a, *r)).collect();
    tezos_rolls.sort_unstable_by_key(|(a, _)| (a.kind as u8, a.id));
    crate::Sidecar {
        trades: data.trades.as_ref().clone(),
        usernames: data
            .cluster
            .usernames_sorted()
            .into_iter()
            .map(|(a, u)| (a, u.to_owned()))
            .collect(),
        parents: data.cluster.parents_sorted(),
        eos_cpu_price: data.eos_cpu_price.as_ref().clone(),
        eos_dropped_txs: data.eos_dropped_txs,
        tezos_rolls,
        governance_periods: data.governance_periods.clone(),
    }
}

/// `--segment-blocks`, checked once for every corpus a process seals into:
/// a new one ([`create_archive_writer`]) or one a follow session resumes.
pub(crate) fn check_segment_blocks(segment_blocks: u64) -> Result<u64, String> {
    match segment_blocks {
        0 => Err("--segment-blocks must be at least 1".into()),
        n => Ok(n),
    }
}

/// Create an empty archive for `data`'s scenario at `dir` — manifest and
/// sidecar sealed, no segments yet. The follow session seals observed
/// batches into it; [`write_archive`] appends every segment in one go.
pub(crate) fn create_archive_writer(
    dir: &std::path::Path,
    data: &PipelineData,
    mode: &str,
    segment_blocks: u64,
) -> Result<ArchiveWriter, String> {
    check_segment_blocks(segment_blocks)?;
    let manifest = crate::Manifest {
        meta: scenario_meta(&data.scenario, mode),
        segment_blocks,
        lens: lens_of(&data.eos_blocks, &data.tezos_blocks, &data.xrp_blocks),
    };
    let sidecar = sidecar_from_data(data);
    ArchiveWriter::create(dir, &manifest.to_string(), &sidecar.encode())
        .map_err(|e| format!("archive {}: {e}", dir.display()))
}

/// Seal a dataset into an on-disk archive at `dir`: the three chains cut
/// into LZSS-compressed columnar segments of `segment_blocks` positions
/// each, plus a manifest (scenario provenance) and sidecar (oracle
/// trades, cluster, rolls, governance windows). A later
/// process cold-starts from the directory with [`pipeline_from_archive`]
/// or [`ShardContext::from_archive`] without generating any chain.
pub fn write_archive(
    dir: &std::path::Path,
    data: &PipelineData,
    mode: &str,
    segment_blocks: u64,
    _format: crate::SegmentFormat,
) -> Result<ArchiveStats, String> {
    let _span = Span::enter("archive_write", &dir.display().to_string());
    let err = |e: txstat_archive::ArchiveError| format!("archive {}: {e}", dir.display());
    let mut writer = create_archive_writer(dir, data, mode, segment_blocks)?;
    for seg in crate::archive_io::segments_of_from(
        &data.eos_blocks,
        &data.tezos_blocks,
        &data.xrp_blocks,
        segment_blocks,
        0,
    ) {
        writer.append(&seg).map_err(err)?;
    }
    writer.seal().map_err(err)?;
    let (raw, comp) = writer
        .segments()
        .iter()
        .fold((0u64, 0u64), |(r, c), s| (r + s.raw_len, c + s.comp_len));
    Ok(ArchiveStats {
        segments: writer.segments().len(),
        total_positions: writer.total_positions(),
        raw_bytes: raw,
        compressed_bytes: comp,
    })
}

/// Cold-start path: rebuild the full dataset from an archive directory —
/// replay every segment into the three chain vectors and rehydrate the
/// oracle/cluster/rolls from the sidecar. No chain generation runs
/// (`txstat_pipeline_generate_total` stays at zero); the result renders
/// byte-identically to [`generate`] on the archived scenario. The
/// block-derived facts (Figure 2, bounds, CPU peaks) stay lazy: on first
/// use they are summed from `archive.memo`, and whatever is missing there
/// is summarized from the replayed blocks and written back. Also returns
/// the opened [`Archive`] so callers can keep appending (`follow`) or
/// replaying ranges.
pub fn pipeline_from_archive(
    dir: &std::path::Path,
) -> Result<(PipelineData, Archive), String> {
    dataset_from_archive(dir, true)
}

/// Block-free cold start for a reducer whose sweeps arrive from elsewhere
/// (`reduce --connect --archive`): open + fully verify the corpus,
/// rehydrate the sidecar, and resolve the facts from `archive.memo` right
/// away — on a warm memo no segment is decompressed or decoded at all; a
/// missing, stale or damaged entry is recomputed from its verified segment
/// bytes and the file healed. The block vectors stay empty and the chain
/// lengths come from the manifest, so the dataset renders (byte-identical
/// to [`pipeline_from_archive`]'s) once sweeps are installed
/// ([`reduce_frames_labeled_into`]) but cannot sweep, follow or re-seal.
pub fn reducer_from_archive(
    dir: &std::path::Path,
) -> Result<(PipelineData, Archive), String> {
    dataset_from_archive(dir, false)
}

/// What every archive cold start opens before it touches a segment: the
/// verified corpus, its manifest and the scenario that names, the decoded
/// sidecar, and the exchange-rate oracle over the sidecar's trades.
struct OpenedArchive {
    archive: Archive,
    manifest: crate::Manifest,
    sc: Scenario,
    sidecar: crate::Sidecar,
    oracle: RateOracle,
}

fn open_archive(dir: &std::path::Path) -> Result<OpenedArchive, String> {
    let archive = Archive::open(dir).map_err(|e| format!("archive {}: {e}", dir.display()))?;
    let manifest = crate::Manifest::parse(archive.manifest())?;
    let (sc, _mode) = scenario_from_meta(&manifest.meta)?;
    let sidecar = crate::Sidecar::decode(archive.sidecar())?;
    let oracle =
        RateOracle::from_trades(&sidecar.trades, sc.period.end, sc.period.days() as i64 + 1);
    Ok(OpenedArchive { archive, manifest, sc, sidecar, oracle })
}

fn dataset_from_archive(
    dir: &std::path::Path,
    replay_blocks: bool,
) -> Result<(PipelineData, Archive), String> {
    let at = |e: String| format!("archive {}: {e}", dir.display());
    let OpenedArchive { archive, manifest, sc, sidecar, oracle } = open_archive(dir)?;
    let ((eos_blocks, tezos_blocks, xrp_blocks), block_free_lens, facts) = if replay_blocks {
        let segments = archive.replay_all().map_err(|e| at(e.to_string()))?;
        let chains = crate::archive_io::chains_of(&segments)?;
        (chains, None, Facts::lazy(Some(archive.memo())))
    } else {
        let (sum, status) = memoized_summary(&archive.memo(), |i, m| {
            let seg = archive.decode_segment(i).map_err(|e| e.to_string())?;
            let (eos, tezos, xrp) = crate::archive_io::chains_of_segment(&seg)?;
            let cpu_price = run_of(&sidecar.eos_cpu_price, m.start, m.end);
            Ok(summarize(m.start, &eos, &tezos, &xrp, cpu_price))
        })
        .map_err(at)?;
        let lens = sum.lens();
        (Default::default(), Some(lens), Facts::known(sum, Some(status)))
    };
    let mut cluster = ClusterInfo::new();
    for (a, u) in &sidecar.usernames {
        cluster.insert(*a, Some(u.clone()), None);
    }
    for (a, p) in &sidecar.parents {
        cluster.insert(*a, None, Some(*p));
    }
    let data = PipelineData {
        scenario: sc,
        eos_blocks: Arc::new(eos_blocks),
        tezos_blocks: Arc::new(tezos_blocks),
        xrp_blocks: Arc::new(xrp_blocks),
        oracle: Arc::new(oracle),
        trades: Arc::new(sidecar.trades),
        cluster: Arc::new(cluster),
        eos_cpu_price: Arc::new(sidecar.eos_cpu_price),
        eos_dropped_txs: sidecar.eos_dropped_txs,
        tezos_rolls: Arc::new(sidecar.tezos_rolls.into_iter().collect()),
        governance_periods: sidecar.governance_periods,
        crawl: None,
        stream: None,
        sweeps: OnceLock::new(),
        block_free_lens,
        facts,
    };
    if data.lens() != manifest.lens {
        return Err(at(format!(
            "archived chain lengths {:?} disagree with manifest {:?}",
            data.lens(),
            manifest.lens
        )));
    }
    Ok((data, archive))
}

/// Resolve one [`SegmentSummary`] per live segment — memo hits as they
/// are, misses through `compute(index, meta)` — and return their sum. If
/// anything missed, the memo is rewritten with every live segment's
/// summary (best-effort: a failed write is recorded in the status, never
/// an error).
fn memoized_summary(
    memo: &SegmentMemo,
    compute: impl Fn(usize, &SegmentMeta) -> Result<SegmentSummary, String> + Sync,
) -> Result<(SegmentSummary, MemoStatus), String> {
    let mut slots = memo.load(SUMMARY_SCHEMA, SegmentSummary::decode);
    let misses: Vec<usize> =
        slots.iter().enumerate().filter(|(_, s)| s.is_none()).map(|(i, _)| i).collect();
    let hits = slots.len() - misses.len();
    let mut status =
        MemoStatus { segments: slots.len(), hits, memoized: hits, write_error: None };
    if !misses.is_empty() {
        {
            let _span = Span::enter("memo", "compute");
            let computed: Vec<Result<SegmentSummary, String>> =
                misses.par_iter().map(|&i| compute(i, &memo.segments()[i])).collect_vec();
            for (i, summary) in misses.into_iter().zip(computed) {
                slots[i] = Some(summary?);
            }
        }
        let payloads: Vec<Vec<u8>> = slots.iter().flatten().map(SegmentSummary::encode).collect();
        match memo.store(SUMMARY_SCHEMA, &payloads) {
            Ok(()) => status.memoized = status.segments,
            Err(e) => status.write_error = Some(e.to_string()),
        }
    }
    let mut sum = SegmentSummary::default();
    for summary in slots.iter().flatten() {
        sum.merge(summary);
    }
    Ok((sum, status))
}

/// Crawl-path tuning.
#[derive(Debug, Clone)]
pub struct CrawlOptions {
    /// Advertised EOS endpoints (the paper: 32) and how many to shortlist
    /// (the paper: 6).
    pub eos_advertised: usize,
    pub eos_shortlisted: usize,
    /// Worker concurrency per chain crawl.
    pub concurrency: usize,
    /// Streamed path: sweep shards per chain.
    pub shards: usize,
    /// Streamed path: bounded-channel capacity per shard (blocks).
    pub channel_capacity: usize,
}

impl Default for CrawlOptions {
    fn default() -> Self {
        CrawlOptions {
            eos_advertised: 8,
            eos_shortlisted: 3,
            concurrency: 8,
            shards: 4,
            channel_capacity: 64,
        }
    }
}

impl CrawlOptions {
    /// The paper's endpoint population: 32 advertised, 6 shortlisted.
    pub fn paper() -> Self {
        CrawlOptions { eos_advertised: 32, eos_shortlisted: 6, concurrency: 12, ..Self::default() }
    }

    /// Ingest tuning for one chain's shard pool, labeled so folds and
    /// fold spans attribute to that chain in the registry.
    fn ingest_for(&self, chain: &'static str) -> IngestOptions {
        IngestOptions { shards: self.shards, channel_capacity: self.channel_capacity, label: chain }
    }
}

/// The three simulated chains served over loopback RPC, with the EOS
/// population benchmarked and shortlisted (§3.1).
struct ServedChains {
    eos: Arc<txstat_eos::EosChain>,
    tezos: Arc<txstat_tezos::TezosChain>,
    xrp: Arc<txstat_xrp::XrpLedger>,
    eos_pool: Arc<RotatingPool>,
    tz_pool: Arc<RotatingPool>,
    xrp_pool: Arc<RotatingPool>,
    /// Handles keep the endpoint accept loops alive for the crawl's
    /// duration.
    _eos_handles: Vec<EndpointHandle>,
    _tz_handle: EndpointHandle,
    _xrp_handle: EndpointHandle,
}

impl ServedChains {
    /// The dataset of a finished crawl as far as both crawl pipelines agree
    /// on it: what only the serving side knows (CPU prices, drops, rolls,
    /// governance periods), the sidecar fetches and the crawl accounting.
    /// No blocks, no sweeps, facts not yet summarized.
    fn crawled(
        &self,
        sc: &Scenario,
        opts: &CrawlOptions,
        [eos, tezos, xrp]: [CrawlStats; 3],
        oracle: RateOracle,
        trades: Vec<TradeRecord>,
        cluster: ClusterInfo,
    ) -> PipelineData {
        PipelineData {
            scenario: sc.clone(),
            block_free_lens: None,
            eos_blocks: Arc::new(Vec::new()),
            tezos_blocks: Arc::new(Vec::new()),
            xrp_blocks: Arc::new(Vec::new()),
            oracle: Arc::new(oracle),
            trades: Arc::new(trades),
            cluster: Arc::new(cluster),
            eos_cpu_price: Arc::new(self.eos.cpu_price_history.clone()),
            eos_dropped_txs: self.eos.dropped_txs,
            tezos_rolls: Arc::new(tezos_rolls_of(&self.tezos)),
            governance_periods: governance_periods_of(&self.tezos),
            crawl: Some(Arc::new(CrawlSummary {
                eos,
                tezos,
                xrp,
                eos_advertised: opts.eos_advertised,
                eos_shortlisted: opts.eos_shortlisted,
            })),
            stream: None,
            sweeps: OnceLock::new(),
            facts: Facts::lazy(None),
        }
    }
}

/// Build the chains, spawn their endpoints, benchmark and shortlist.
async fn serve_scenario(sc: &Scenario, opts: &CrawlOptions) -> Result<ServedChains, CrawlError> {
    let eos = Arc::new(build_eos(sc));
    let tezos = Arc::new(build_tezos(sc));
    let xrp = Arc::new(build_xrp(sc));

    // --- EOS: a population of block-producer endpoints of mixed quality. --
    let eos_handler = Arc::new(EosRpcHandler::new(eos.clone()));
    let mut eos_handles: Vec<EndpointHandle> = Vec::new();
    for i in 0..opts.eos_advertised {
        // Roughly half the advertised endpoints are stingy (tight limits,
        // high latency), mirroring the paper's 6-of-32 yield.
        let profile = if i % 2 == 0 {
            EndpointProfile::generous(&format!("eos-bp-{i}"), sc.seed ^ (i as u64))
        } else {
            EndpointProfile::stingy(&format!("eos-bp-{i}"), sc.seed ^ (i as u64))
        };
        eos_handles.push(spawn_http(eos_handler.clone(), profile).await.map_err(CrawlError::Io)?);
    }
    let advertise = |h: &EndpointHandle| Advertised { name: h.name.clone(), addr: h.addr };
    let advertised: Vec<Advertised> = eos_handles.iter().map(advertise).collect();
    let reports = benchmark_endpoints(&advertised, 3, |addr| async move {
        let started = std::time::Instant::now();
        let probe = HttpRequest::post("/v1/chain/get_info", b"{}".to_vec());
        match exchange::<Http>(addr, &probe, std::time::Duration::from_millis(500)).await {
            Ok((r, _)) if r.is_ok() => Ok(started.elapsed()),
            _ => Err(()),
        }
    })
    .await;
    let eos_pool = Arc::new(RotatingPool::new(shortlist(&reports, opts.eos_shortlisted)));

    // --- Tezos: the self-hosted node (one endpoint). -----------------------
    let tezos_handler = Arc::new(TezosRpcHandler::new(tezos.clone()));
    let tz_handle = spawn_http(
        tezos_handler,
        EndpointProfile::generous("tezos-self-node", sc.seed ^ 0x7e20),
    )
    .await
    .map_err(CrawlError::Io)?;
    let tz_pool = Arc::new(RotatingPool::new(vec![advertise(&tz_handle)]));

    // --- XRP: the community websocket-equivalent endpoint. -----------------
    let usernames: HashMap<_, _> = txstat_workload::xrp::known_usernames()
        .into_iter()
        .map(|(a, n)| (a, n.to_owned()))
        .collect();
    let xrp_handler = Arc::new(XrpRpcHandler::new(xrp.clone(), usernames));
    let xrp_handle = spawn_ndjson(
        xrp_handler,
        EndpointProfile::generous("xrp-full-history", sc.seed ^ 0x1277),
    )
    .await
    .map_err(CrawlError::Io)?;
    let xrp_pool = Arc::new(RotatingPool::new(vec![advertise(&xrp_handle)]));

    Ok(ServedChains {
        eos,
        tezos,
        xrp,
        eos_pool,
        tz_pool,
        xrp_pool,
        _eos_handles: eos_handles,
        _tz_handle: tz_handle,
        _xrp_handle: xrp_handle,
    })
}

/// One chain's crawl as its own task under a `crawl` span: `crawl` gets
/// the chain's pool and the client config, finds the head and fetches down
/// from it. The three chains' endpoints are independent, so both crawl
/// pipelines overlap three of these.
fn spawn_crawl<T, Fut>(
    chain: &'static str,
    pool: &Arc<RotatingPool>,
    cfg: &ClientConfig,
    crawl: impl FnOnce(Arc<RotatingPool>, ClientConfig) -> Fut + Send + 'static,
) -> tokio::task::JoinHandle<Result<T, CrawlError>>
where
    T: Send + 'static,
    Fut: std::future::Future<Output = Result<T, CrawlError>> + Send,
{
    let (pool, cfg) = (pool.clone(), cfg.clone());
    tokio::spawn(async move {
        let _span = Span::enter("crawl", chain);
        crawl(pool, cfg).await
    })
}

fn join_err(e: tokio::task::JoinError) -> CrawlError {
    CrawlError::Protocol(format!("crawl task panicked: {e}"))
}

/// Fetch username/parent metadata for every seen account and fold it into
/// the entity clustering (XRP Scan path).
async fn fetch_cluster(
    pool: &Arc<RotatingPool>,
    cfg: &ClientConfig,
    mut accounts: Vec<txstat_xrp::AccountId>,
) -> Result<ClusterInfo, CrawlError> {
    accounts.sort();
    let metas = fetch_account_meta(pool, cfg, &accounts).await?;
    let mut cluster = ClusterInfo::new();
    for m in metas {
        cluster.insert(m.account, m.username, m.parent);
    }
    Ok(cluster)
}

/// Fetch the exchange events of every BTC issuer (Figure 11b's source).
/// `ious` must be sorted so the event order is deterministic.
async fn fetch_btc_trades(
    pool: &Arc<RotatingPool>,
    cfg: &ClientConfig,
    ious: &[IssuedCurrency],
) -> Result<Vec<TradeRecord>, CrawlError> {
    let mut trades = Vec::new();
    for ic in ious {
        if ic.currency.as_str() == "BTC" {
            trades.extend(fetch_exchanges(pool, cfg, "BTC", ic.issuer).await?);
        }
    }
    Ok(trades)
}

fn tezos_rolls_of(tezos: &txstat_tezos::TezosChain) -> HashMap<Address, u64> {
    tezos
        .bakers()
        .iter()
        .map(|b| (b.address, b.staked_mutez / tezos.config.roll_size_mutez))
        .collect()
}

/// Peak CPU price index (before, after) the EIDOS launch over a stream of
/// `(block time, price)` pairs.
fn cpu_peaks_around_launch(pairs: impl Iterator<Item = (ChainTime, f64)>) -> (f64, f64) {
    let launch = txstat_workload::eidos_launch();
    pairs.fold((0.0f64, 0.0f64), |(before, after), (t, p)| {
        if t >= launch {
            (before, after.max(p))
        } else {
            (before.max(p), after)
        }
    })
}

/// The launch peaks read off the simulated chain (the serving side holds
/// it regardless of crawl path).
fn eos_cpu_peaks_of(eos: &txstat_eos::EosChain) -> (f64, f64) {
    cpu_peaks_around_launch(
        eos.cpu_price_history.iter().zip(eos.blocks()).map(|((_, p), b)| (b.time, *p)),
    )
}

/// Full materializing path: serve the generated chains over loopback RPC,
/// shortlist endpoints, crawl everything — the three chain crawls overlap,
/// one task each, since the endpoints are independent — then fetch
/// rates/metadata and assemble the dataset.
pub async fn generate_with_crawl(
    sc: &Scenario,
    opts: &CrawlOptions,
) -> Result<PipelineData, CrawlError> {
    let served = serve_scenario(sc, opts).await?;
    let cfg = ClientConfig::default();

    let concurrency = opts.concurrency;
    let eos_low = served.eos.config.start_block_num;
    let eos_task = spawn_crawl("eos", &served.eos_pool, &cfg, move |pool, cfg| async move {
        let head = eos_head(&pool, &cfg).await?;
        crawl_eos(pool, cfg, eos_low, head, concurrency).await
    });
    let tz_low = served.tezos.config.start_level;
    let tz_task = spawn_crawl("tezos", &served.tz_pool, &cfg, move |pool, cfg| async move {
        let head = tezos_head(&pool, &cfg).await?;
        crawl_tezos(pool, cfg, tz_low, head, concurrency).await
    });
    let xrp_low = served.xrp.config.start_index;
    let xrp_task = spawn_crawl("xrp", &served.xrp_pool, &cfg, move |pool, cfg| async move {
        let head = xrp_head(&pool, &cfg).await?;
        crawl_xrp(pool, cfg, xrp_low, head, concurrency).await
    });
    // Join all three before propagating any failure, so an error never
    // leaves the other chains' crawls running detached behind the caller.
    let eos_res = eos_task.await.map_err(join_err);
    let tz_res = tz_task.await.map_err(join_err);
    let xrp_res = xrp_task.await.map_err(join_err);
    let eos_crawl = eos_res??;
    let tezos_crawl = tz_res??;
    let xrp_crawl = xrp_res??;

    // Account metadata for every account seen (XRP Scan path).
    let mut seen: HashSet<txstat_xrp::AccountId> = HashSet::new();
    let mut ious: HashSet<IssuedCurrency> = HashSet::new();
    for b in &xrp_crawl.blocks {
        seen.extend(ledger_accounts(b));
        ious.extend(ledger_ious(b));
    }
    let cluster = fetch_cluster(&served.xrp_pool, &cfg, seen.into_iter().collect()).await?;

    // Exchange rates for every observed token (Data API path), and the
    // exchange events of every BTC issuer (Figure 11b).
    let mut rates = Vec::new();
    let mut iou_list: Vec<IssuedCurrency> = ious.into_iter().collect();
    iou_list.sort();
    for ic in &iou_list {
        if let Some(rate) =
            fetch_exchange_rate(&served.xrp_pool, &cfg, ic.currency.as_str(), ic.issuer, sc.period.end)
                .await?
        {
            rates.push((*ic, rate));
        }
    }
    let trades = fetch_btc_trades(&served.xrp_pool, &cfg, &iou_list).await?;
    let oracle = RateOracle::from_rates(rates);

    let stats = [eos_crawl.stats, tezos_crawl.stats, xrp_crawl.stats];
    Ok(PipelineData {
        eos_blocks: Arc::new(eos_crawl.blocks),
        tezos_blocks: Arc::new(tezos_crawl.blocks),
        xrp_blocks: Arc::new(xrp_crawl.blocks),
        ..served.crawled(sc, opts, stats, oracle, trades, cluster)
    })
}

// ---- Streamed ingestion -----------------------------------------------------

/// Shard state for the chains whose sweeps need no side lookups: the fused
/// sweep plus stream bounds.
struct SweepShardAcc<S> {
    sweep: S,
    bounds: Bounds,
}

/// Fold the stream bounds across shards, build the chain's stream info,
/// and merge the shard sweeps in index order.
fn reduce_sweep_shards<S>(
    chain: &'static str,
    out: IngestOutcome<SweepShardAcc<S>>,
    opts: &CrawlOptions,
    mut merge: impl FnMut(&mut S, S),
) -> (S, Bounds, ChainStreamInfo) {
    let _span = Span::enter("merge", chain);
    let bounds = out.shards.iter().fold(Bounds::default(), |mut b, s| {
        b.merge(s.bounds);
        b
    });
    let info = chain_stream_info(chain, &out, opts);
    let mut it = out.shards.into_iter();
    let mut sweep = it.next().expect("at least one shard").sweep;
    for other in it {
        merge(&mut sweep, other.sweep);
    }
    (sweep, bounds, info)
}

/// The accounts a ledger shows: every sender and every payment destination
/// (whose metadata the crawl fetches afterwards).
fn ledger_accounts(
    b: &txstat_xrp::LedgerBlock,
) -> impl Iterator<Item = txstat_xrp::AccountId> + '_ {
    b.transactions.iter().flat_map(|tx| {
        let destination = match &tx.tx.payload {
            TxPayload::Payment { destination, .. } => Some(*destination),
            _ => None,
        };
        std::iter::once(tx.tx.account).chain(destination)
    })
}

/// XRP shard state: sweep, bounds, the accounts seen (for the metadata
/// fetch), and a shard-local oracle grown from the crawl-time rate cache.
struct XrpShardAcc {
    sweep: XrpColumnar,
    bounds: Bounds,
    seen: HashSet<txstat_xrp::AccountId>,
    oracle: RateOracle,
    known: HashSet<IssuedCurrency>,
}

impl XrpShardAcc {
    fn observe(&mut self, b: &txstat_xrp::LedgerBlock, rates: &RateCache) {
        self.bounds.record(b.index, b.close_time);
        // Sync any token this ledger references from the shared cache into
        // the shard-local oracle. The crawl's fetch resolved them before
        // emitting the ledger, so the lookup cannot miss.
        for ic in ledger_ious(b) {
            if self.known.insert(ic) {
                if let Some(Some(rate)) = rates.lookup(ic) {
                    self.oracle.insert(ic, rate);
                }
            }
        }
        self.seen.extend(ledger_accounts(b));
        self.sweep.observe(b, &self.oracle);
    }

    fn merge(&mut self, other: XrpShardAcc) {
        self.sweep.merge(other.sweep);
        self.bounds.merge(other.bounds);
        self.seen.extend(other.seen);
        for (ic, rate) in other.oracle.currencies() {
            self.oracle.insert(*ic, *rate);
        }
    }
}

fn chain_stream_info<A>(
    chain: &'static str,
    outcome: &IngestOutcome<A>,
    opts: &CrawlOptions,
) -> ChainStreamInfo {
    // Export each shard channel's end-of-stream gauges to the registry so
    // backpressure is visible on `/metrics` even after the pool is gone.
    let registry = txstat_telemetry::registry();
    for (shard, g) in outcome.gauges.iter().enumerate() {
        let shard = shard.to_string();
        registry
            .gauge_with(
                "txstat_ingest_channel_high_water",
                "Peak blocks buffered in one shard channel",
                &[("chain", chain), ("shard", &shard)],
            )
            .set(g.high_water);
        registry
            .gauge_with(
                "txstat_ingest_channel_blocked_sends",
                "Producer sends that parked on a full shard channel",
                &[("chain", chain), ("shard", &shard)],
            )
            .set(g.blocked_sends);
    }
    ChainStreamInfo {
        shards: outcome.shards.len(),
        channel_capacity: opts.channel_capacity,
        streamed_blocks: outcome.total_observed(),
        peak_buffered: outcome.peak_buffered(),
        blocked_sends: outcome.gauges.iter().map(|g| g.blocked_sends).sum(),
    }
}

/// Streamed path: the same serve → benchmark → shortlist → crawl pipeline,
/// but every fetched block flows straight into sharded sweep accumulators
/// through bounded channels. The crawl-side and sweep-side overlap per
/// chain *and* the three chains overlap with each other; no measurement
/// copy of any chain is ever materialized.
pub async fn generate_with_crawl_streamed(
    sc: &Scenario,
    opts: &CrawlOptions,
) -> Result<PipelineData, CrawlError> {
    let served = serve_scenario(sc, opts).await?;
    let cfg = ClientConfig::default();
    let period = sc.period;
    let rates = Arc::new(RateCache::new(period.end));
    let concurrency = opts.concurrency;

    // EOS: sharded columnar sweep pool + streaming crawl. Shard
    // workers intern and batch each block as it arrives; the reducer merges
    // the per-shard interned states and finalizes once.
    let (eos_sink, eos_pool): (Sink<txstat_eos::Block>, _) = spawn_sharded(
        opts.ingest_for("eos"),
        move || SweepShardAcc { sweep: EosColumnar::new(period), bounds: Bounds::default() },
        |acc: &mut SweepShardAcc<EosColumnar>, n, b: &txstat_eos::Block| {
            acc.bounds.record(n, b.time);
            acc.sweep.observe(b);
        },
    );
    let eos_low = served.eos.config.start_block_num;
    let eos_task = spawn_crawl("eos", &served.eos_pool, &cfg, move |pool, cfg| async move {
        let head = eos_head(&pool, &cfg).await?;
        let fetch = move |n| {
            let (pool, cfg) = (pool.clone(), cfg.clone());
            async move { fetch_eos_block(&pool, &cfg, n).await }
        };
        Ok(crawl_into(eos_sink, head, eos_low, concurrency, fetch).await?)
    });

    // Tezos.
    let tz_periods = governance_periods_of(&served.tezos);
    let (tz_sink, tz_pool): (Sink<txstat_tezos::TezosBlock>, _) = spawn_sharded(
        opts.ingest_for("tezos"),
        move || SweepShardAcc {
            sweep: TezosColumnar::new(period, tz_periods.clone()),
            bounds: Bounds::default(),
        },
        |acc: &mut SweepShardAcc<TezosColumnar>, n, b: &txstat_tezos::TezosBlock| {
            acc.bounds.record(n, b.time);
            acc.sweep.observe(b);
        },
    );
    let tz_low = served.tezos.config.start_level;
    let tz_task = spawn_crawl("tezos", &served.tz_pool, &cfg, move |pool, cfg| async move {
        let head = tezos_head(&pool, &cfg).await?;
        let fetch = move |n| {
            let (pool, cfg) = (pool.clone(), cfg.clone());
            async move { fetch_tezos_block(&pool, &cfg, n).await }
        };
        Ok(crawl_into(tz_sink, head, tz_low, concurrency, fetch).await?)
    });

    // XRP: the fetch resolves exchange rates as tokens appear; the
    // shard accumulators value payments through a local oracle synced from
    // that cache.
    let rates_for_obs = rates.clone();
    let (xrp_sink, xrp_shard_pool): (Sink<txstat_xrp::LedgerBlock>, _) = spawn_sharded(
        opts.ingest_for("xrp"),
        move || XrpShardAcc {
            sweep: XrpColumnar::new(period),
            bounds: Bounds::default(),
            seen: HashSet::new(),
            oracle: RateOracle::default(),
            known: HashSet::new(),
        },
        move |acc: &mut XrpShardAcc, _n, b: &txstat_xrp::LedgerBlock| {
            acc.observe(b, &rates_for_obs);
        },
    );
    let xrp_low = served.xrp.config.start_index;
    let xrp_rates = rates.clone();
    let xrp_task = spawn_crawl("xrp", &served.xrp_pool, &cfg, move |pool, cfg| async move {
        let head = xrp_head(&pool, &cfg).await?;
        let fetch = move |n| {
            let (pool, cfg, rates) = (pool.clone(), cfg.clone(), xrp_rates.clone());
            async move {
                let fetched = fetch_xrp_ledger(&pool, &cfg, n).await?;
                rates.resolve(&pool, &cfg, &fetched.0).await?;
                Ok(fetched)
            }
        };
        Ok(crawl_into(xrp_sink, head, xrp_low, concurrency, fetch).await?)
    });

    // The crawls (and their folds) run concurrently. Join every producer
    // before propagating any failure — a failed producer has already
    // dropped its sink, so the shard workers below drain and exit either
    // way, and no crawl keeps running detached behind an early Err.
    let eos_res = eos_task.await.map_err(join_err);
    let tz_res = tz_task.await.map_err(join_err);
    let xrp_res = xrp_task.await.map_err(join_err);
    let eos_out = eos_pool.finish().await;
    let tz_out = tz_pool.finish().await;
    let xrp_out = xrp_shard_pool.finish().await;
    let eos_stats = eos_res??;
    let tz_stats = tz_res??;
    let xrp_stats = xrp_res??;

    // Reduce: merge the per-shard columnar states in index order, then
    // resolve interned ids once (finalize) into the scalar sweeps the
    // exhibits render from.
    let (eos_col, eos_bounds, eos_info) =
        reduce_sweep_shards("eos", eos_out, opts, EosColumnar::merge);
    let eos_sweep = eos_col.finalize();
    let (tz_col, tz_bounds, tz_info) =
        reduce_sweep_shards("tezos", tz_out, opts, TezosColumnar::merge);
    let tz_sweep = tz_col.finalize();
    let (xrp_sweep, seen_accounts, xrp_bounds, xrp_info) = {
        let _span = Span::enter("merge", "xrp");
        let info = chain_stream_info("xrp", &xrp_out, opts);
        let merged = xrp_out.merged(XrpShardAcc::merge);
        (merged.sweep.finalize(), merged.seen, merged.bounds, info)
    };

    // Post-crawl sidecar fetches: metadata for seen accounts, BTC exchange
    // events. Rates were already resolved during the crawl.
    let cluster = fetch_cluster(&served.xrp_pool, &cfg, seen_accounts.into_iter().collect()).await?;
    let trades = fetch_btc_trades(&served.xrp_pool, &cfg, &rates.currencies()).await?;
    let oracle = rates.oracle();

    let sweeps = OnceLock::new();
    let _ = sweeps.set(Arc::new(ChainSweeps { eos: eos_sweep, tezos: tz_sweep, xrp: xrp_sweep }));

    // No blocks are held, so the facts are settled here: the bounds the
    // shards observed and the launch peaks off the serving side's chain
    // (Figure 2 renders the crawl's own accounting on this path).
    let facts = SegmentSummary {
        bounds: [eos_bounds, tz_bounds, xrp_bounds],
        cpu_peaks: eos_cpu_peaks_of(&served.eos),
        ..SegmentSummary::default()
    };
    Ok(PipelineData {
        block_free_lens: Some([
            eos_info.streamed_blocks,
            tz_info.streamed_blocks,
            xrp_info.streamed_blocks,
        ]),
        stream: Some(StreamSummary { eos: eos_info, tezos: tz_info, xrp: xrp_info }),
        sweeps,
        facts: Facts::known(facts, None),
        ..served.crawled(sc, opts, [eos_stats, tz_stats, xrp_stats], oracle, trades, cluster)
    })
}

/// Block positions per [`summarize`] call when a dataset summarizes its own
/// blocks (the default segment size: one parallel grain either way).
const SUMMARY_RUN_BLOCKS: u64 = 256;

/// Positions `[start, end)` of a chain-aligned vector, clamped to its length.
pub(crate) fn run_of<T>(v: &[T], start: u64, end: u64) -> &[T] {
    &v[(start as usize).min(v.len())..(end as usize).min(v.len())]
}

/// The one kernel behind every block-derived report fact: summarize the
/// blocks at positions `[start, start + len)` of each chain (`cpu_price`
/// is the CPU-price history aligned to `eos`). Figure 2's accounting
/// writes every block's wire JSON through one reused buffer and
/// sample-compresses it (same methodology as the crawler's — see "Figure 2
/// methodology" in the root README); sampling is keyed by *absolute* block
/// position, so summaries of any tiling of a chain sum to the whole-chain
/// result. Changing what this returns for the same blocks means bumping
/// [`SUMMARY_SCHEMA`].
pub fn summarize(
    start: u64,
    eos: &[txstat_eos::Block],
    tezos: &[txstat_tezos::TezosBlock],
    xrp: &[txstat_xrp::LedgerBlock],
    cpu_price: &[(u64, f64)],
) -> SegmentSummary {
    fn chain<B>(
        name: &str,
        start: u64,
        blocks: &[B],
        wire_into: impl Fn(&B, &mut Vec<u8>),
        txs: impl Fn(&B) -> u64,
        at: impl Fn(&B) -> (u64, ChainTime),
    ) -> (CrawlStats, Bounds) {
        let _span = Span::enter("fig2_storage", name);
        let mut stats = CrawlStats::default();
        let mut wire = Vec::new();
        for (i, b) in blocks.iter().enumerate() {
            wire.clear();
            wire_into(b, &mut wire);
            stats.record_payload(start + i as u64, &wire);
            stats.blocks += 1;
            stats.transactions += txs(b);
        }
        let mut bounds = Bounds::default();
        for b in blocks.first().into_iter().chain(blocks.last()) {
            let (n, t) = at(b);
            bounds.record(n, t);
        }
        (stats, bounds)
    }
    let (eos_stats, eos_bounds) = chain(
        "eos",
        start,
        eos,
        txstat_eos::rpc_model::block_bytes_into,
        |b| b.transactions.len() as u64,
        |b| (b.num, b.time),
    );
    let (tezos_stats, tezos_bounds) = chain(
        "tezos",
        start,
        tezos,
        txstat_tezos::rpc_model::block_bytes_into,
        |b| b.operations.len() as u64,
        |b| (b.level, b.time),
    );
    let (xrp_stats, xrp_bounds) = chain(
        "xrp",
        start,
        xrp,
        txstat_xrp::rpc_model::ledger_bytes_into,
        |b| b.transactions.len() as u64,
        |b| (b.index, b.close_time),
    );
    SegmentSummary {
        storage: (eos_stats, tezos_stats, xrp_stats),
        bounds: [eos_bounds, tezos_bounds, xrp_bounds],
        cpu_peaks: cpu_peaks_around_launch(
            cpu_price.iter().zip(eos).map(|((_, p), b)| (b.time, *p)),
        ),
    }
}

// ---- Distributed reduction (shard workers → wire frames → reduce) ----------

/// The provenance stamped into every frame of a scenario's shard sweep:
/// enough to rebuild the scenario in the reducer (`mode` + `seed`) and
/// enough to refuse frames from a different one (the window and divisors
/// pin customized scenarios apart).
pub fn scenario_meta(sc: &Scenario, mode: &str) -> serde_json::Value {
    serde_json::json!({
        "mode": mode,
        "seed": sc.seed,
        "window": [sc.period.start.0, sc.period.end.0],
        "divisors": [sc.eos_divisor, sc.tezos_divisor, sc.xrp_divisor],
    })
}

/// Rebuild the scenario a frame's meta describes ([`scenario_meta`]'s
/// inverse for the preset modes).
pub fn scenario_from_meta(meta: &serde_json::Value) -> Result<(Scenario, String), String> {
    let mode = meta
        .get("mode")
        .and_then(serde_json::Value::as_str)
        .ok_or("frame meta carries no scenario mode")?
        .to_owned();
    let seed = meta
        .get("seed")
        .and_then(serde_json::Value::as_u64)
        .ok_or("frame meta carries no seed")?;
    let sc = match mode.as_str() {
        "small" => Scenario::small(seed),
        "paper" => Scenario::paper(seed),
        other => return Err(format!("unknown scenario mode {other:?} in frame meta")),
    };
    // The window and divisors in the meta must match what the preset
    // rebuilds — frames swept from a customized scenario must not reduce
    // against the preset one's chains.
    if scenario_meta(&sc, &mode) != *meta {
        return Err(format!(
            "frame meta does not describe the {mode:?} preset at seed {seed} \
             (customized scenario?): {meta:?}"
        ));
    }
    Ok((sc, mode))
}

/// Where a [`ShardContext`] gets its blocks: a generated dataset's chains
/// held in memory, or an opened archive whose segments are decoded lazily —
/// per assignment, only the covering ranges.
enum ShardSource {
    Generated(PipelineData),
    Archived {
        archive: Archive,
        total: u64,
        /// Decoded+parsed segments keyed by content hash — re-assignments
        /// overlapping the same segments skip decompress/decode/parse.
        cache: SegmentCache<crate::archive_io::ReplayedChains>,
    },
}

/// A shard worker's prepared state: the scenario's chains (or archive),
/// oracle, and governance windows, built once and reused across every
/// assignment. A one-shot `reproduce shard A..B` pays the build once
/// anyway; a socket worker (`reproduce shard --listen`) serving a whole
/// fleet reduction would otherwise rebuild the chains per request — and
/// with `--archive` it never builds them at all: each assignment decodes
/// only the segments covering its range.
pub struct ShardContext {
    sc: Scenario,
    source: ShardSource,
    oracle: Arc<RateOracle>,
    governance_periods: Vec<(PeriodKind, Period)>,
}

impl ShardContext {
    /// [`generate`]'s dataset, built once. Pure and deterministic — every
    /// worker derives identical chains and the same exchange-rate oracle
    /// from the scenario seed.
    pub fn new(sc: &Scenario) -> Self {
        let data = generate(sc);
        ShardContext {
            sc: data.scenario.clone(),
            oracle: data.oracle.clone(),
            governance_periods: data.governance_periods.clone(),
            source: ShardSource::Generated(data),
        }
    }

    /// Cold-start from an archived corpus: open + verify the archive,
    /// decode the sidecar (oracle trades, governance windows), and keep
    /// the compressed segments mapped. No chain is generated and no block
    /// is decoded yet — [`ShardContext::frames`] replays only the
    /// segments covering each assignment. Also returns the parsed
    /// manifest so callers can validate it against their own flags.
    /// Decoded segments cache at a 64 MiB budget
    /// ([`ShardContext::from_archive_with`] sizes it explicitly).
    pub fn from_archive(dir: &std::path::Path) -> Result<(Self, crate::Manifest), String> {
        Self::from_archive_with(dir, DEFAULT_SEGMENT_CACHE_MB)
    }

    /// [`ShardContext::from_archive`] with an explicit decoded-segment
    /// cache budget in MiB (at 0 only the newest decoded segment stays
    /// resident). Cache entries are keyed by segment *content hash*, so a
    /// reorg that rewrites a sealed segment can never serve the stale
    /// decode.
    pub fn from_archive_with(
        dir: &std::path::Path,
        cache_mb: u64,
    ) -> Result<(Self, crate::Manifest), String> {
        let OpenedArchive { archive, manifest, sc, sidecar, oracle } = open_archive(dir)?;
        let total = manifest.total_positions();
        let ctx = ShardContext {
            sc,
            source: ShardSource::Archived {
                archive,
                total,
                cache: SegmentCache::new(cache_mb.saturating_mul(1024 * 1024)),
            },
            oracle: Arc::new(oracle),
            governance_periods: sidecar.governance_periods,
        };
        Ok((ctx, manifest))
    }

    /// The longest chain's block count — the position space a fleet
    /// reduction tiles into chunks.
    pub fn total_blocks(&self) -> u64 {
        match &self.source {
            ShardSource::Generated(data) => data.longest_chain() as u64,
            ShardSource::Archived { total, .. } => *total,
        }
    }

    /// Sweep the block-position range `[start, end)` of each chain
    /// (clamped to the chain head) into the three wire frames. The
    /// archived source decodes only the segments overlapping the range and
    /// folds them at their absolute base position — the emitted frames are
    /// byte-identical to a whole-chain sweep of the same range.
    pub fn frames(
        &self,
        meta: serde_json::Value,
        start: u64,
        end: u64,
        shards: usize,
        _payload: PayloadFormat,
    ) -> Result<Vec<ShardFrame>, String> {
        let period = self.sc.period;
        let build = |worker: &ShardWorker,
                     eos: &[&[txstat_eos::Block]],
                     tezos: &[&[txstat_tezos::TezosBlock]],
                     xrp: &[&[txstat_xrp::LedgerBlock]]| {
            vec![
                worker.eos_frame(eos, period),
                worker.tezos_frame(tezos, period, &self.governance_periods),
                worker.xrp_frame(xrp, period, &self.oracle),
            ]
        };
        let mut worker =
            ShardWorker { start, end, base: 0, shards: shards.max(1), meta };
        match &self.source {
            ShardSource::Generated(d) => {
                let (eos, tezos, xrp) = (&d.eos_blocks[..], &d.tezos_blocks[..], &d.xrp_blocks[..]);
                Ok(build(&worker, &[eos], &[tezos], &[xrp]))
            }
            ShardSource::Archived { archive, cache, .. } => {
                let (lo, hi) = archive.covering(start, end);
                let metas = archive.segments();
                worker.base = metas.get(lo).map_or(start, |m| m.start);
                // Probe the cache once per covering segment (each probe is
                // exactly one hit or miss), decode the misses on a rayon
                // fan, then park them for the next overlapping assignment.
                let probes: Vec<(usize, Option<Arc<crate::archive_io::ReplayedChains>>)> =
                    (lo..hi).map(|i| (i, cache.get(metas[i].hash))).collect();
                let misses: Vec<usize> =
                    probes.iter().filter(|(_, p)| p.is_none()).map(|(i, _)| *i).collect();
                let decoded: Vec<Result<crate::archive_io::ReplayedChains, String>> = misses
                    .par_iter()
                    .map(|&i| {
                        let seg = archive.decode_segment(i).map_err(|e| e.to_string())?;
                        crate::archive_io::chains_of_segment(&seg)
                    })
                    .collect_vec();
                let mut fresh = std::collections::HashMap::new();
                for (&i, parsed) in misses.iter().zip(decoded) {
                    let parsed = Arc::new(parsed?);
                    cache.insert(metas[i].hash, Arc::clone(&parsed), metas[i].raw_len);
                    fresh.insert(i, parsed);
                }
                // One borrowed run per covering segment: the cached decode
                // is swept in place, no block is cloned.
                let covering: Vec<Arc<crate::archive_io::ReplayedChains>> = probes
                    .into_iter()
                    .map(|(i, probe)| probe.unwrap_or_else(|| Arc::clone(&fresh[&i])))
                    .collect();
                let eos: Vec<&[txstat_eos::Block]> = covering.iter().map(|c| &c.0[..]).collect();
                let tezos: Vec<&[txstat_tezos::TezosBlock]> =
                    covering.iter().map(|c| &c.1[..]).collect();
                let xrp: Vec<&[txstat_xrp::LedgerBlock]> =
                    covering.iter().map(|c| &c.2[..]).collect();
                Ok(build(&worker, &eos, &tezos, &xrp))
            }
        }
    }

    /// Exact decoded-segment cache counters (archived sources only).
    pub fn cache_stats(&self) -> Option<txstat_archive::CacheStats> {
        match &self.source {
            ShardSource::Generated(_) => None,
            ShardSource::Archived { cache, .. } => Some(cache.stats()),
        }
    }
}

/// Central reduction: validate and merge shard frames into `data` — the
/// dataset of the scenario they were swept from, generated (the fleet
/// reducer does so up front, to size its chunk tiling) or cold-started —
/// and install the reduced sweeps. The rendered report is bit-identical to
/// [`generate`]'s.
///
/// Each frame carries an origin label (the file it was read from, or the
/// fleet worker address that produced it), and a validation failure names
/// that origin, the frame's index, chain, and range — instead of a bare
/// [`ReduceError`] that leaves a bad frame among many undiagnosable.
/// Coverage must tile each chain exactly — a missing head, hole, or tail
/// surfaces as [`ReduceError::CoverageGap`] before anything renders.
pub fn reduce_frames_labeled_into(
    data: PipelineData,
    frames: &[(String, ShardFrame)],
) -> Result<PipelineData, String> {
    let mut session = ReduceSession::new();
    for (i, (origin, frame)) in frames.iter().enumerate() {
        session.submit(frame).map_err(|e| {
            format!(
                "frame {i} from {origin} ({} [{}, {})): {e}",
                frame.header.chain, frame.header.start, frame.header.end
            )
        })?;
    }
    finish_reduce(data, session).map_err(|e| e.to_string())
}

/// The shared tail of a reduction: check that coverage tiles each chain
/// exactly, finalize, and install the sweeps into the fresh dataset.
fn finish_reduce(data: PipelineData, session: ReduceSession) -> Result<PipelineData, ReduceError> {
    for (chain, len) in txstat_ingest::reduce::CHAINS.into_iter().zip(data.lens()) {
        let mut gaps = Vec::new();
        match session.span(chain) {
            None => gaps.push((0, len)),
            Some((lo, hi)) => {
                if lo > 0 {
                    gaps.push((0, lo));
                }
                gaps.extend(session.gaps(chain));
                if hi < len {
                    gaps.push((hi, len));
                }
            }
        }
        if !gaps.is_empty() {
            return Err(ReduceError::CoverageGap { chain, gaps });
        }
    }
    let sweeps = session.finalize()?;
    assert!(data.install_sweeps(sweeps), "fresh dataset has no sweeps yet");
    Ok(data)
}
