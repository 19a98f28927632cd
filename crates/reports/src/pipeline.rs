//! Pipeline orchestration: scenario → chains → (optional RPC crawl) →
//! the dataset every exhibit renders from.
//!
//! Three paths produce the same exhibits:
//! - [`generate`] reads the simulated chains directly (fast; what
//!   `reproduce report` runs);
//! - [`generate_with_crawl`] serves the chains over loopback RPC endpoints,
//!   benchmarks and shortlists them, and runs the real crawler with the
//!   three chain crawls overlapped — the full §3.1 measurement path. Each
//!   block is folded into its chain's sweep on the fetch worker that
//!   fetched it, so the report is ready the moment the crawl finishes and
//!   no chain is held on the measurement side unless the caller keeps the
//!   blocks (what `reproduce archive --crawl` seals);
//! - [`pipeline_from_archive`] / [`reducer_from_archive`] cold-start from a
//!   sealed corpus ([`write_archive`]) without generating any chain.

use crate::archive_io::{Bounds, SegmentSummary, Sidecar, SUMMARY_SCHEMA};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};
use txstat_archive::{Archive, ArchiveWriter, SegmentMemo, SegmentMeta, SegmentStates};
use txstat_core::eos_analysis::{EosLabels, WashReport};
use txstat_core::tezos_analysis::PeriodCurves;
use txstat_core::xrp_analysis::{ActiveAccount, ConcentrationReport, ValueFlowReport};
use txstat_core::{ClusterInfo, EosColumnar, TezosColumnar, XrpColumnar};
use txstat_crawler::chains::Fetched;
use txstat_crawler::{
    benchmark_endpoints, crawl_range, eos_head, exchange, fetch_account_meta, fetch_eos_block,
    fetch_exchanges, fetch_tezos_block, fetch_xrp_ledger, shortlist, tezos_head, xrp_head,
    Advertised, ClientConfig, CrawlError, CrawlStats, RotatingPool,
};
use txstat_eos::AppCategory;
use txstat_ingest::crawl::ledger_ious;
use txstat_ingest::reduce::CHAINS;
use txstat_ingest::{RangeFold, RateCache, ReduceError, ReduceSession};
use txstat_netsim::handlers::{EosRpcHandler, TezosRpcHandler, XrpRpcHandler};
use txstat_netsim::http::HttpRequest;
use txstat_netsim::server::{spawn_http, spawn_ndjson, EndpointHandle};
use txstat_netsim::{EndpointProfile, Http};
use txstat_telemetry::{join, par_map, registry, Counter, Span};
use txstat_tezos::address::Address;
use txstat_tezos::governance::PeriodKind;
use txstat_types::series::BucketSeries;
use txstat_types::time::{ChainTime, Period};
use txstat_types::{JsonLen, JsonOut};
use txstat_wire::{PayloadFormat, ShardFrame};
use txstat_workload::{eos::build_eos, tezos::build_tezos, xrp::build_xrp, Scenario};
use txstat_xrp::amount::IssuedCurrency;
use txstat_xrp::rates::{RateOracle, TradeRecord};
use txstat_xrp::tx::TxPayload;

/// Everything the exhibits need.
///
/// The heavy inputs (block vectors, oracle, cluster, …) sit behind `Arc`
/// so the serve path can fork one cheap dataset per epoch
/// ([`PipelineData::fork_with_sweeps`]): every fork shares the same chain
/// data and differs only in its installed sweeps and the views derived
/// from them (`vote_curves()` etc.). Deref coercion keeps the
/// field access sites (`&data.eos_blocks` as `&[Block]`, `&data.oracle` as
/// `&RateOracle`, …) unchanged.
pub struct PipelineData {
    pub scenario: Scenario,
    /// Materialized chains. Empty after a crawl that kept no blocks and on
    /// a reducer's block-free cold start ([`reducer_from_archive`]); exhibits go
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
    /// Lazily-computed fused accumulators (one parallel sweep per chain);
    /// every exhibit renders from these instead of re-scanning the blocks.
    /// The crawl pre-fills them with what it folded.
    sweeps: OnceLock<Arc<ChainSweeps>>,
    /// Chain lengths `[eos, tezos, xrp]` of a block-free dataset (the
    /// crawled counts, or the manifest's for [`reducer_from_archive`]).
    /// `None` wherever the vectors are held: their own lengths are the
    /// truth there, whatever a caller has since put in the public fields.
    block_free_lens: Option<[u64; 3]>,
    /// Every report input that needs block bytes and is not a sweep
    /// (Figure 2's serialize + LZSS-sample accounting — ~30× any other
    /// figure — block bounds, CPU-price peaks). Shared across every fork of
    /// this dataset, so serve resolves it at most once per process, never
    /// per request or per epoch swap.
    facts: Arc<Facts>,
    /// The views derived from the sweeps that more than one section reads
    /// (the comparison reads all of them again), each derived on first use.
    /// Unlike the facts they belong to this dataset's sweeps: every
    /// constructor, fork and twin starts with none, and only a serve epoch
    /// takes over, by `Arc`, the views of the epoch before it whose chains
    /// did not move ([`PipelineData::carrying_views`]). Boxed: the six
    /// cells would about double the size of every move of a dataset.
    views: Box<Views>,
}

/// A set of the three chains: the chains whose sweeps a section, a route
/// or a view reads, or the chains a follower's epoch moved. Bit `i` is the
/// chain at index `i` of [`CHAINS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chains(u8);

impl Chains {
    pub const NONE: Chains = Chains(0);
    pub const EOS: Chains = Chains(1);
    pub const TEZOS: Chains = Chains(2);
    pub const XRP: Chains = Chains(4);
    pub const ALL: Chains = Chains(7);

    /// The chain tagged `name` in [`CHAINS`].
    pub fn named(name: &str) -> Option<Chains> {
        let i = CHAINS.iter().position(|c| *c == name)?;
        Some(Chains(1 << i))
    }

    /// The chains whose flag is set, by [`CHAINS`] index.
    pub fn flagged(flags: [bool; 3]) -> Chains {
        Chains((0..3).filter(|&i| flags[i]).fold(0, |set, i| set | 1 << i))
    }

    pub const fn union(self, other: Chains) -> Chains {
        Chains(self.0 | other.0)
    }

    /// True when the two sets share a chain.
    pub const fn meets(self, other: Chains) -> bool {
        self.0 & other.0 != 0
    }
}

/// The lazily derived shared views of one dataset's sweeps: one cell per
/// [`PipelineData`] accessor that fills it, each held by `Arc` so that a
/// serve epoch can share it with the next.
#[derive(Default)]
struct Views {
    eos_category_series: OnceLock<Arc<BucketSeries<AppCategory>>>,
    vote_curves: OnceLock<Arc<Vec<PeriodCurves>>>,
    value_flow: OnceLock<Arc<ValueFlowReport>>,
    most_active: OnceLock<Arc<Vec<ActiveAccount>>>,
    concentration: OnceLock<Arc<ConcentrationReport>>,
    wash_report: OnceLock<Arc<WashReport>>,
}

impl Views {
    /// The views of these that read none of the chains in `moved`, shared
    /// by `Arc`; every other cell empty. Each view's chains are those its
    /// derivation in the accessor of the same name reads.
    fn carried(&self, moved: Chains) -> Views {
        fn keep<T>(cell: &OnceLock<Arc<T>>, reads: Chains, moved: Chains) -> OnceLock<Arc<T>> {
            match cell.get() {
                Some(view) if !reads.meets(moved) => OnceLock::from(Arc::clone(view)),
                _ => OnceLock::new(),
            }
        }
        Views {
            eos_category_series: keep(&self.eos_category_series, Chains::EOS, moved),
            vote_curves: keep(&self.vote_curves, Chains::TEZOS, moved),
            value_flow: keep(&self.value_flow, Chains::XRP, moved),
            most_active: keep(&self.most_active, Chains::XRP, moved),
            concentration: keep(&self.concentration, Chains::XRP, moved),
            wash_report: keep(&self.wash_report, Chains::EOS, moved),
        }
    }
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
        Arc::new(Facts {
            cell: OnceLock::new(),
            memo,
        })
    }

    fn known(summary: SegmentSummary, status: Option<MemoStatus>) -> Arc<Facts> {
        Arc::new(Facts {
            cell: OnceLock::from((summary, status)),
            memo: None,
        })
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
pub(crate) type ChainBounds = (Option<(u64, ChainTime)>, Option<(u64, ChainTime)>);

pub use txstat_core::ChainSweeps;

impl PipelineData {
    /// The analytics state: computed on first use with one columnar sweep
    /// per chain (interned ids, batched classification, remap merges — see
    /// `txstat_core::columnar`), folded in one contiguous run per CPU and
    /// merged in order, then shared by every exhibit. The engine finalizes into the `*Sweep` structs whose
    /// accessors the renderers read. The crawl has already filled this
    /// with what it folded, and the reduced paths through
    /// [`PipelineData::install_sweeps`]; `tests/streamed_ingest.rs` installs
    /// the scalar reference fold the same way and pins the whole report
    /// bit-identical to this default.
    pub fn sweeps(&self) -> &ChainSweeps {
        self.sweeps.get_or_init(|| {
            let period = self.scenario.period;
            Arc::new(ChainSweeps {
                eos: {
                    let _span = Span::enter("sweep", "eos");
                    chunked_sweep(
                        &self.eos_blocks,
                        || EosColumnar::new(period),
                        EosColumnar::observe,
                        EosColumnar::merge,
                    )
                    .finalize()
                },
                tezos: {
                    let _span = Span::enter("sweep", "tezos");
                    chunked_sweep(
                        &self.tezos_blocks,
                        || TezosColumnar::new(period, self.governance_periods.clone()),
                        TezosColumnar::observe,
                        TezosColumnar::merge,
                    )
                    .finalize()
                },
                xrp: {
                    let _span = Span::enter("sweep", "xrp");
                    chunked_sweep(
                        &self.xrp_blocks,
                        || XrpColumnar::new(period),
                        |acc, b| acc.observe(b, &self.oracle),
                        XrpColumnar::merge,
                    )
                    .finalize()
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

    /// The dataset's block-derived facts, resolved on first use under a
    /// `facts` span: already known (crawl, block-free cold start), summed
    /// from `archive.memo` with misses summarized from the held blocks and
    /// written back, or summarized from the blocks outright.
    fn facts(&self) -> &(SegmentSummary, Option<MemoStatus>) {
        self.facts.cell.get_or_init(|| {
            let _span = Span::enter("facts", "");
            match &self.facts.memo {
                None => {
                    let starts: Vec<u64> = (0..self.longest_chain() as u64)
                        .step_by(SUMMARY_RUN_BLOCKS as usize)
                        .collect();
                    let mut sum = SegmentSummary::default();
                    for run in par_map(&starts, |&s| {
                        self.summarize_range(s, s + SUMMARY_RUN_BLOCKS)
                    }) {
                        sum.merge(&run);
                    }
                    (sum, None)
                }
                Some(memo) => {
                    let (sum, status) =
                        memoized_summary(memo, |_, m| Ok(self.summarize_range(m.start, m.end)))
                            .expect("summarizing held blocks cannot fail");
                    (sum, Some(status))
                }
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

    /// `cell`'s view, derived from the sweeps on first use under a `view`
    /// span labelled `name`. The sweeps are computed first, outside it, so
    /// a first-use sweep stays a `sweep` span of its own.
    fn view<'a, T>(
        &'a self,
        cell: &'a OnceLock<Arc<T>>,
        name: &str,
        derive: impl FnOnce(&ChainSweeps) -> T,
    ) -> &'a T {
        cell.get_or_init(|| {
            let sweeps = self.sweeps();
            let _span = Span::enter("view", name);
            Arc::new(derive(sweeps))
        })
    }

    /// Figure 3a: the EOS throughput series by app category, through the
    /// curated labels of the top 100 contracts by received transactions
    /// (the paper's manual labelling session).
    pub(crate) fn eos_category_series(&self) -> &BucketSeries<AppCategory> {
        self.view(
            &self.views.eos_category_series,
            "eos_category_series",
            |s| {
                let curated = EosLabels::curated();
                s.eos
                    .throughput_series(&s.eos.labels(100, &|n| curated.get(n)))
            },
        )
    }

    /// Figure 9: the governance vote curves, roll-weighted.
    pub(crate) fn vote_curves(&self) -> &[PeriodCurves] {
        self.view(&self.views.vote_curves, "vote_curves", |s| {
            s.tezos.governance_curves(&self.tezos_rolls)
        })
        .as_slice()
    }

    /// Figure 12: the entity-level XRP value flows.
    pub(crate) fn value_flow(&self) -> &ValueFlowReport {
        self.view(&self.views.value_flow, "value_flow", |s| {
            s.xrp.value_flow(&self.cluster)
        })
    }

    /// Figure 8: the 10 most active XRP accounts.
    pub(crate) fn most_active(&self) -> &[ActiveAccount] {
        self.view(&self.views.most_active, "most_active", |s| {
            s.xrp.most_active(10, &self.cluster)
        })
        .as_slice()
    }

    /// §3.3: the XRP account-concentration statistics.
    pub(crate) fn concentration(&self) -> &ConcentrationReport {
        self.view(&self.views.concentration, "concentration", |s| {
            s.xrp.concentration()
        })
    }

    /// §4.1: the WhaleEx wash-trading report.
    pub(crate) fn wash_report(&self) -> &WashReport {
        self.view(&self.views.wash_report, "wash_report", |s| {
            s.eos.wash_trading_report()
        })
    }

    /// This dataset with the views of `prev` that read none of the chains
    /// in `moved`, in place of its own. Sound only where the two datasets'
    /// sweeps differ in the chains `moved` alone — consecutive serve
    /// epochs, `moved` being what the follower's advance between them
    /// observed — because a view is a function of the sweeps it reads.
    pub(crate) fn carrying_views(mut self, prev: &PipelineData, moved: Chains) -> PipelineData {
        self.views = Box::new(prev.views.carried(moved));
        self
    }

    /// Fork this dataset with a different set of installed sweeps: all
    /// heavy inputs (blocks, oracle, cluster, CPU-price history, …) are
    /// shared by `Arc`, the block-derived facts are shared too, and only
    /// the analytics state differs (with it the views, which the fork
    /// derives afresh from its own sweeps). This is what lets the serve path
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
    /// or views yet and the given facts. Views are not carried over: they
    /// are of this dataset's sweeps, which the sibling does not share.
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
            sweeps: OnceLock::new(),
            block_free_lens: self.block_free_lens,
            facts,
            views: Box::default(),
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
    let usernames: HashMap<_, _> = txstat_workload::xrp::known_usernames()
        .into_iter()
        .collect();
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
static GENERATIONS: LazyLock<Arc<Counter>> = LazyLock::new(|| {
    registry().counter(
        "txstat_pipeline_generate_total",
        "Full chain-generation passes (all three chains built from scratch)",
    )
});

/// Blocks the crawl folded, by [`CHAINS`] index. Registered by the first
/// crawl, not by [`register_metrics`]: a run that never crawls does not
/// expose the family.
static FOLDED: LazyLock<[Arc<Counter>; 3]> = LazyLock::new(|| {
    CHAINS.map(|chain| {
        registry().counter_with(
            "txstat_ingest_blocks_folded_total",
            "Blocks the crawl folded into their chain's sweep as they were fetched",
            &[("chain", chain)],
        )
    })
});

/// Register the pipeline's metric families at zero, so a process that
/// never generates (an archive cold-start) still exposes them.
pub fn register_metrics() {
    LazyLock::force(&GENERATIONS);
}

/// Build the three chains from scratch, one `generate` span each, and
/// count the pass: the direct path and the crawl's serving side both do.
fn build_chains(
    sc: &Scenario,
) -> (
    txstat_eos::EosChain,
    txstat_tezos::TezosChain,
    txstat_xrp::XrpLedger,
) {
    GENERATIONS.inc();
    let eos = {
        let _span = Span::enter("generate", "eos");
        build_eos(sc)
    };
    let tezos = {
        let _span = Span::enter("generate", "tezos");
        build_tezos(sc)
    };
    let _span = Span::enter("generate", "xrp");
    (eos, tezos, build_xrp(sc))
}

/// Direct path: generate the three chains and read them in-process.
pub fn generate(sc: &Scenario) -> PipelineData {
    let (mut eos, tezos, mut xrp) = build_chains(sc);
    let _span = Span::enter("generate", "derive");
    let oracle = RateOracle::from_trades(&xrp.trades, sc.period.end, sc.period.days() as i64 + 1);
    let cluster = cluster_from_ledger(&xrp);
    let governance_periods = governance_periods_of(&tezos);
    let tezos_rolls = tezos_rolls_of(&tezos);

    // Everything derived is taken above; the chains now give up their
    // vectors instead of copying them.
    let eos_dropped_txs = eos.dropped_txs;
    let eos_cpu_price = std::mem::take(&mut eos.cpu_price_history);
    let trades = std::mem::take(&mut xrp.trades);
    let (eos_blocks, tezos_blocks, xrp_blocks) = (
        eos.into_blocks(),
        tezos.into_blocks(),
        xrp.into_closed_ledgers(),
    );
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
        sweeps: OnceLock::new(),
        facts: Facts::lazy(None),
        views: Box::default(),
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
fn sidecar_from_data(data: &PipelineData) -> Sidecar {
    let mut tezos_rolls: Vec<(Address, u64)> =
        data.tezos_rolls.iter().map(|(a, r)| (*a, *r)).collect();
    tezos_rolls.sort_unstable_by_key(|(a, _)| (a.kind as u8, a.id));
    Sidecar {
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
pub fn pipeline_from_archive(dir: &std::path::Path) -> Result<(PipelineData, Archive), String> {
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
pub fn reducer_from_archive(dir: &std::path::Path) -> Result<(PipelineData, Archive), String> {
    dataset_from_archive(dir, false)
}

/// What every archive cold start opens before it touches a segment: the
/// verified corpus, its manifest and the scenario that names, the decoded
/// sidecar, and the exchange-rate oracle over the sidecar's trades.
struct OpenedArchive {
    archive: Archive,
    manifest: crate::Manifest,
    sc: Scenario,
    sidecar: Sidecar,
    oracle: RateOracle,
}

fn open_archive(dir: &std::path::Path) -> Result<OpenedArchive, String> {
    let archive = Archive::open(dir).map_err(|e| format!("archive {}: {e}", dir.display()))?;
    let manifest = crate::Manifest::parse(archive.manifest())?;
    let (sc, _mode) = scenario_from_meta(&manifest.meta)?;
    let sidecar = Sidecar::decode(archive.sidecar())?;
    let oracle =
        RateOracle::from_trades(&sidecar.trades, sc.period.end, sc.period.days() as i64 + 1);
    Ok(OpenedArchive {
        archive,
        manifest,
        sc,
        sidecar,
        oracle,
    })
}

fn dataset_from_archive(
    dir: &std::path::Path,
    replay_blocks: bool,
) -> Result<(PipelineData, Archive), String> {
    let at = |e: String| format!("archive {}: {e}", dir.display());
    let OpenedArchive {
        archive,
        manifest,
        sc,
        sidecar,
        oracle,
    } = open_archive(dir)?;
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
        (
            Default::default(),
            Some(lens),
            Facts::known(sum, Some(status)),
        )
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
        sweeps: OnceLock::new(),
        block_free_lens,
        facts,
        views: Box::default(),
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
    let misses: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| i)
        .collect();
    let hits = slots.len() - misses.len();
    let mut status = MemoStatus {
        segments: slots.len(),
        hits,
        memoized: hits,
        write_error: None,
    };
    if !misses.is_empty() {
        {
            let _span = Span::enter("memo", "compute");
            let computed = par_map(&misses, |&i| compute(i, &memo.segments()[i]));
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
}

impl Default for CrawlOptions {
    fn default() -> Self {
        CrawlOptions {
            eos_advertised: 8,
            eos_shortlisted: 3,
            concurrency: 8,
        }
    }
}

impl CrawlOptions {
    /// The paper's endpoint population: 32 advertised, 6 shortlisted.
    pub fn paper() -> Self {
        CrawlOptions {
            eos_advertised: 32,
            eos_shortlisted: 6,
            concurrency: 12,
        }
    }
}

/// The three simulated chains served over loopback RPC, with the EOS
/// population benchmarked and shortlisted (§3.1). The endpoints' accept
/// threads outlive it: they end with the process.
struct ServedChains {
    eos: Arc<txstat_eos::EosChain>,
    tezos: Arc<txstat_tezos::TezosChain>,
    xrp: Arc<txstat_xrp::XrpLedger>,
    eos_pool: RotatingPool,
    tz_pool: RotatingPool,
    xrp_pool: RotatingPool,
}

/// Build the chains, spawn their endpoints, benchmark and shortlist.
fn serve_scenario(sc: &Scenario, opts: &CrawlOptions) -> Result<ServedChains, CrawlError> {
    let (eos, tezos, xrp) = build_chains(sc);
    let (eos, tezos, xrp) = (Arc::new(eos), Arc::new(tezos), Arc::new(xrp));
    let _span = Span::enter("crawl", "shortlist");
    let advertise = |h: EndpointHandle| Advertised {
        name: h.name,
        addr: h.addr,
    };

    // --- EOS: a population of block-producer endpoints of mixed quality. --
    let eos_handler = Arc::new(EosRpcHandler::new(eos.clone()));
    let mut advertised = Vec::with_capacity(opts.eos_advertised);
    for i in 0..opts.eos_advertised {
        // Roughly half the advertised endpoints are stingy (tight limits,
        // high latency), mirroring the paper's 6-of-32 yield.
        let profile = if i % 2 == 0 {
            EndpointProfile::generous(&format!("eos-bp-{i}"), sc.seed ^ (i as u64))
        } else {
            EndpointProfile::stingy(&format!("eos-bp-{i}"), sc.seed ^ (i as u64))
        };
        advertised.push(advertise(spawn_http(eos_handler.clone(), profile)?));
    }
    let reports = benchmark_endpoints(&advertised, 3, |addr| {
        let started = std::time::Instant::now();
        let probe = HttpRequest::post("/v1/chain/get_info", b"{}".to_vec());
        match exchange::<Http>(addr, &probe, std::time::Duration::from_millis(500)) {
            Ok((r, _)) if r.is_ok() => Ok(started.elapsed()),
            _ => Err(()),
        }
    });
    let eos_pool = RotatingPool::new(shortlist(&reports, opts.eos_shortlisted));

    // --- Tezos: the self-hosted node (one endpoint). -----------------------
    let tezos_handler = Arc::new(TezosRpcHandler::new(tezos.clone()));
    let tz_handle = spawn_http(
        tezos_handler,
        EndpointProfile::generous("tezos-self-node", sc.seed ^ 0x7e20),
    )?;
    let tz_pool = RotatingPool::new(vec![advertise(tz_handle)]);

    // --- XRP: the community websocket-equivalent endpoint. -----------------
    let usernames: HashMap<_, _> = txstat_workload::xrp::known_usernames()
        .into_iter()
        .map(|(a, n)| (a, n.to_owned()))
        .collect();
    let xrp_handler = Arc::new(XrpRpcHandler::new(xrp.clone(), usernames));
    let xrp_handle = spawn_ndjson(
        xrp_handler,
        EndpointProfile::generous("xrp-full-history", sc.seed ^ 0x1277),
    )?;
    let xrp_pool = RotatingPool::new(vec![advertise(xrp_handle)]);

    Ok(ServedChains {
        eos,
        tezos,
        xrp,
        eos_pool,
        tz_pool,
        xrp_pool,
    })
}

/// Crawl one chain's blocks `[low, high]` with its fold as the emit step:
/// each block is observed into `acc` under the chain's one lock, on the
/// fetch worker that fetched it, counted in `folded` (the chain's
/// `txstat_ingest_blocks_folded_total{chain}`), and kept if `keep_blocks`.
/// The fold must not care in which order the blocks arrive. Returns the
/// fold, the kept blocks in position order (empty unless kept) and the
/// crawl accounting.
fn crawl_folded<A: Send, B: Send>(
    folded: &Counter,
    (low, high): (u64, u64),
    concurrency: usize,
    keep_blocks: bool,
    fetch: impl Fn(u64) -> Result<Fetched<B>, CrawlError> + Sync,
    acc: A,
    observe: impl Fn(&mut A, u64, &B) + Sync,
) -> Result<(A, Vec<B>, CrawlStats), CrawlError> {
    let state = Mutex::new((acc, Vec::new()));
    let stats = crawl_range(high, low, concurrency, fetch, |n, block: B| {
        let mut guard = state
            .lock()
            .expect("no fold panicked on another fetch worker");
        let (acc, kept) = &mut *guard;
        observe(acc, n, &block);
        folded.inc();
        if keep_blocks {
            kept.push((n, block));
        }
        Ok::<(), CrawlError>(())
    })?;
    // `crawl_range` returned Ok: no worker panicked, so no fold did.
    let (acc, mut kept) = state.into_inner().expect("no fold panicked");
    kept.sort_unstable_by_key(|(n, _)| *n);
    Ok((acc, kept.into_iter().map(|(_, b)| b).collect(), stats))
}

/// Fetch username/parent metadata for every seen account and fold it into
/// the entity clustering (XRP Scan path).
fn fetch_cluster(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    mut accounts: Vec<txstat_xrp::AccountId>,
) -> Result<ClusterInfo, CrawlError> {
    accounts.sort();
    let metas = fetch_account_meta(pool, cfg, &accounts)?;
    let mut cluster = ClusterInfo::new();
    for m in metas {
        cluster.insert(m.account, m.username, m.parent);
    }
    Ok(cluster)
}

/// Fetch the exchange events of every BTC issuer (Figure 11b's source).
/// `ious` must be sorted so the event order is deterministic.
fn fetch_btc_trades(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    ious: &[IssuedCurrency],
) -> Result<Vec<TradeRecord>, CrawlError> {
    let mut trades = Vec::new();
    for ic in ious {
        if ic.currency.as_str() == "BTC" {
            trades.extend(fetch_exchanges(pool, cfg, "BTC", ic.issuer)?);
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
/// it whether or not the crawl keeps its blocks).
fn eos_cpu_peaks_of(eos: &txstat_eos::EosChain) -> (f64, f64) {
    cpu_peaks_around_launch(
        eos.cpu_price_history
            .iter()
            .zip(eos.blocks())
            .map(|((_, p), b)| (b.time, *p)),
    )
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

/// XRP's fold: the sweep and its bounds, the accounts seen (for the
/// metadata fetch after the crawl), and the oracle the sweep values
/// payments with, synced from the crawl-time rate cache.
struct XrpFold {
    sweep: XrpColumnar,
    bounds: Bounds,
    seen: HashSet<txstat_xrp::AccountId>,
    oracle: RateOracle,
    known: HashSet<IssuedCurrency>,
}

impl XrpFold {
    fn observe(&mut self, n: u64, b: &txstat_xrp::LedgerBlock, rates: &RateCache) {
        self.bounds.record(n, b.close_time);
        // Sync any token this ledger references from the shared cache into
        // the fold's oracle. The fetch resolved them before emitting the
        // ledger, so the lookup cannot miss.
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
}

/// The §3.1 measurement path: serve the generated chains over loopback RPC,
/// benchmark and shortlist the EOS endpoints, then crawl the three chains
/// at once, one scoped thread each under its `crawl` span, since their
/// endpoints are independent. Every block is folded into its chain's sweep
/// on the fetch worker that fetched it (XRP's fetch first resolves the
/// ledger's exchange rates), so the sweeps are ready when the crawl ends.
/// The sidecar is fetched once, after the crawl: metadata for every account
/// seen and the BTC issuers' exchange events. With `keep_blocks` the blocks
/// are kept too, in position order (what `reproduce archive --crawl`
/// seals); without, the measurement side holds no chain.
pub fn generate_with_crawl(
    sc: &Scenario,
    opts: &CrawlOptions,
    keep_blocks: bool,
) -> Result<PipelineData, CrawlError> {
    let served = serve_scenario(sc, opts)?;
    let cfg = &ClientConfig::default();
    let period = sc.period;
    let rates = &RateCache::new(period.end);
    let concurrency = opts.concurrency;
    let governance_periods = governance_periods_of(&served.tezos);
    let [folded_eos, folded_tezos, folded_xrp] = &*FOLDED;

    let crawl_eos = || {
        let _span = Span::enter("crawl", "eos");
        let pool = &served.eos_pool;
        let head = eos_head(pool, cfg)?;
        let fold = (EosColumnar::new(period), Bounds::default());
        crawl_folded(
            folded_eos,
            (served.eos.config.start_block_num, head),
            concurrency,
            keep_blocks,
            |n| fetch_eos_block(pool, cfg, n),
            fold,
            |(sweep, bounds): &mut (EosColumnar, Bounds), n, b: &txstat_eos::Block| {
                bounds.record(n, b.time);
                sweep.observe(b);
            },
        )
    };
    let crawl_tezos = || {
        let _span = Span::enter("crawl", "tezos");
        let pool = &served.tz_pool;
        let head = tezos_head(pool, cfg)?;
        let fold = (
            TezosColumnar::new(period, governance_periods.clone()),
            Bounds::default(),
        );
        crawl_folded(
            folded_tezos,
            (served.tezos.config.start_level, head),
            concurrency,
            keep_blocks,
            |n| fetch_tezos_block(pool, cfg, n),
            fold,
            |(sweep, bounds): &mut (TezosColumnar, Bounds), n, b: &txstat_tezos::TezosBlock| {
                bounds.record(n, b.time);
                sweep.observe(b);
            },
        )
    };
    let crawl_xrp = || {
        let _span = Span::enter("crawl", "xrp");
        let pool = &served.xrp_pool;
        let head = xrp_head(pool, cfg)?;
        let fold = XrpFold {
            sweep: XrpColumnar::new(period),
            bounds: Bounds::default(),
            seen: HashSet::new(),
            oracle: RateOracle::default(),
            known: HashSet::new(),
        };
        crawl_folded(
            folded_xrp,
            (served.xrp.config.start_index, head),
            concurrency,
            keep_blocks,
            |n| {
                let fetched = fetch_xrp_ledger(pool, cfg, n)?;
                rates.resolve(pool, cfg, &fetched.0)?;
                Ok(fetched)
            },
            fold,
            |fold: &mut XrpFold, n, b: &txstat_xrp::LedgerBlock| fold.observe(n, b, rates),
        )
    };
    // EOS crawls on the calling thread, the other two beside it. All three
    // finish before any failure propagates, so an error never leaves
    // another chain's crawl running behind the caller.
    let (eos, (tezos, xrp)) = {
        let _span = Span::enter("crawl", "");
        join(crawl_eos, || join(crawl_tezos, crawl_xrp))
    };
    let ((eos_sweep, eos_bounds), eos_blocks, eos_stats) = eos?;
    let ((tz_sweep, tz_bounds), tezos_blocks, tz_stats) = tezos?;
    let (xrp, xrp_blocks, xrp_stats) = xrp?;

    // The sidecar: metadata for every account seen, the BTC issuers'
    // exchange events. Rates were resolved during the crawl.
    let (cluster, trades) = {
        let _span = Span::enter("crawl", "sidecar");
        let cluster = fetch_cluster(&served.xrp_pool, cfg, xrp.seen.into_iter().collect())?;
        (
            cluster,
            fetch_btc_trades(&served.xrp_pool, cfg, &rates.currencies())?,
        )
    };

    let sweeps = ChainSweeps {
        eos: {
            let _span = Span::enter("sweep", "eos");
            eos_sweep.finalize()
        },
        tezos: {
            let _span = Span::enter("sweep", "tezos");
            tz_sweep.finalize()
        },
        xrp: {
            let _span = Span::enter("sweep", "xrp");
            xrp.sweep.finalize()
        },
    };
    // The facts are settled here: the bounds the folds observed and the
    // launch peaks off the serving side's chain (Figure 2 renders the
    // crawl's own accounting).
    let facts = SegmentSummary {
        bounds: [eos_bounds, tz_bounds, xrp.bounds],
        cpu_peaks: eos_cpu_peaks_of(&served.eos),
        ..SegmentSummary::default()
    };
    let lens = [eos_stats.blocks, tz_stats.blocks, xrp_stats.blocks];
    Ok(PipelineData {
        scenario: sc.clone(),
        eos_blocks: Arc::new(eos_blocks),
        tezos_blocks: Arc::new(tezos_blocks),
        xrp_blocks: Arc::new(xrp_blocks),
        oracle: Arc::new(rates.oracle()),
        trades: Arc::new(trades),
        cluster: Arc::new(cluster),
        eos_cpu_price: Arc::new(served.eos.cpu_price_history.clone()),
        eos_dropped_txs: served.eos.dropped_txs,
        tezos_rolls: Arc::new(tezos_rolls_of(&served.tezos)),
        governance_periods,
        crawl: Some(Arc::new(CrawlSummary {
            eos: eos_stats,
            tezos: tz_stats,
            xrp: xrp_stats,
            eos_advertised: opts.eos_advertised,
            eos_shortlisted: opts.eos_shortlisted,
        })),
        sweeps: OnceLock::from(Arc::new(sweeps)),
        block_free_lens: (!keep_blocks).then_some(lens),
        facts: Facts::known(facts, None),
        views: Box::default(),
    })
}

/// Floor on blocks per [`chunked_sweep`] run: below it, a run's accumulator
/// setup and merge cost more than the fold it splits off.
const MIN_SWEEP_RUN: usize = 256;

/// One chain's sweep, chunked: fold one contiguous run of `blocks` per
/// available CPU (at least [`MIN_SWEEP_RUN`] blocks each) on [`par_map`],
/// then merge the runs in position order. Every accumulator merges exactly,
/// so this equals the sequential fold (`*Columnar::compute`); on one CPU it
/// is that fold, on the calling thread.
fn chunked_sweep<B: Sync, A: Send>(
    blocks: &[B],
    identity: impl Fn() -> A + Sync,
    observe: impl Fn(&mut A, &B) + Sync,
    merge: impl Fn(&mut A, A),
) -> A {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runs: Vec<&[B]> = blocks
        .chunks(blocks.len().div_ceil(cpus).max(MIN_SWEEP_RUN))
        .collect();
    let mut folded = par_map(&runs, |run| {
        let mut acc = identity();
        for b in *run {
            observe(&mut acc, b);
        }
        acc
    })
    .into_iter();
    let mut acc = folded.next().unwrap_or_else(identity);
    for run in folded {
        merge(&mut acc, run);
    }
    acc
}

/// Block positions per [`summarize`] call when a dataset summarizes its own
/// blocks (the default segment size: one parallel grain either way).
const SUMMARY_RUN_BLOCKS: u64 = 256;

/// Positions `[start, end)` of a chain-aligned vector, clamped to its length.
pub(crate) fn run_of<T>(v: &[T], start: u64, end: u64) -> &[T] {
    &v[(start as usize).min(v.len())..(end as usize).min(v.len())]
}

/// A block as Figure 2 accounts it: its canonical wire JSON (written or
/// counted through the chain crate's one writer), its transactions, and its
/// height and time for the bounds.
trait Fig2Block {
    fn wire(&self, out: &mut impl JsonOut);
    fn txs(&self) -> u64;
    fn at(&self) -> (u64, ChainTime);
}

impl Fig2Block for txstat_eos::Block {
    fn wire(&self, out: &mut impl JsonOut) {
        txstat_eos::rpc_model::block_bytes_into(self, out)
    }
    fn txs(&self) -> u64 {
        self.transactions.len() as u64
    }
    fn at(&self) -> (u64, ChainTime) {
        (self.num, self.time)
    }
}

impl Fig2Block for txstat_tezos::TezosBlock {
    fn wire(&self, out: &mut impl JsonOut) {
        txstat_tezos::rpc_model::block_bytes_into(self, out)
    }
    fn txs(&self) -> u64 {
        self.operations.len() as u64
    }
    fn at(&self) -> (u64, ChainTime) {
        (self.level, self.time)
    }
}

impl Fig2Block for txstat_xrp::LedgerBlock {
    fn wire(&self, out: &mut impl JsonOut) {
        txstat_xrp::rpc_model::ledger_bytes_into(self, out)
    }
    fn txs(&self) -> u64 {
        self.transactions.len() as u64
    }
    fn at(&self) -> (u64, ChainTime) {
        (self.index, self.close_time)
    }
}

/// The one kernel behind every block-derived report fact: summarize the
/// blocks at positions `[start, start + len)` of each chain (`cpu_price`
/// is the CPU-price history aligned to `eos`). Figure 2's accounting
/// writes the wire JSON of the blocks [`CrawlStats`] samples through one
/// reused buffer and compresses it (same methodology as the crawler's —
/// see "Figure 2 methodology" in the root README); every other block is
/// only counted, by the same writer into a [`JsonLen`]. Sampling is keyed
/// by *absolute* block position, so summaries of any tiling of a chain sum
/// to the whole-chain result. Changing what this returns for the same
/// blocks means bumping [`SUMMARY_SCHEMA`].
pub fn summarize(
    start: u64,
    eos: &[txstat_eos::Block],
    tezos: &[txstat_tezos::TezosBlock],
    xrp: &[txstat_xrp::LedgerBlock],
    cpu_price: &[(u64, f64)],
) -> SegmentSummary {
    fn chain<B: Fig2Block>(name: &str, start: u64, blocks: &[B]) -> (CrawlStats, Bounds) {
        let _span = Span::enter("fig2_storage", name);
        let mut stats = CrawlStats::default();
        let mut wire = Vec::new();
        for (index, b) in (start..).zip(blocks) {
            if CrawlStats::is_sampled(index) {
                wire.clear();
                b.wire(&mut wire);
                stats.record_payload(index, &wire);
            } else {
                stats.record_len(index, JsonLen::of(|len| b.wire(len)));
            }
            stats.blocks += 1;
            stats.transactions += b.txs();
        }
        let mut bounds = Bounds::default();
        for b in blocks.first().into_iter().chain(blocks.last()) {
            let (n, t) = b.at();
            bounds.record(n, t);
        }
        (stats, bounds)
    }
    let (eos_stats, eos_bounds) = chain("eos", start, eos);
    let (tezos_stats, tezos_bounds) = chain("tezos", start, tezos);
    let (xrp_stats, xrp_bounds) = chain("xrp", start, xrp);
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
/// held in memory, or an opened archive whose segments are swept lazily,
/// each at most once.
enum ShardSource {
    Generated(PipelineData),
    Archived {
        archive: Archive,
        total: u64,
        /// Swept state by segment index: an assignment that covers a
        /// segment whole merges a clone of it instead of decoding blocks.
        states: SegmentStates<RangeFold>,
    },
}

/// A shard worker's prepared state: the scenario's chains (or archive),
/// oracle, and governance windows, built once and reused across every
/// assignment. A one-shot `reproduce shard A..B` pays the build once
/// anyway; a socket worker (`reproduce shard --listen`) serving a whole
/// fleet reduction would otherwise rebuild the chains per request — and
/// with `--archive` it never builds them at all: it sweeps each segment
/// once, on the first assignment that covers it whole.
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
    /// is decoded yet — [`ShardContext::frames`] sweeps only the segments
    /// covering each assignment. Also returns the parsed manifest so
    /// callers can validate it against their own flags.
    pub fn from_archive(dir: &std::path::Path) -> Result<(Self, crate::Manifest), String> {
        let OpenedArchive {
            archive,
            manifest,
            sc,
            sidecar,
            oracle,
        } = open_archive(dir)?;
        let total = manifest.total_positions();
        let states = SegmentStates::new(archive.segments().len());
        let ctx = ShardContext {
            sc,
            source: ShardSource::Archived {
                archive,
                total,
                states,
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
    /// (clamped to the chain head) into the three wire frames.
    ///
    /// The range is swept in pieces that merge in position order, so the
    /// frames reduce to the same sweeps as one fold of the range. A
    /// generated source is one piece. The archived source answers a segment
    /// the range covers whole from that segment's swept state, filling it
    /// on first use from one decode of the segment's verified bytes; a
    /// segment the range cuts (a ragged edge) is decoded and its share
    /// swept, and nothing of it is kept. `_shards` and `_payload` are
    /// ignored; they stay until the benchmark's layer harness stops
    /// passing them (ROADMAP 1(b)).
    pub fn frames(
        &self,
        meta: serde_json::Value,
        start: u64,
        end: u64,
        _shards: usize,
        _payload: PayloadFormat,
    ) -> Result<Vec<ShardFrame>, String> {
        let end = end.max(start);
        let pieces = match &self.source {
            ShardSource::Generated(d) => vec![Ok(Cow::Owned(self.fold(
                run_of(&d.eos_blocks, start, end),
                run_of(&d.tezos_blocks, start, end),
                run_of(&d.xrp_blocks, start, end),
            )))],
            ShardSource::Archived {
                archive, states, ..
            } => {
                let (lo, hi) = archive.covering(start, end);
                let covering: Vec<usize> = (lo..hi).collect();
                par_map(&covering, |&i| {
                    let m = archive.segments()[i];
                    if start <= m.start && m.end <= end {
                        states
                            .get_or_fill(i, || self.sweep_segment(archive, i, m.start, m.end))
                            .map(Cow::Borrowed)
                    } else {
                        self.sweep_segment(archive, i, start.max(m.start), end.min(m.end))
                            .map(Cow::Owned)
                    }
                })
            }
        };
        // A lone piece is encoded where it lies; merging clones.
        let merging = Span::enter("shard_merge", "");
        let mut pieces = pieces.into_iter();
        let mut merged = match pieces.next() {
            Some(first) => first?,
            None => Cow::Owned(RangeFold::new(
                self.sc.period,
                self.governance_periods.clone(),
            )),
        };
        for piece in pieces {
            merged.to_mut().merge(piece?.into_owned());
        }
        drop(merging);
        Ok(merged.frames(start, &meta))
    }

    /// One fold of the given runs of the three chains.
    fn fold(
        &self,
        eos: &[txstat_eos::Block],
        tezos: &[txstat_tezos::TezosBlock],
        xrp: &[txstat_xrp::LedgerBlock],
    ) -> RangeFold {
        let mut fold = RangeFold::new(self.sc.period, self.governance_periods.clone());
        fold.sweep(eos, tezos, xrp, &self.oracle);
        fold
    }

    /// Decode segment `i` of `archive` and sweep its positions
    /// `[start, end)` (clamped to each chain's blocks) into a fresh fold.
    /// The decoded blocks are dropped on return.
    fn sweep_segment(
        &self,
        archive: &Archive,
        i: usize,
        start: u64,
        end: u64,
    ) -> Result<RangeFold, String> {
        let seg = archive.decode_segment(i).map_err(|e| e.to_string())?;
        let (eos, tezos, xrp) = crate::archive_io::chains_of_segment(&seg)?;
        let (lo, hi) = (start - seg.start, end - seg.start);
        Ok(self.fold(
            run_of(&eos, lo, hi),
            run_of(&tezos, lo, hi),
            run_of(&xrp, lo, hi),
        ))
    }

    /// Exact segment-state counters (archived sources only): one hit or
    /// miss per segment an assignment covers whole.
    pub fn cache_stats(&self) -> Option<txstat_archive::CacheStats> {
        match &self.source {
            ShardSource::Generated(_) => None,
            ShardSource::Archived { states, .. } => Some(states.stats()),
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
    for (chain, len) in CHAINS.into_iter().zip(data.lens()) {
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
    assert!(
        data.install_sweeps(sweeps),
        "fresh dataset has no sweeps yet"
    );
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::{chunked_sweep, generate, Chains, PipelineData};
    use crate::tests::emptied;
    use txstat_workload::Scenario;

    /// Runs merge in block order (a concatenation is associative, not
    /// commutative), and no blocks fold to the identity.
    #[test]
    fn chunked_sweep_merges_its_runs_in_block_order() {
        let concat = |blocks: &[u32]| {
            chunked_sweep(
                blocks,
                Vec::new,
                |acc: &mut Vec<u32>, b| acc.push(*b),
                |a, mut b| a.append(&mut b),
            )
        };
        let blocks: Vec<u32> = (0..5_000).collect();
        assert_eq!(concat(&blocks), blocks);
        assert!(concat(&[]).is_empty());
    }

    /// Per view: it is carried into a dataset whose sweeps differ in one chain
    /// exactly when emptying that chain leaves it unchanged, and what is
    /// carried is what that dataset derives itself. So no view's chain set
    /// misses a chain it reads, nor names one it does not.
    #[test]
    fn a_view_is_carried_exactly_when_the_moved_chain_leaves_it_unchanged() {
        let data = generate(&Scenario::small(7));
        let views = |d: &PipelineData| -> [String; 6] {
            let series = d.eos_category_series();
            [
                format!("{:?} {}", series.columns_sorted(), series.out_of_range()),
                format!("{:?}", d.vote_curves()),
                format!("{:?}", d.value_flow()),
                format!("{:?}", d.most_active()),
                format!("{:?}", d.concentration()),
                format!("{:?}", d.wash_report()),
            ]
        };
        let whole = views(&data);
        for chain in [Chains::EOS, Chains::TEZOS, Chains::XRP] {
            let carried = emptied(&data, chain).carrying_views(&data, chain);
            let v = &carried.views;
            let held = [
                v.eos_category_series.get().is_some(),
                v.vote_curves.get().is_some(),
                v.value_flow.get().is_some(),
                v.most_active.get().is_some(),
                v.concentration.get().is_some(),
                v.wash_report.get().is_some(),
            ];
            let fresh = views(&emptied(&data, chain));
            assert_eq!(views(&carried), fresh, "{chain:?} moved");
            for (i, (before, after)) in whole.iter().zip(&fresh).enumerate() {
                assert_eq!(held[i], before == after, "view {i}, {chain:?} moved");
            }
        }
    }
}
