//! The one chain follower: `reproduce serve` and `reproduce follow` both
//! drive [`Follower`].
//!
//! [`Follower::advance`] sweeps only the next batch of block positions of
//! every chain (fresh columnar accumulators), finalizes them into one delta
//! and returns a fork of the dataset carrying the sweeps with that delta
//! folded in. The history is never re-read, re-merged or re-finalized, and
//! in steady state never copied or freed either: an epoch costs O(batch).
//!
//! # Where the blocks come from
//!
//! One `advance` folds the runs of positions `[lo, hi)` from one source:
//!
//! | source | dataset | runs of a batch | held in memory |
//! |--------|---------|-----------------|----------------|
//! | held   | [`crate::generate`], a crawl that kept its blocks, [`pipeline_from_archive`] (`follow`, `report`) | one: the chains' own vectors, clamped | every block |
//! | streamed | [`crate::streamed_from_archive`], the one block-free archive dataset (`serve --archive`; `reduce` and `shard` over `--archive` open it too, but follow nothing) | one per segment the batch overlaps ([`Archive::covering`]) | the window: the segments the batch overlaps and those decoded ahead with them |
//!
//! The dataset says which: `Source::of` reads `PipelineData::corpus`, as
//! `ShardContext::frames` does.
//!
//! A streamed follower decodes a segment when a batch first reaches it and
//! drops it when a batch starts past it. On a miss it decodes the next
//! [`cpus`] segments at once (at least the batch's own) through
//! `par_map`; pinned to one CPU, as in the benchmark, that is one
//! segment. With a second CPU the segments the next batch reaches are
//! decoded, and those this batch left are freed, on a scoped thread beside
//! the fold, so the next batch does not miss. A segment that does not
//! decode is [`IngestError::Source`] naming it, met only by the batch that
//! needs it. Paper scale, `serve --archive --batch 256 --epoch-ms 0` on 2
//! vCPUs, 10 alternating runs: the process's VmHWM at head went from
//! 239–240 MB to 43–50 MB, and the median spawn → head from 610 to 464 ms
//! (decoding only on a miss, the window had taken 637–654 ms). Once
//! [`Archive`] stopped holding the 14 MB `archive.seg` (it reads each
//! segment's bytes when the window decodes it) the VmHWM at head went from
//! 41–45 MB to 29–31 MB (median 42.3 → 29.0 MB), spawn → head unchanged
//! (medians 456 and 472 ms, both 393–514 ms).
//!
//! Both sources go through the same check: per chain, the number of the
//! last block folded (the high-water mark) is carried across runs and
//! batches, every block of a run must be above it and above its
//! predecessor, and [`Follower::resync`] resets it to the blocks before the
//! resume offset. The reorg guard hashes and re-reads held blocks, so a
//! streamed follower refuses one.
//!
//! # The left-right pair
//!
//! The follower owns no private copy of the state, only the two snapshots
//! it published last: `front` (epoch *n*) and `back` (epoch *n − 1* plus the
//! delta dₙ it lacks). Epoch *n + 1* is the back copy taken out of its `Arc`
//! with dₙ, then dₙ₊₁ folded in; the old front, owed dₙ₊₁, is the next back.
//!
//! - **Who may hold the back copy:** its fork — hence the `EpochCell` until
//!   the next publish, and any reader that loaded it and is not done — and
//!   the reorg ring. `Arc::try_unwrap` succeeds only for the last reference,
//!   so a snapshot anyone can still see is never written. In the serve loop
//!   (`advance`, `publish`) epoch *n − 1* left the cell when *n* went in and
//!   is normally free by `advance` *n + 1*: 84 of 85 small epochs.
//! - **One fallback, never a wait:** otherwise the front is cloned, as every
//!   epoch used to be. Three causes — the first epoch (an empty state:
//!   microseconds); a reader still rendering the snapshot retired two epochs
//!   ago (one O(state) clone, and that reader frees the retired copy); a
//!   guard window above one, whose ring retains snapshots on purpose (a
//!   guarded `follow` clones every epoch, as before). Counted by
//!   `txstat_epoch_snapshots_total{source}` / [`Follower::snapshots`].
//! - **Each copy sees d₁, d₂, … once and in order**, whichever mix of
//!   reclaimed and cloned steps built it (a clone of the front has seen what
//!   the front has): `TezosSweep`'s governance events concatenate in block
//!   order and every float fold equals the one-shot sweep's at *every* epoch.
//! - A failed `advance` validates its runs first and leaves the pair alone;
//!   [`Follower::resync`] makes the restored snapshot the front, no back.
//!
//! Small `serve --archive --batch 32 --epoch-ms 0`, one pinned CPU, ms over 85
//! epochs (paper, 104 epochs of 256: clone 250 + free 100 against fold 80),
//! measured over held blocks, before the follower streamed the corpus:
//!
//! | step                       | clone per epoch | left-right pair |
//! |----------------------------|-----------------|-----------------|
//! | sweep / finalize the batch | 2.9–4.1 / 2.0–2.6 | 2.1–3.2 / 1.6–2.3 |
//! | fold the delta             | 1.1–1.7         | 2.0–3.5 (twice) + 0.3–0.5 (its clone) |
//! | clone the state            | 6.4–9.8 (EOS ¾) | 0.01–0.03 (first epoch) |
//! | free the retired snapshot  | 3.0–4.6         | —               |
//! | `follow_merge` (`--timings`) | 8.8–17.3      | 5.9–9.4         |
//!
//! No span nests in `follow_merge`, so its `--timings` self time is its wall
//! time; the pair's figure is 5 runs on a 2-vCPU Intel Xeon host. Streaming
//! the 11 segments of that corpus costs `archive_replay` 6.2–6.4 ms (decode
//! and parse, once each; 8.6 ms for the held cold start's replay) and
//! moves `follow_advance`'s own time from 0.4 to 1.1–1.6 ms: it frees each
//! segment's blocks as the batches leave it.
//!
//! # The reorg guard
//!
//! [`Follower::with_reorg_guard`] adds what it takes to detect and recover
//! from a chain reorganization, as one log:
//!
//! - **Marks are position-keyed.** Each advanced batch seals one mark: the
//!   offset it ended at and, per chain, a content hash of the blocks at its
//!   positions (clamped to the chain's length: an exhausted chain's range
//!   is empty and hashes to a constant). Mark `i` covers positions
//!   `[marks[i - 1].end, marks[i].end)` of every chain.
//! - **Ring entries are the published snapshots**: `(offset, ChainSweeps)`,
//!   the very `Arc` the epoch's fork carries (retaining one costs memory
//!   and the pair's reclaim, not a second clone), the newest `window` of
//!   them. Marks and ring are written after the fold and never read by it,
//!   so a guarded follower publishes byte-identical epochs to an unguarded
//!   one; a failed `advance` folds and seals nothing.
//! - [`Follower::resync`] re-verifies the marks against the chains' current
//!   content, each chain up to its first disagreement; the earliest is the
//!   divergence. It restores the ring entry of the last agreeing mark — or
//!   empty sweeps when that entry has left the window (a rebuild) — adopts
//!   the new dataset and resumes from there.
//!
//! **Who constructs the guard:** `follow` (window = `--snapshots`), whose
//! `--reorg-at-batch` is the only reorg source there is. `serve` must not:
//! nothing can hand it a reorged chain, and a scratch probe read 23–25 ms
//! to content-hash every small-preset block once against 14–21 ms for the
//! whole catch-up (0.9–1.0 s against 0.5–0.75 s at paper scale), and eight
//! retained `ChainSweeps` at head as +4.4 MB on a 13.7 MB small `serve`
//! (+49 MB paper) — outside the benchmark's bounds on `follow_catchup` and
//! `serve_refresh`. Unguarded, no block is hashed and nothing retained.
//!
//! # The follow session
//!
//! [`follow_session`] is `reproduce follow`: the follower `serve` runs,
//! with its reorg guard on (one content mark per batch, the newest
//! `--snapshots` states kept for rollback). `--reorg-at-batch R` rewrites
//! the last `--reorg-depth` positions of every chain after batch R; the
//! run fails unless the recovered report is byte-identical to a
//! from-scratch sweep. `--archive DIR` persists the followed corpus:
//! cold-start from it when it exists, create it otherwise (once every flag
//! has been validated), seal each batch — coalescing a runt tail up to
//! `--segment-blocks` (default: the batch size, or the corpus's geometry) —
//! and on reorg truncate + re-seal only the disagreeing segment suffix; the
//! run fails unless the re-opened archive replays byte-identical to the
//! followed chains.

use crate::archive_io::{segment_chains, segments_of_from, ReplayedChains};
use crate::exhibits::render_report;
use crate::pipeline::{
    check_segment_blocks, create_archive_writer, pipeline_from_archive, run_of, Chains, MemoStatus,
    PipelineData,
};
use crate::Manifest;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use txstat_archive::{Archive, ArchiveWriter};
use txstat_core::{ChainSweeps, EosSweep, TezosSweep, XrpSweep};
use txstat_ingest::{reduce::CHAINS, IngestError, RangeFold};
use txstat_telemetry::{cpus, join, par_map, Counter, Gauge, Histogram, Registry, Span};
use txstat_types::ids::{fnv1a64, fnv1a64_extend};

/// Snapshots a reorg guard retains by default: a reorg within the last
/// `window` batches rolls back surgically, a deeper one rebuilds.
pub const DEFAULT_SNAPSHOT_WINDOW: usize = 8;

/// The ingest / reduce / epoch families every [`Follower::advance`] moves
/// and the three rollback families a [`Follower::resync`] moves.
struct FollowMetrics {
    observed: [Arc<Counter>; 3],
    merges: Arc<Counter>,
    merge_us: Arc<Histogram>,
    published: Arc<Counter>,
    /// By [`Follower::snapshots`] index: `[reclaimed, cloned]`.
    snapshots: [Arc<Counter>; 2],
    publish_latency_us: Arc<Histogram>,
    batch_lag: Arc<Gauge>,
    rollbacks: [Arc<Counter>; 3],
    invalidated: [Arc<Counter>; 3],
    rebuilds: [Arc<Counter>; 3],
}

impl FollowMetrics {
    fn bind(registry: &Registry) -> Self {
        let per_chain = |name: &str, help: &str| {
            CHAINS.map(|chain| registry.counter_with(name, help, &[("chain", chain)]))
        };
        FollowMetrics {
            observed: per_chain(
                "txstat_ingest_blocks_observed_total",
                "Blocks swept by the follow loop",
            ),
            merges: registry.counter(
                "txstat_reduce_follow_merges_total",
                "Batch deltas folded into the follow loop's standing sweeps",
            ),
            merge_us: registry.histogram(
                "txstat_reduce_merge_us",
                "Wall time finalizing a batch delta and folding it into the next epoch's snapshot",
            ),
            published: registry.counter(
                "txstat_epoch_published_total",
                "Epoch datasets forked for publication",
            ),
            snapshots: ["reclaimed", "cloned"].map(|source| {
                registry.counter_with(
                    "txstat_epoch_snapshots_total",
                    "Epoch snapshots built on the reclaimed retired copy or a clone of the front",
                    &[("source", source)],
                )
            }),
            publish_latency_us: registry.histogram(
                "txstat_epoch_publish_latency_us",
                "Wall time of one follow advance (sweep batch + fold delta + fork)",
            ),
            batch_lag: registry.gauge(
                "txstat_epoch_batch_lag_blocks",
                "Blocks between the follow offset and the chain heads",
            ),
            rollbacks: per_chain(
                "txstat_follow_rollbacks_total",
                "Reorg rollbacks performed by follow resync",
            ),
            invalidated: per_chain(
                "txstat_follow_marks_invalidated_total",
                "Sealed range marks invalidated by chain divergence",
            ),
            rebuilds: per_chain(
                "txstat_follow_rebuilds_total",
                "Follow resyncs that reset to empty sweeps (reorg deeper than the snapshot window)",
            ),
        }
    }
}

/// One run of each chain's blocks, in [`CHAINS`] order: the blocks a batch
/// folds from one source (the held chains, or one corpus segment).
type Run<'a> = (
    &'a [txstat_eos::Block],
    &'a [txstat_tezos::TezosBlock],
    &'a [txstat_xrp::LedgerBlock],
);

/// The high-water marks (per chain, the number of the last block folded)
/// after `runs`, once every block in them is known to be strictly above
/// its predecessor — for a run's first, the mark the run before it left,
/// whichever source the runs came from. A block at or below it would be
/// counted twice.
fn above_high_water(
    mut high: [Option<u64>; 3],
    runs: &[Run<'_>],
) -> Result<[Option<u64>; 3], IngestError> {
    fn rise<B>(high: &mut Option<u64>, run: &[B], num: fn(&B) -> u64) -> Result<(), IngestError> {
        for n in run.iter().map(num) {
            match *high {
                Some(high) if n <= high => return Err(IngestError::RangeRegression { n, high }),
                _ => *high = Some(n),
            }
        }
        Ok(())
    }
    for (eos, tezos, xrp) in runs {
        rise(&mut high[0], eos, |b| b.num)?;
        rise(&mut high[1], tezos, |b| b.level)?;
        rise(&mut high[2], xrp, |b| b.index)?;
    }
    Ok(high)
}

/// The high-water marks of a follower resuming at `offset` of `data`: the
/// number of each chain's block just before it, `None` at offset 0 (and
/// for a streamed dataset, whose follower only ever resumes there).
fn high_water_at(data: &PipelineData, offset: usize) -> [Option<u64>; 3] {
    fn last<B>(blocks: &[B], offset: usize, num: fn(&B) -> u64) -> Option<u64> {
        blocks[..offset.min(blocks.len())].last().map(num)
    }
    [
        last(&data.eos_blocks, offset, |b| b.num),
        last(&data.tezos_blocks, offset, |b| b.level),
        last(&data.xrp_blocks, offset, |b| b.index),
    ]
}

/// Where a follower's blocks come from.
enum Source {
    /// The dataset's own chain vectors, and the reorg guard over them if
    /// one was asked for.
    Held(Option<ReorgGuard>),
    /// The segments of the corpus a block-free dataset streams from
    /// ([`crate::streamed_from_archive`]). No guard can be put over them.
    Streamed(SegmentWindow),
}

impl Source {
    fn of(data: &PipelineData) -> Source {
        match data.corpus() {
            Some(corpus) => Source::Streamed(SegmentWindow {
                corpus: Arc::clone(corpus),
                first: 0,
                decoded: VecDeque::new(),
            }),
            None => Source::Held(None),
        }
    }
}

/// A decoded segment of a streamed follower's window, or why it did not
/// decode.
type Decoded = Result<ReplayedChains, String>;

/// The decoded segments of a streamed follower's corpus that its batches
/// have reached and not yet left: segment `first + k` is `decoded[k]`.
struct SegmentWindow {
    corpus: Arc<Archive>,
    first: usize,
    decoded: VecDeque<Decoded>,
}

impl SegmentWindow {
    /// Make the window hold every segment positions `[lo, hi)` overlap
    /// (found through [`Archive::covering`]). The segments before them
    /// leave it and are returned, for the caller to free; on a miss the
    /// next [`cpus`] segments — at least every one the batch overlaps — are
    /// decoded at once through [`par_map`].
    fn reach(&mut self, lo: u64, hi: u64) -> Vec<Decoded> {
        let (a, b) = self.corpus.covering(lo, hi);
        let left: Vec<Decoded> = self
            .decoded
            .drain(..a.saturating_sub(self.first).min(self.decoded.len()))
            .collect();
        self.first = if self.decoded.is_empty() {
            a
        } else {
            self.first + left.len()
        };
        let held = self.first + self.decoded.len();
        if held < b {
            let missed: Vec<usize> =
                (held..b.max(held + cpus()).min(self.corpus.segments().len())).collect();
            let corpus = &self.corpus;
            self.decoded
                .extend(par_map(&missed, |&i| segment_chains(corpus, i)));
        }
        left
    }

    /// The segments past the window that positions `[lo, hi)` overlap.
    fn ahead(&self, lo: u64, hi: u64) -> std::ops::Range<usize> {
        let held = self.first + self.decoded.len();
        held..self.corpus.covering(lo, hi).1.max(held)
    }

    /// The runs of positions `[lo, hi)`, one per segment they overlap,
    /// which [`SegmentWindow::reach`] has brought into the window. A
    /// segment among them that does not decode is [`IngestError::Source`].
    fn runs(&self, lo: u64, hi: u64) -> Result<Vec<Run<'_>>, IngestError> {
        let (a, b) = self.corpus.covering(lo, hi);
        (a..b)
            .map(|i| {
                let m = self.corpus.segments()[i];
                let (eos, tezos, xrp) = self.decoded[i - self.first]
                    .as_ref()
                    .map_err(|e| IngestError::Source(e.clone()))?;
                let (from, to) = (lo.max(m.start) - m.start, hi.min(m.end) - m.start);
                Ok((
                    run_of(eos, from, to),
                    run_of(tezos, from, to),
                    run_of(xrp, from, to),
                ))
            })
            .collect()
    }
}

/// One sealed batch: the offset it ended at and, per chain `[eos, tezos,
/// xrp]`, the content hash of the blocks at its positions.
struct Mark {
    end: usize,
    hashes: [u64; 3],
}

/// What a guarded follower keeps to detect and recover from a reorg.
struct ReorgGuard {
    window: usize,
    marks: Vec<Mark>,
    /// `(offset, the sweeps published there)` of the newest `window`
    /// batches, shared with the epochs' forks.
    ring: VecDeque<(usize, Arc<ChainSweeps>)>,
}

/// Content hash over the wire bytes (what Figure 2 accounts and the
/// archive verifies: any observable change to a block changes them) of the
/// blocks at positions `[lo, hi)` of one chain, by its [`CHAINS`] index.
fn range_hash(data: &PipelineData, chain: usize, lo: usize, hi: usize) -> u64 {
    fn of<B>(blocks: &[B], lo: usize, hi: usize, wire_into: impl Fn(&B, &mut Vec<u8>)) -> u64 {
        let mut wire = Vec::new();
        run_of(blocks, lo as u64, hi as u64)
            .iter()
            .fold(fnv1a64(b"range"), |h, b| {
                wire.clear();
                wire_into(b, &mut wire);
                fnv1a64_extend(h, &wire)
            })
    }
    match chain {
        0 => of(
            &data.eos_blocks,
            lo,
            hi,
            txstat_eos::rpc_model::block_bytes_into,
        ),
        1 => of(
            &data.tezos_blocks,
            lo,
            hi,
            txstat_tezos::rpc_model::block_bytes_into,
        ),
        _ => of(
            &data.xrp_blocks,
            lo,
            hi,
            txstat_xrp::rpc_model::ledger_bytes_into,
        ),
    }
}

/// Outcome of a [`Follower::resync`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resync {
    /// Leading marks that still match every chain's current content.
    pub agreed: usize,
    /// Marks past the divergence (0 = no reorg seen).
    pub invalidated: usize,
    /// Leading marks that still match, per chain `[eos, tezos, xrp]`: all of
    /// them for a chain the reorg did not reach.
    pub agreed_by_chain: [usize; 3],
    /// True when no snapshot at the divergence was left in the window and
    /// the follower reset to empty sweeps (full re-sweep ahead).
    pub rebuilt: bool,
    /// The offset the follower resumes from.
    pub resume: usize,
}

/// Replays the chains batch by batch and forks one immutable dataset per
/// batch for publication — see the module docs.
pub struct Follower {
    data: PipelineData,
    source: Source,
    /// Per chain, the number of the last block folded: every block the
    /// next advance folds must be above it.
    high: [Option<u64>; 3],
    /// The epoch last published: everything observed so far.
    front: Arc<ChainSweeps>,
    /// The epoch published before `front` and the one delta it lacks: the
    /// copy the next epoch is folded into if nothing else holds it by then.
    back: Option<(Arc<ChainSweeps>, ChainSweeps)>,
    /// Epochs built on `[a reclaimed back copy, a clone of the front]`.
    snapshots: [u64; 2],
    /// The chains whose sweeps the last advance changed.
    moved: Chains,
    offset: usize,
    batch: usize,
    metrics: Option<FollowMetrics>,
}

fn empty_sweeps(data: &PipelineData) -> Arc<ChainSweeps> {
    let period = data.scenario.period;
    Arc::new(ChainSweeps {
        eos: EosSweep::new(period),
        tezos: TezosSweep::new(period, data.governance_periods.clone()),
        xrp: XrpSweep::new(period),
    })
}

/// One chain's share of an epoch's `follow_merge`, under that chain's
/// span: finalize the batch's delta, bring the retired copy level with the
/// front (or, when `back` is `None`, clone the front) and fold the delta
/// in. Returns the new sweep and the delta, which the retired copy will be
/// owed.
fn fold_chain<S: Clone>(
    chain: &'static str,
    back: Option<(S, S)>,
    front: &S,
    finalize: impl FnOnce() -> S,
    merge: fn(&mut S, S),
) -> (S, S) {
    let _span = Span::enter("follow_merge", chain);
    let delta = finalize();
    let mut sweep = match back {
        Some((mut retired, owed)) => {
            merge(&mut retired, owed);
            retired
        }
        None => front.clone(),
    };
    merge(&mut sweep, delta.clone());
    (sweep, delta)
}

impl Follower {
    /// `batch` blocks per chain per epoch, from `data`'s own chains or, for
    /// a [`crate::streamed_from_archive`] dataset, from its corpus's
    /// segments.
    pub fn new(data: PipelineData, batch: usize) -> Self {
        Follower {
            front: empty_sweeps(&data),
            source: Source::of(&data),
            high: [None; 3],
            data,
            back: None,
            snapshots: [0; 2],
            moved: Chains::ALL,
            offset: 0,
            batch: batch.max(1),
            metrics: None,
        }
    }

    /// Seal a content mark per batch and retain the newest `window`
    /// snapshots for [`Follower::resync`] — only for a caller that can meet
    /// a reorg (see the module docs).
    ///
    /// # Panics
    ///
    /// Over a streamed dataset: marks hash the held blocks, and a resync
    /// re-reads them.
    pub fn with_reorg_guard(mut self, window: usize) -> Self {
        let Source::Held(guard) = &mut self.source else {
            panic!("a reorg guard needs held blocks, not a streamed corpus");
        };
        *guard = Some(ReorgGuard {
            window: window.max(1),
            marks: Vec::new(),
            ring: VecDeque::new(),
        });
        self
    }

    /// Export through `registry`: per-chain observed block counters, fold
    /// count/latency, epoch publication and `txstat_follow_*` rollbacks.
    pub fn bind_metrics(&mut self, registry: &Registry) {
        self.metrics = Some(FollowMetrics::bind(registry));
    }

    /// The base dataset the follower replays (no sweeps; full chains, or
    /// none when it streams a corpus).
    pub fn base(&self) -> &PipelineData {
        &self.data
    }

    /// Block positions of every chain observed so far.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// True once every chain has been observed to its head.
    pub fn head(&self) -> bool {
        self.offset >= self.data.longest_chain()
    }

    /// Blocks observed so far per chain `(eos, tezos, xrp)`.
    pub fn observed(&self) -> (u64, u64, u64) {
        let [eos, tezos, xrp] = self.data.lens().map(|len| len.min(self.offset as u64));
        (eos, tezos, xrp)
    }

    /// `(marks, ring entries)` the reorg guard holds; `(0, 0)` without one.
    pub fn retained(&self) -> (usize, usize) {
        match &self.source {
            Source::Held(Some(g)) => (g.marks.len(), g.ring.len()),
            _ => (0, 0),
        }
    }

    /// Epochs so far built `(on the reclaimed back copy, on a clone of the
    /// front because something still held the back copy)`.
    pub fn snapshots(&self) -> (u64, u64) {
        (self.snapshots[0], self.snapshots[1])
    }

    /// The chains the last [`Follower::advance`] observed blocks of: its
    /// fork's sweeps differ from the previous fork's in these chains only.
    /// All three before the first advance and for the first advance after
    /// a [`Follower::resync`] that rolled back, whose fork is not the
    /// previous fork and a batch.
    pub(crate) fn moved(&self) -> Chains {
        self.moved
    }

    /// Observe the next batch of each chain and fork the dataset at the
    /// new coverage. The fork shares every heavy input with the base by
    /// `Arc`; only the installed sweeps differ (past the head, not even
    /// those). On `Err` nothing was folded: the previous epoch still stands.
    pub fn advance(&mut self) -> Result<PipelineData, IngestError> {
        let _span = Span::enter("follow_advance", "");
        let started = Instant::now();
        let lo = self.offset;
        let longest = self.data.longest_chain();
        let hi = (lo + self.batch).min(longest);
        let epoch = match &mut self.source {
            Source::Held(_) => self.fold_batch(lo, hi),
            Source::Streamed(window) => {
                let left = window.reach(lo as u64, hi as u64);
                let ahead = match cpus() {
                    1 => 0..0,
                    _ => window.ahead(hi as u64, (hi + self.batch).min(longest) as u64),
                };
                if ahead.is_empty() {
                    drop(left);
                    self.fold_batch(lo, hi)
                } else {
                    // A second CPU frees the segments the batch has left and
                    // decodes those the next batch reaches beside the fold,
                    // so that batch finds them in the window.
                    let corpus = Arc::clone(&window.corpus);
                    let (epoch, decoded) = join(
                        || self.fold_batch(lo, hi),
                        move || {
                            drop(left);
                            ahead
                                .map(|i| segment_chains(&corpus, i))
                                .collect::<Vec<_>>()
                        },
                    );
                    if let Source::Streamed(window) = &mut self.source {
                        window.decoded.extend(decoded);
                    }
                    epoch
                }
            }
        };
        if let (Ok(_), Some(m)) = (&epoch, &self.metrics) {
            m.publish_latency_us.record(started.elapsed());
        }
        epoch
    }

    /// Fold the blocks at positions `[lo, hi)` into the next epoch and fork
    /// it (see [`Follower::advance`]); a streamed follower's window already
    /// holds their segments.
    fn fold_batch(&mut self, lo: usize, hi: usize) -> Result<PipelineData, IngestError> {
        let data = &self.data;
        let runs = match &self.source {
            Source::Held(_) => vec![(
                run_of(&data.eos_blocks, lo as u64, hi as u64),
                run_of(&data.tezos_blocks, lo as u64, hi as u64),
                run_of(&data.xrp_blocks, lo as u64, hi as u64),
            )],
            Source::Streamed(window) => window.runs(lo as u64, hi as u64)?,
        };
        let high = above_high_water(self.high, &runs)?;

        let mut fold = RangeFold::new(data.scenario.period, data.governance_periods.clone());
        for (eos, tezos, xrp) in &runs {
            fold.sweep(eos, tezos, xrp, &data.oracle);
        }
        drop(runs);
        let RangeFold {
            eos,
            tezos,
            xrp,
            blocks: swept,
        } = fold;

        // No back copy: this is the first epoch, or the first after a
        // resync rolled back, and the fork is not the last one and a batch.
        let moved = match self.back {
            None => Chains::ALL,
            Some(_) => Chains::flagged(swept.map(|n| n > 0)),
        };
        let merge_started = Instant::now();
        let source = {
            let _span = Span::enter("follow_merge", "");
            // The retired epoch's copy and the delta it is owed — never
            // waited for: while anything else holds it, the front is cloned.
            let back = self
                .back
                .take()
                .and_then(|(retired, owed)| Some((Arc::try_unwrap(retired).ok()?, owed)));
            let source = usize::from(back.is_none());
            let (eos_back, tezos_back, xrp_back) = match back {
                Some((r, o)) => (
                    Some((r.eos, o.eos)),
                    Some((r.tezos, o.tezos)),
                    Some((r.xrp, o.xrp)),
                ),
                None => (None, None, None),
            };
            let front = &self.front;
            let (eos, eos_delta) = fold_chain(
                "eos",
                eos_back,
                &front.eos,
                || eos.finalize(),
                EosSweep::merge,
            );
            let (tezos, tezos_delta) = fold_chain(
                "tezos",
                tezos_back,
                &front.tezos,
                || tezos.finalize(),
                TezosSweep::merge,
            );
            let (xrp, xrp_delta) = fold_chain(
                "xrp",
                xrp_back,
                &front.xrp,
                || xrp.finalize(),
                XrpSweep::merge,
            );
            let retired =
                std::mem::replace(&mut self.front, Arc::new(ChainSweeps { eos, tezos, xrp }));
            let delta = ChainSweeps {
                eos: eos_delta,
                tezos: tezos_delta,
                xrp: xrp_delta,
            };
            self.back = Some((retired, delta));
            source
        };
        self.snapshots[source] += 1;
        self.moved = moved;
        self.offset = hi;
        self.high = high;
        if let Source::Held(Some(g)) = &mut self.source {
            if hi > lo {
                let _span = Span::enter("follow_mark", "");
                let hashes = std::array::from_fn(|chain| range_hash(&self.data, chain, lo, hi));
                g.marks.push(Mark { end: hi, hashes });
                g.ring.push_back((hi, Arc::clone(&self.front)));
                if g.ring.len() > g.window {
                    g.ring.pop_front();
                }
            }
        }
        if let Some(m) = &self.metrics {
            for (counter, n) in m.observed.iter().zip(swept) {
                counter.add(n);
            }
            m.merges.inc();
            m.merge_us.record(merge_started.elapsed());
            m.published.inc();
            m.snapshots[source].inc();
            m.batch_lag
                .set((self.data.longest_chain() - self.offset) as u64);
        }
        Ok(self.data.fork_sharing(Arc::clone(&self.front)))
    }

    /// The chains were re-read and may have reorganized: re-verify the marks
    /// against `current`'s content, roll the front back to the newest
    /// snapshot every chain still agrees with (to empty when it has left the
    /// window), forget the back copy — the delta it is owed belongs to the
    /// abandoned history — and adopt `current` as the base to resume over.
    /// Without a guard nothing can be verified: the follower starts over,
    /// from `current`'s own chains or its corpus. Either way the high-water
    /// marks are reset to `current`'s blocks before the resume offset.
    pub fn resync(&mut self, current: PipelineData) -> Resync {
        let marks = match &self.source {
            Source::Held(Some(g)) => &g.marks[..],
            _ => &[][..],
        };
        let agreed_by_chain: [usize; 3] = std::array::from_fn(|chain| {
            let mut lo = 0;
            marks
                .iter()
                .take_while(|m| {
                    let agrees = range_hash(&current, chain, lo, m.end) == m.hashes[chain];
                    lo = m.end;
                    agrees
                })
                .count()
        });
        let sealed = marks.len();
        let agreed = agreed_by_chain.into_iter().min().unwrap_or(0);
        // The front can be trusted only up to the offset the agreeing marks
        // cover.
        let covered = agreed.checked_sub(1).map_or(0, |i| marks[i].end);
        let mut rebuilt = false;
        if covered != self.offset {
            let snapshot = match &mut self.source {
                // Keep what still agrees — nothing when the snapshot there
                // has left the window (or the very first batch diverged).
                Source::Held(Some(g)) => {
                    let at = g.ring.iter().position(|(at, _)| *at == covered);
                    g.ring.truncate(at.map_or(0, |i| i + 1));
                    g.marks.truncate(at.map_or(0, |_| agreed));
                    g.ring.back().map(|(_, sweeps)| Arc::clone(sweeps))
                }
                _ => None,
            };
            rebuilt = snapshot.is_none();
            (self.front, self.offset) =
                snapshot.map_or_else(|| (empty_sweeps(&current), 0), |sweeps| (sweeps, covered));
            self.back = None;
        }
        if let Some(m) = &self.metrics {
            for (chain, agreed) in agreed_by_chain.into_iter().enumerate() {
                if agreed < sealed {
                    m.rollbacks[chain].inc();
                    m.invalidated[chain].add((sealed - agreed) as u64);
                    m.rebuilds[chain].add(rebuilt as u64);
                }
            }
        }
        // A guarded follower resumes over `current`'s held chains; any other
        // starts reading `current` afresh.
        if !matches!(self.source, Source::Held(Some(_))) || current.corpus().is_some() {
            self.source = Source::of(&current);
        }
        self.high = high_water_at(&current, self.offset);
        self.data = current;
        Resync {
            agreed,
            invalidated: sealed - agreed,
            agreed_by_chain,
            rebuilt,
            resume: self.offset,
        }
    }
}

/// Simulate a chain reorganization: every block at position `>= from` (in
/// every chain) gets its transaction content deterministically rewritten —
/// numbering and timestamps stay, history *content* diverges, exactly what
/// a competing fork looks like to a follower keyed on block positions.
///
/// The returned dataset has fresh (uncomputed) sweeps and facts — and no
/// tie to an archive's `archive.memo`, whose segments describe the old
/// history — so a from-scratch report over it reflects the reorged one.
pub fn reorg_data(data: &PipelineData, from: usize, seed: u64) -> PipelineData {
    use txstat_types::rng::subseed_n;
    // Drop the last or the first entry of a block's transaction list,
    // chosen by a seeded coin — either way the block's content (and hash)
    // changes whenever it has any transactions at all.
    fn mutate<T>(list: &mut Vec<T>, coin: u64) {
        if list.is_empty() {
            return;
        }
        if coin & 1 == 0 {
            list.pop();
        } else {
            list.remove(0);
        }
    }
    let mut eos = (*data.eos_blocks).clone();
    for (pos, b) in eos.iter_mut().enumerate().skip(from) {
        mutate(
            &mut b.transactions,
            subseed_n(seed, "reorg-eos", pos as u64),
        );
    }
    let mut tezos = (*data.tezos_blocks).clone();
    for (pos, b) in tezos.iter_mut().enumerate().skip(from) {
        mutate(
            &mut b.operations,
            subseed_n(seed, "reorg-tezos", pos as u64),
        );
    }
    let mut xrp = (*data.xrp_blocks).clone();
    for (pos, b) in xrp.iter_mut().enumerate().skip(from) {
        mutate(
            &mut b.transactions,
            subseed_n(seed, "reorg-xrp", pos as u64),
        );
    }
    data.with_chains(eos, tezos, xrp)
}

/// `--reorg-at-batch` with its `--reorg-depth` and `--reorg-seed`: after
/// batch `at_batch` (or at the head, whichever comes first), rewrite the
/// last `depth` followed positions of every chain with [`reorg_data`].
#[derive(Debug, Clone, Copy)]
pub struct Reorg {
    pub at_batch: usize,
    pub depth: usize,
    pub seed: u64,
}

/// `--archive DIR` of a follow session.
pub enum Corpus<'a> {
    /// No corpus at `DIR` yet: created once every flag has been checked.
    Create(&'a Path),
    /// The corpus the dataset was cold-started from: appended to.
    Resume(Archive),
}

/// What `reproduce follow` asks of a [`follow_session`]: one field per flag
/// (`reorg` holds three), named after it; the scenario flags chose the
/// dataset. `segment_blocks` defaults to the batch size, or to a resumed
/// corpus's own geometry.
pub struct FollowPlan<'a> {
    pub batch: usize,
    pub snapshots: usize,
    pub reorg: Option<Reorg>,
    pub archive: Option<Corpus<'a>>,
    pub segment_blocks: Option<u64>,
}

/// What a [`follow_session`] reached and proved.
pub struct Followed {
    /// The head epoch's report: `report`'s bytes over the followed (and
    /// possibly reorged) chains.
    pub report: String,
    /// The head epoch's `archive.memo` coverage.
    pub memo: Option<MemoStatus>,
    /// A reorg was injected, and the report is byte-identical to a
    /// from-scratch sweep of the reorged chains.
    pub reorg_verified: bool,
    /// The corpus's segment count, once it was proved to replay
    /// byte-identical to the followed chains.
    pub archive_segments: Option<usize>,
}

/// Follow `data` to its head in batches, a dashboard line per batch to
/// `progress` — see the module docs. `mode` names `data`'s scenario for
/// the manifest of a corpus created here. A divergent reorg recovery or
/// archive replay is an `Err`.
pub fn follow_session(
    data: PipelineData,
    mode: &str,
    plan: FollowPlan,
    mut progress: impl FnMut(String),
) -> Result<Followed, String> {
    let FollowPlan {
        batch,
        snapshots,
        mut reorg,
        archive,
        segment_blocks,
    } = plan;
    let segment_blocks = segment_blocks.map(check_segment_blocks).transpose()?;
    let creating = match &archive {
        Some(Corpus::Create(dir)) => format!("creating archive {} and ", dir.display()),
        _ => String::new(),
    };
    progress(format!(
        "{creating}following head in batches of {batch} blocks per chain…"
    ));
    // The reorg guard is on: this is the one session that can meet a reorg.
    let mut follower = Follower::new(data, batch).with_reorg_guard(snapshots);
    let batches = follower.base().longest_chain().div_ceil(follower.batch);
    if let Some(r) = reorg.filter(|r| r.at_batch > batches) {
        let at = r.at_batch;
        return Err(format!(
            "--reorg-at-batch {at}: the head is reached after {batches} batches"
        ));
    }
    let mut persist = archive
        .map(|corpus| FollowArchive::open(corpus, follower.base(), mode, segment_blocks, batch))
        .transpose()?;
    follower.bind_metrics(txstat_telemetry::registry());

    let mut scratch = None;
    let mut round = 0usize;
    let head = loop {
        let fork = {
            // One round: the follower's advance plus this batch's seal.
            let _span = Span::enter("follow_batch", "");
            let fork = follower.advance().map_err(|e| e.to_string())?;
            if let Some(p) = persist.as_mut() {
                p.seal_to(follower.base(), follower.offset())?;
            }
            fork
        };
        round += 1;
        let (sweeps, (eos, tezos, xrp)) = (fork.sweeps(), follower.observed());
        progress(format!(
            "batch {round:>4}: EOS {eos:>7} blocks ({:.2} tps) | \
             Tezos {tezos:>7} ({:.2} tps) | XRP {xrp:>7} ({:.2} tps)",
            sweeps.eos.tps(),
            sweeps.tezos.tps(),
            sweeps.xrp.tps(),
        ));
        if let Some(r) = reorg.take_if(|r| r.at_batch == round || follower.head()) {
            let from = follower.offset().saturating_sub(r.depth);
            let seed = r.seed;
            progress(format!(
                "injecting reorg: rewriting block positions {from}.. (seed {seed})"
            ));
            let reorged = reorg_data(follower.base(), from, seed);
            // From-scratch truth for the byte-identity check: the same
            // reorged chains, swept and summarized on their own.
            scratch = Some(reorged.unswept_twin());
            if let Some(p) = persist.as_mut() {
                let (dropped, kept) = p.reseal_from(&reorged, from)?;
                progress(format!(
                    "archive: reorg invalidated {dropped} segment(s); \
                     re-sealed from position {kept}"
                ));
            }
            let r = follower.resync(reorged);
            let [eos, tezos, xrp] = r.agreed_by_chain;
            progress(format!(
                "resync: {} mark(s) agreed (eos {eos}, tezos {tezos}, xrp {xrp}), \
                 {} invalidated{}; resuming at position {}",
                r.agreed,
                r.invalidated,
                if r.rebuilt {
                    " (rebuilt from scratch)"
                } else {
                    ""
                },
                r.resume,
            ));
            // No break: a resync that changed nothing still republishes
            // over the adopted chains.
        } else if follower.head() {
            break fork;
        }
    };

    // The last epoch covers the whole (possibly reorged) chains: its report
    // is identical to `report`'s, unless its facts failed.
    let report = render_report(&head);
    head.check_facts()?;
    if scratch
        .as_ref()
        .is_some_and(|scratch| report != render_report(scratch))
    {
        return Err(
            "reorg recovery diverged: the followed report is not byte-identical \
                    to a from-scratch sweep of the reorged chain"
                .to_owned(),
        );
    }
    let archive_segments = persist.map(|p| p.finish(&head)).transpose()?;
    Ok(Followed {
        report,
        memo: head.memo_status(),
        reorg_verified: scratch.is_some(),
        archive_segments,
    })
}

/// The persistence half of `follow --archive`: seals the block positions a
/// follower has observed into a corpus, batch by batch, and proves at the
/// end that the corpus replays what was followed.
struct FollowArchive {
    writer: ArchiveWriter,
    seg_blocks: u64,
}

impl FollowArchive {
    /// Create an empty corpus for `data`'s scenario, sealed in segments of
    /// `seg_blocks` positions (default: `batch`), or keep appending after
    /// the last sealed segment of a cold-started one (default: its own
    /// segment geometry).
    fn open(
        corpus: Corpus,
        data: &PipelineData,
        mode: &str,
        seg_blocks: Option<u64>,
        batch: usize,
    ) -> Result<Self, String> {
        let (writer, seg_blocks) = match corpus {
            Corpus::Create(dir) => {
                let seg_blocks = seg_blocks.unwrap_or(batch as u64);
                (
                    create_archive_writer(dir, data, mode, seg_blocks)?,
                    seg_blocks,
                )
            }
            Corpus::Resume(archive) => {
                let geometry = Manifest::parse(archive.manifest())?.segment_blocks;
                let dir = archive.dir().display().to_string();
                let writer = archive
                    .into_writer()
                    .map_err(|e| format!("archive {dir}: {e}"))?;
                (writer, seg_blocks.unwrap_or(geometry))
            }
        };
        Ok(FollowArchive { writer, seg_blocks })
    }

    /// Seal the observed-but-not-yet-archived positions up to `upto` of
    /// `data` as segments of `seg_blocks` positions; a no-op when the corpus
    /// already covers them. A runt tail — the previous seal's trailing
    /// segment spanning fewer than `seg_blocks` positions — is first dropped
    /// and re-sealed merged with the new batch (its blocks are still in
    /// `data`), so a batch smaller than the segment size coalesces instead
    /// of fragmenting the corpus into one segment per batch.
    fn seal_to(&mut self, data: &PipelineData, upto: usize) -> Result<(), String> {
        let upto = upto as u64;
        if upto <= self.writer.total_positions() {
            return Ok(());
        }
        let from = self
            .writer
            .reopen_tail_runt(self.seg_blocks)
            .map_err(|e| format!("archive coalesce: {e}"))?;
        for seg in segments_of_from(
            run_of(&data.eos_blocks, 0, upto),
            run_of(&data.tezos_blocks, 0, upto),
            run_of(&data.xrp_blocks, 0, upto),
            self.seg_blocks,
            from,
        ) {
            self.writer
                .append(&seg)
                .map_err(|e| format!("archive append: {e}"))?;
        }
        Ok(())
    }

    /// The corpus rolls back like the follower: a reorg rewrote positions
    /// `from..`, so only the segments reaching past `from` are dropped and
    /// the tail is re-sealed from the `reorged` chains, to their head.
    /// Returns how many segments were dropped and the position re-sealing
    /// started from.
    fn reseal_from(&mut self, reorged: &PipelineData, from: usize) -> Result<(usize, u64), String> {
        let dropped = self
            .writer
            .truncate_from(from as u64)
            .map_err(|e| format!("archive truncate: {e}"))?;
        let kept = self.writer.total_positions();
        self.seal_to(reorged, reorged.longest_chain())?;
        Ok((dropped, kept))
    }

    /// Seal the corpus index and prove the round trip: the re-opened
    /// archive must replay every chain byte-identical to what was
    /// `followed` (including any reorged suffix). Returns its segment
    /// count.
    fn finish(self, followed: &PipelineData) -> Result<usize, String> {
        self.writer
            .seal()
            .map_err(|e| format!("archive seal: {e}"))?;
        let dir = self.writer.dir();
        let (replayed, archive) = pipeline_from_archive(dir)?;
        if !chains_wire_identical(&replayed, followed) {
            return Err(format!(
                "archive verification diverged: {} does not replay byte-identical \
                 to the followed chains",
                dir.display()
            ));
        }
        Ok(archive.segments().len())
    }
}

/// Per-block wire-byte equality across all three chains (column decode
/// normalizes blocks exactly like the wire-JSON round trip, so the bytes,
/// not the structs, are what must agree).
fn chains_wire_identical(a: &PipelineData, b: &PipelineData) -> bool {
    fn same<B>(a: &[B], b: &[B], wire: impl Fn(&B) -> Vec<u8>) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| wire(x) == wire(y))
    }
    same(
        &a.eos_blocks,
        &b.eos_blocks,
        txstat_eos::rpc_model::block_bytes,
    ) && same(
        &a.tezos_blocks,
        &b.tezos_blocks,
        txstat_tezos::rpc_model::block_bytes,
    ) && same(
        &a.xrp_blocks,
        &b.xrp_blocks,
        txstat_xrp::rpc_model::ledger_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhibits::render_report;
    use crate::pipeline::{generate, streamed_from_archive, write_archive};
    use std::path::PathBuf;
    use txstat_workload::Scenario;

    const BATCH: usize = 400;

    /// The small seed-7 chains: EOS 576, Tezos 2 712, XRP 146 blocks.
    fn chains() -> PipelineData {
        generate(&Scenario::small(7))
    }

    /// A guarded follower over [`chains`], advanced `batches` times.
    fn followed(window: usize, batches: usize) -> Follower {
        let mut f = Follower::new(chains(), BATCH).with_reorg_guard(window);
        for _ in 0..batches {
            f.advance().expect("advance");
        }
        f
    }

    /// Follow on to the head; the report there must be the from-scratch
    /// report over `scratch`.
    fn assert_lands_on(f: &mut Follower, scratch: &PipelineData) {
        let mut fork = f.advance().expect("advance");
        while !f.head() {
            fork = f.advance().expect("advance");
        }
        assert!(
            render_report(&fork) == render_report(scratch),
            "followed report diverged"
        );
    }

    #[test]
    fn clean_resync_is_a_no_op() {
        let mut f = followed(4, 7);
        assert!(f.head());
        // Same content, re-read.
        let r = f.resync(reorg_data(f.base(), usize::MAX, 1));
        let want = Resync {
            agreed: 7,
            invalidated: 0,
            agreed_by_chain: [7; 3],
            rebuilt: false,
            resume: 2712,
        };
        assert_eq!(r, want);
        // Nor does republishing at the head seal an (empty) mark.
        f.advance().expect("advance at head");
        assert_eq!(f.retained(), (7, 4));
        assert!(f.head());
    }

    #[test]
    fn shallow_reorg_rolls_back_the_suffix_only() {
        let mut f = followed(4, 7);
        let reorged = reorg_data(f.base(), 2000, 3);
        let r = f.resync(reorg_data(f.base(), 2000, 3));
        assert_eq!((r.agreed, r.invalidated), (5, 2));
        assert!(!r.rebuilt, "divergence is inside the snapshot window");
        assert_eq!(r.resume, 2000, "resumes at the first invalidated mark");
        // The snapshot at 2000 and the one before it survive.
        assert_eq!(f.retained(), (5, 2));
        assert!(
            f.back.is_none(),
            "a delta of the abandoned history is still owed"
        );
        assert_lands_on(&mut f, &reorged);
    }

    #[test]
    fn deep_reorg_rebuilds_from_empty_sweeps() {
        let mut f = followed(2, 7); // tiny window
        let reorged = reorg_data(f.base(), 5, 3); // diverges in the very first batch
        let r = f.resync(reorg_data(f.base(), 5, 3));
        assert_eq!(
            (r.agreed, r.invalidated, r.rebuilt, r.resume),
            (0, 7, true, 0)
        );
        assert_eq!(f.retained(), (0, 0));
        assert!(
            f.back.is_none(),
            "a delta of the abandoned history is still owed"
        );
        assert_lands_on(&mut f, &reorged);
    }

    /// A reorg from position 700 is past EOS's head (576) and XRP's (146):
    /// their marks all still agree, only Tezos diverged — and only Tezos is
    /// counted as rolled back.
    #[test]
    fn a_reorg_past_a_short_chains_head_leaves_its_marks_agreeing() {
        let registry = Registry::new();
        let mut f = followed(8, 3);
        f.bind_metrics(&registry);
        let r = f.resync(reorg_data(f.base(), 700, 11));
        assert_eq!(r.agreed_by_chain, [3, 1, 3]);
        assert_eq!(
            (r.agreed, r.invalidated, r.rebuilt, r.resume),
            (1, 2, false, 400)
        );
        let metrics = registry.render_prometheus();
        for line in [
            "txstat_follow_rollbacks_total{chain=\"eos\"} 0",
            "txstat_follow_rollbacks_total{chain=\"tezos\"} 1",
            "txstat_follow_marks_invalidated_total{chain=\"tezos\"} 2",
            "txstat_follow_marks_invalidated_total{chain=\"xrp\"} 0",
            "txstat_follow_rebuilds_total{chain=\"tezos\"} 0",
        ] {
            assert!(metrics.contains(line), "no {line:?} in:\n{metrics}");
        }
    }

    #[test]
    fn a_failed_advance_leaves_the_previous_epoch_standing() {
        // EOS block 5 comes round again at the head of the second batch.
        let mut data = chains();
        let mut blocks = data.eos_blocks[..10].to_vec();
        blocks.push(blocks[4].clone());
        data.eos_blocks = Arc::new(blocks);
        let mut f = Follower::new(data, 10).with_reorg_guard(4);
        f.advance().expect("first batch is ascending");
        for _ in 0..2 {
            assert!(matches!(
                f.advance(),
                Err(IngestError::RangeRegression { .. })
            ));
            assert_eq!(
                (f.offset(), f.retained()),
                (10, (1, 1)),
                "a failed batch left a trace"
            );
            assert!(
                f.snapshots() == (0, 1) && f.back.is_some(),
                "a failed batch touched the pair"
            );
        }
        // The chain is re-read without the replay (the one mark still
        // agrees): the pair is as the first epoch left it, its owed delta
        // included, and following on lands on the one-shot bytes.
        let healed = || {
            let mut data = chains();
            data.eos_blocks = Arc::new(data.eos_blocks[..30].to_vec());
            data
        };
        let r = f.resync(healed());
        assert_eq!((r.agreed, r.invalidated, r.resume), (1, 0, 10));
        assert_lands_on(&mut f, &healed());
    }

    /// What `serve` does: each fork is swapped out of the cell by the next,
    /// and gone by the time the epoch after that is built, so only the
    /// first epoch has no retired copy to fold into.
    #[test]
    fn an_unread_follower_clones_only_its_first_epoch() {
        let registry = Registry::new();
        let mut f = Follower::new(chains(), BATCH);
        f.bind_metrics(&registry);
        let mut cell = f.advance().expect("advance");
        while !f.head() {
            cell = f.advance().expect("advance");
        }
        assert_eq!(f.snapshots(), (6, 1));
        assert!(render_report(&cell) == render_report(&chains()));
        let metrics = registry.render_prometheus();
        for line in [
            "txstat_epoch_snapshots_total{source=\"reclaimed\"} 6",
            "txstat_epoch_snapshots_total{source=\"cloned\"} 1",
            "txstat_epoch_published_total 7",
        ] {
            assert!(metrics.contains(line), "no {line:?} in:\n{metrics}");
        }
    }

    /// What `serve` runs: no block is hashed and no snapshot retained, so a
    /// resync has nothing to verify against and starts over.
    #[test]
    fn an_unguarded_follower_retains_nothing() {
        let mut f = Follower::new(chains(), BATCH);
        while !f.head() {
            f.advance().expect("advance");
        }
        assert_eq!(f.retained(), (0, 0));
        let r = f.resync(chains());
        assert_eq!(
            (r.agreed, r.invalidated, r.rebuilt, r.resume),
            (0, 0, true, 0)
        );
    }

    /// [`chains`] sealed at a fresh temporary directory in segments of
    /// `segment_blocks` positions.
    fn sealed(tag: &str, segment_blocks: u64) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("txstat-follow-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_archive(
            &dir,
            &chains(),
            "small",
            segment_blocks,
            crate::SegmentFormat,
        )
        .expect("seal");
        dir
    }

    /// A streamed follower holds only the segments its batch overlaps and
    /// those decoded ahead with them: on a miss, [`cpus`] segments (or the
    /// batch's own, when it overlaps more) past the one the batch shares
    /// with the last; with a second CPU, also the segments the next batch
    /// overlaps.
    #[test]
    fn a_streamed_follower_holds_one_window_of_segments() {
        let dir = sealed("window", 64);
        let cpus = cpus();
        for batch in [16, 64, 100, 300] {
            let (data, corpus) = streamed_from_archive(&dir).expect("streamed cold start");
            let mut f = Follower::new(data, batch);
            while !f.head() {
                let lo = f.offset() as u64;
                f.advance().expect("advance");
                let hi = f.offset() as u64;
                let (a, b) = corpus.covering(lo, hi);
                let next = match cpus {
                    1 => b,
                    _ => corpus.covering(hi, hi + batch as u64).1,
                };
                let Source::Streamed(window) = &f.source else {
                    panic!("a streamed dataset's follower reads its corpus");
                };
                let end = window.first + window.decoded.len();
                assert_eq!(window.first, a, "batch {batch} at {lo}");
                assert!(
                    b <= end && end <= next.max(b + cpus - 1),
                    "batch {batch} at {lo}: segments {a}..{end} held for {a}..{b}"
                );
            }
            assert!(render_report(&f.advance().expect("at head")) == render_report(&chains()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "a reorg guard needs held blocks")]
    fn a_streamed_follower_refuses_a_reorg_guard() {
        let dir = sealed("guard", 256);
        let (data, _) = streamed_from_archive(&dir).expect("streamed cold start");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = Follower::new(data, BATCH).with_reorg_guard(4);
    }
}
