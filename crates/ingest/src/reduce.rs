//! Distributed reduction: shard workers fold disjoint block ranges into
//! columnar accumulators and ship them as `txstat_wire` frames; a central
//! [`ReduceSession`] validates, remap-merges, and finalizes them into the
//! same [`ChainSweeps`] the in-process paths produce.
//!
//! ```text
//!   process 1: ShardWorker [0, a)   ──▶ frames ──┐
//!   process 2: ShardWorker [a, b)   ──▶ frames ──┼─▶ ReduceSession::submit
//!   process 3: ShardWorker [b, end) ──▶ frames ──┘      │ validate: schema
//!                                                       │ version, chain tag,
//!                                                       │ window, overlap, meta
//!                                                       ▼
//!                                    finalize(): merge in range order
//!                                    (Interner::absorb remap merges),
//!                                    resolve ids ──▶ ChainSweeps
//! ```
//!
//! Because every chain sweep is a commutative monoid and finalization
//! resolves interned ids by key (never by id order), the reduced report is
//! **bit-identical** to a single-process sweep over the whole range — the
//! property `tests/wire_reduce.rs` pins end to end across OS processes.
//!
//! The session is strict on anything that would silently corrupt a
//! reduction: unknown chain tags, schema-version skew, overlapping block
//! ranges, frames from different scenarios (`meta` mismatch), and
//! mismatched observation windows are all typed [`ReduceError`]s. Coverage
//! *gaps* are tracked per chain and surfaced at [`ReduceSession::finalize`].

use serde::Value;
use std::sync::{Arc, LazyLock};
use txstat_core::{ChainSweeps, EosColumnar, TezosColumnar, WireState, XrpColumnar};
use txstat_telemetry::{registry, Counter, Span};
use txstat_tezos::governance::PeriodKind;
use txstat_types::time::Period;
use txstat_wire::{ShardFrame, WireError, SCHEMA_VERSION};
use txstat_xrp::rates::RateOracle;

/// The chain tags a session accepts, in reduction order.
pub const CHAINS: [&str; 3] = ["eos", "tezos", "xrp"];

/// Failures of the distributed-reduction contract.
#[derive(Debug, Clone, PartialEq)]
pub enum ReduceError {
    /// The frame's schema version is not the one this reducer speaks.
    Version {
        chain: String,
        found: u32,
        expected: u32,
    },
    /// The frame's chain tag names no known accumulator.
    UnknownChain(String),
    /// The frame's block range is inverted.
    BadRange { chain: String, start: u64, end: u64 },
    /// The frame's block range overlaps one already reduced — accepting it
    /// would double-count.
    Overlap {
        chain: String,
        start: u64,
        end: u64,
        other_start: u64,
        other_end: u64,
    },
    /// The frame's provenance differs from the session's (different
    /// scenario, seed, or source).
    MetaMismatch { expected: Value, found: Value },
    /// The frame's accumulator observes a different window (or, for Tezos,
    /// different governance periods) than the session's.
    WindowMismatch { chain: String },
    /// The payload could not be decoded into the chain's accumulator.
    Payload { chain: String, error: String },
    /// The envelope itself was bad (surfaced when reading frame files).
    Wire(WireError),
    /// Finalize needs at least one frame for every chain.
    MissingChain(&'static str),
    /// The submitted ranges leave holes; reducing them would silently
    /// under-count. Each entry is one uncovered `[start, end)` hole.
    CoverageGap {
        chain: &'static str,
        gaps: Vec<(u64, u64)>,
    },
}

impl std::fmt::Display for ReduceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceError::Version { chain, found, expected } => {
                write!(f, "{chain}: frame schema version {found}, reducer speaks {expected}")
            }
            ReduceError::UnknownChain(c) => write!(f, "unknown chain tag {c:?}"),
            ReduceError::BadRange { chain, start, end } => {
                write!(f, "{chain}: inverted block range [{start}, {end})")
            }
            ReduceError::Overlap { chain, start, end, other_start, other_end } => write!(
                f,
                "{chain}: range [{start}, {end}) overlaps already-reduced [{other_start}, {other_end})"
            ),
            ReduceError::MetaMismatch { expected, found } => write!(
                f,
                "frame provenance mismatch: session reduces {expected:?}, frame carries {found:?}"
            ),
            ReduceError::WindowMismatch { chain } => {
                write!(f, "{chain}: frame observes a different window than the session")
            }
            ReduceError::Payload { chain, error } => write!(f, "{chain}: bad payload: {error}"),
            ReduceError::Wire(e) => write!(f, "wire: {e}"),
            ReduceError::MissingChain(c) => write!(f, "no frame submitted for chain {c}"),
            ReduceError::CoverageGap { chain, gaps } => {
                write!(f, "{chain}: uncovered block ranges {gaps:?}")
            }
        }
    }
}

impl std::error::Error for ReduceError {}

impl From<WireError> for ReduceError {
    fn from(e: WireError) -> Self {
        ReduceError::Wire(e)
    }
}

/// One accepted shard: its block range and decoded accumulator.
struct Pending<A> {
    start: u64,
    end: u64,
    acc: A,
}

/// Merge `pending` in ascending range order — the distributed analogue of
/// "merge shards in index order", so event-list state (e.g. governance
/// events) concatenates exactly like an in-process chunked sweep.
fn merge_pending<A>(mut pending: Vec<Pending<A>>, merge: impl Fn(&mut A, A)) -> A {
    pending.sort_by_key(|p| (p.start, p.end));
    let mut it = pending.into_iter();
    let mut acc = it.next().expect("caller checks non-empty").acc;
    for p in it {
        merge(&mut acc, p.acc);
    }
    acc
}

/// Interval bookkeeping over accepted `[start, end)` ranges of one chain.
#[derive(Default)]
struct Coverage {
    /// Non-empty accepted ranges, unordered.
    ranges: Vec<(u64, u64)>,
    /// Blocks the frames claim to have observed.
    observed: u64,
}

impl Coverage {
    fn check_overlap(&self, chain: &str, start: u64, end: u64) -> Result<(), ReduceError> {
        for &(s, e) in &self.ranges {
            if start < e && s < end {
                return Err(ReduceError::Overlap {
                    chain: chain.to_owned(),
                    start,
                    end,
                    other_start: s,
                    other_end: e,
                });
            }
        }
        Ok(())
    }

    fn accept(&mut self, start: u64, end: u64, observed: u64) {
        if end > start {
            self.ranges.push((start, end));
        }
        self.observed += observed;
    }

    /// The holes strictly inside the union's span, in ascending order.
    fn gaps(&self) -> Vec<(u64, u64)> {
        let mut sorted = self.ranges.clone();
        sorted.sort_unstable();
        sorted
            .windows(2)
            .filter(|w| w[0].1 < w[1].0)
            .map(|w| (w[0].1, w[1].0))
            .collect()
    }

    /// The covered span `[min start, max end)`, if any range was accepted.
    fn span(&self) -> Option<(u64, u64)> {
        let lo = self.ranges.iter().map(|r| r.0).min()?;
        let hi = self.ranges.iter().map(|r| r.1).max()?;
        Some((lo, hi))
    }
}

/// The wire-decode and reduce-session families. Built on first use;
/// building it registers all four at zero.
struct ReduceMetrics {
    payload_bytes: Arc<Counter>,
    /// `{format="v2_bin"}`, the one payload format.
    frames_decoded: Arc<Counter>,
    frames_submitted: Arc<Counter>,
    merges: Arc<Counter>,
}

static METRICS: LazyLock<ReduceMetrics> = LazyLock::new(|| {
    let reg = registry();
    ReduceMetrics {
        payload_bytes: reg.counter(
            "txstat_wire_payload_bytes_total",
            "Wire payload bytes decoded",
        ),
        frames_decoded: reg.counter_with(
            "txstat_wire_frames_decoded_total",
            "Wire frames decoded by payload format",
            &[("format", "v2_bin")],
        ),
        frames_submitted: reg.counter(
            "txstat_reduce_frames_submitted_total",
            "Frames submitted to reduce sessions",
        ),
        merges: reg.counter("txstat_reduce_merges_total", "Reduce sessions finalized"),
    }
});

/// Decode one frame's payload into its accumulator through the
/// `WireState` column decoder, which runs the accumulator's
/// id-bounds/arity validation.
fn decode_payload<A: WireState>(frame: &ShardFrame) -> Result<A, ReduceError> {
    let _span = Span::enter("reduce_decode", &frame.header.chain);
    METRICS.payload_bytes.add(frame.payload.len() as u64);
    METRICS.frames_decoded.inc();
    A::from_wire_bytes(&frame.payload).map_err(|e| ReduceError::Payload {
        chain: frame.header.chain.clone(),
        error: e.to_string(),
    })
}

/// A distributed reduction in progress: frames go in, one validated
/// [`ChainSweeps`] comes out.
///
/// The first accepted frame pins the session's provenance (`meta`) and,
/// per chain, the observation window; everything later must match.
#[derive(Default)]
pub struct ReduceSession {
    meta: Option<Value>,
    eos: Vec<Pending<EosColumnar>>,
    tezos: Vec<Pending<TezosColumnar>>,
    xrp: Vec<Pending<XrpColumnar>>,
    coverage: [Coverage; 3],
}

impl ReduceSession {
    pub fn new() -> Self {
        Self::default()
    }

    /// Validate one frame and stage its accumulator for the final merge.
    /// On `Err` the session is unchanged and stays usable.
    pub fn submit(&mut self, frame: &ShardFrame) -> Result<(), ReduceError> {
        let _span = Span::enter("reduce_submit", &frame.header.chain);
        METRICS.frames_submitted.inc();
        let h = &frame.header;
        let chain_idx = CHAINS
            .iter()
            .position(|c| *c == h.chain)
            .ok_or_else(|| ReduceError::UnknownChain(h.chain.clone()))?;
        if h.schema_version != SCHEMA_VERSION {
            return Err(ReduceError::Version {
                chain: h.chain.clone(),
                found: h.schema_version,
                expected: SCHEMA_VERSION,
            });
        }
        if h.start > h.end {
            return Err(ReduceError::BadRange {
                chain: h.chain.clone(),
                start: h.start,
                end: h.end,
            });
        }
        if let Some(meta) = &self.meta {
            if *meta != h.meta {
                return Err(ReduceError::MetaMismatch {
                    expected: meta.clone(),
                    found: h.meta.clone(),
                });
            }
        }
        self.coverage[chain_idx].check_overlap(&h.chain, h.start, h.end)?;
        if h.start == h.end {
            // An empty range (a worker clamped entirely past this chain's
            // head) carries the identity accumulator by construction, and
            // empty ranges are invisible to the overlap/coverage checks —
            // staging such a payload would let forged non-identity state
            // double-count silently. Validate provenance, merge nothing.
            if self.meta.is_none() {
                self.meta = Some(h.meta.clone());
            }
            return Ok(());
        }

        let window_err = || ReduceError::WindowMismatch {
            chain: h.chain.clone(),
        };
        match h.chain.as_str() {
            "eos" => {
                let acc: EosColumnar = decode_payload(frame)?;
                if self
                    .eos
                    .first()
                    .is_some_and(|p| p.acc.period() != acc.period())
                {
                    return Err(window_err());
                }
                self.eos.push(Pending {
                    start: h.start,
                    end: h.end,
                    acc,
                });
            }
            "tezos" => {
                let acc: TezosColumnar = decode_payload(frame)?;
                if self.tezos.first().is_some_and(|p| {
                    p.acc.period() != acc.period()
                        || p.acc.governance_windows() != acc.governance_windows()
                }) {
                    return Err(window_err());
                }
                self.tezos.push(Pending {
                    start: h.start,
                    end: h.end,
                    acc,
                });
            }
            "xrp" => {
                let acc: XrpColumnar = decode_payload(frame)?;
                if self
                    .xrp
                    .first()
                    .is_some_and(|p| p.acc.period() != acc.period())
                {
                    return Err(window_err());
                }
                self.xrp.push(Pending {
                    start: h.start,
                    end: h.end,
                    acc,
                });
            }
            _ => unreachable!("chain tag checked above"),
        }
        self.coverage[chain_idx].accept(h.start, h.end, h.blocks);
        if self.meta.is_none() {
            self.meta = Some(h.meta.clone());
        }
        Ok(())
    }

    /// The provenance pinned by the first accepted frame.
    pub fn meta(&self) -> Option<&Value> {
        self.meta.as_ref()
    }

    /// Blocks the accepted frames of `chain` claim to have observed.
    pub fn observed(&self, chain: &str) -> u64 {
        CHAINS
            .iter()
            .position(|c| *c == chain)
            .map_or(0, |i| self.coverage[i].observed)
    }

    /// The covered `[start, end)` span of `chain`, if any frame arrived.
    pub fn span(&self, chain: &str) -> Option<(u64, u64)> {
        CHAINS
            .iter()
            .position(|c| *c == chain)
            .and_then(|i| self.coverage[i].span())
    }

    /// The uncovered holes inside `chain`'s span, ascending. Empty means
    /// contiguous coverage.
    pub fn gaps(&self, chain: &str) -> Vec<(u64, u64)> {
        CHAINS
            .iter()
            .position(|c| *c == chain)
            .map_or_else(Vec::new, |i| self.coverage[i].gaps())
    }

    /// Merge everything and resolve into the scalar sweeps. Requires at
    /// least one frame per chain and gap-free coverage; merges run in
    /// ascending range order, so the result is bit-identical to a
    /// single-process sweep over the union of the ranges.
    pub fn finalize(self) -> Result<ChainSweeps, ReduceError> {
        let _span = Span::enter("reduce_finalize", "");
        METRICS.merges.inc();
        for (i, chain) in CHAINS.iter().enumerate() {
            let gaps = self.coverage[i].gaps();
            if !gaps.is_empty() {
                return Err(ReduceError::CoverageGap {
                    chain: CHAINS[i],
                    gaps,
                });
            }
            let present = match i {
                0 => !self.eos.is_empty(),
                1 => !self.tezos.is_empty(),
                _ => !self.xrp.is_empty(),
            };
            if !present {
                return Err(ReduceError::MissingChain(chain));
            }
        }
        Ok(ChainSweeps {
            eos: merge_pending(self.eos, |a, b| a.merge(b)).finalize(),
            tezos: merge_pending(self.tezos, |a, b| a.merge(b)).finalize(),
            xrp: merge_pending(self.xrp, |a, b| a.merge(b)).finalize(),
        })
    }
}

/// One shard worker's slice of the distributed sweep: fold the block
/// positions `[start, end)` (clamped to the chain head) of each chain into
/// a columnar accumulator and emit it as a wire frame.
///
/// `shards` in-process sub-accumulators fold residue classes of the slice
/// and merge in index order; by the merge laws the split is irrelevant to
/// the result.
#[derive(Debug, Clone)]
pub struct ShardWorker {
    /// Assigned block-position range `[start, end)`, end-exclusive,
    /// 0-based within each chain's block sequence.
    pub start: u64,
    pub end: u64,
    /// In-process sub-accumulator count (≥ 1).
    pub shards: usize,
    /// Provenance stamped into every emitted frame (scenario fingerprint,
    /// seed, …). A [`ReduceSession`] refuses to mix different values.
    pub meta: Value,
}

impl ShardWorker {
    pub fn new(start: u64, end: u64, meta: Value) -> Self {
        ShardWorker {
            start,
            end,
            shards: 1,
            meta,
        }
    }

    /// Fold the clamped range of one whole chain through `shards`
    /// accumulators under one `sweep` span labelled `chain`, merge in index
    /// order, and return the merged accumulator plus the clamped range and
    /// observed count.
    fn fold<B, A>(
        &self,
        chain: &str,
        blocks: &[B],
        identity: impl Fn() -> A,
        mut observe: impl FnMut(&mut A, &B),
        merge: impl Fn(&mut A, A),
    ) -> (A, u64, u64, u64) {
        let _span = Span::enter("sweep", chain);
        let len = blocks.len() as u64;
        let lo = self.start.min(len);
        let hi = self.end.min(len).max(lo);
        let shards = self.shards.max(1);
        let mut accs: Vec<A> = (0..shards).map(|_| identity()).collect();
        for (i, b) in blocks[lo as usize..hi as usize].iter().enumerate() {
            observe(&mut accs[i % shards], b);
        }
        let mut it = accs.into_iter();
        let mut acc = it.next().expect("at least one shard");
        for other in it {
            merge(&mut acc, other);
        }
        (acc, lo, hi, hi - lo)
    }

    /// Encode `acc`, folded over `blocks` blocks at positions
    /// `[start, end)` of `chain`, into a frame stamped with this worker's
    /// provenance, under one `wire_encode` span.
    pub fn frame<A: WireState>(
        &self,
        chain: &str,
        acc: &A,
        start: u64,
        end: u64,
        blocks: u64,
    ) -> ShardFrame {
        let columns = {
            let _span = Span::enter("wire_encode", chain);
            acc.to_wire_bytes()
        };
        ShardFrame::from_columns(chain, start, end, blocks, self.meta.clone(), columns)
    }

    /// Sweep the EOS chain's assigned range into an `"eos"` frame.
    pub fn eos_frame(&self, blocks: &[txstat_eos::Block], period: Period) -> ShardFrame {
        let (acc, s, e, n) = self.fold(
            "eos",
            blocks,
            || EosColumnar::new(period),
            |a, b| a.observe(b),
            |a, b| a.merge(b),
        );
        self.frame("eos", &acc, s, e, n)
    }

    /// Sweep the Tezos chain's assigned range into a `"tezos"` frame.
    pub fn tezos_frame(
        &self,
        blocks: &[txstat_tezos::TezosBlock],
        period: Period,
        periods: &[(PeriodKind, Period)],
    ) -> ShardFrame {
        let (acc, s, e, n) = self.fold(
            "tezos",
            blocks,
            || TezosColumnar::new(period, periods.to_vec()),
            |a, b| a.observe(b),
            |a, b| a.merge(b),
        );
        self.frame("tezos", &acc, s, e, n)
    }

    /// Sweep the XRP chain's assigned range into an `"xrp"` frame, valuing
    /// payments through `oracle` (every process derives the same oracle
    /// from the scenario).
    pub fn xrp_frame(
        &self,
        blocks: &[txstat_xrp::LedgerBlock],
        period: Period,
        oracle: &RateOracle,
    ) -> ShardFrame {
        let (acc, s, e, n) = self.fold(
            "xrp",
            blocks,
            || XrpColumnar::new(period),
            |a, b| a.observe(b, oracle),
            |a, b| a.merge(b),
        );
        self.frame("xrp", &acc, s, e, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use txstat_types::time::ChainTime;

    fn period() -> Period {
        Period::new(
            ChainTime::from_ymd(2019, 10, 1),
            ChainTime::from_ymd(2019, 10, 2),
        )
    }

    fn eos_frame(start: u64, end: u64, meta: Value) -> ShardFrame {
        let acc = EosColumnar::new(period());
        ShardFrame::from_columns("eos", start, end, end - start, meta, acc.to_wire_bytes())
    }

    #[test]
    fn rejects_unknown_chain_and_version_skew() {
        let mut s = ReduceSession::new();
        let mut f = eos_frame(0, 4, Value::Null);
        f.header.chain = "doge".into();
        assert!(matches!(s.submit(&f), Err(ReduceError::UnknownChain(_))));
        let mut f = eos_frame(0, 4, Value::Null);
        f.header.schema_version = 9;
        assert!(matches!(
            s.submit(&f),
            Err(ReduceError::Version { found: 9, .. })
        ));
        // The retired schema 1 is skew like any other.
        f.header.schema_version = 1;
        assert!(matches!(
            s.submit(&f),
            Err(ReduceError::Version { found: 1, .. })
        ));
    }

    #[test]
    fn rejects_overlap_and_meta_drift_tracks_gaps() {
        let meta = json!({"scenario": "s"});
        let mut s = ReduceSession::new();
        s.submit(&eos_frame(0, 4, meta.clone()))
            .expect("first range");
        s.submit(&eos_frame(8, 10, meta.clone()))
            .expect("disjoint range");
        assert_eq!(s.gaps("eos"), vec![(4, 8)]);
        assert_eq!(s.span("eos"), Some((0, 10)));
        assert_eq!(s.observed("eos"), 6);
        let err = s.submit(&eos_frame(3, 6, meta.clone()));
        assert!(matches!(err, Err(ReduceError::Overlap { .. })), "{err:?}");
        let err = s.submit(&eos_frame(4, 8, json!({"scenario": "other"})));
        assert!(
            matches!(err, Err(ReduceError::MetaMismatch { .. })),
            "{err:?}"
        );
        // The failed submissions changed nothing.
        s.submit(&eos_frame(4, 8, meta))
            .expect("gap fill still fits");
        assert!(s.gaps("eos").is_empty());
    }

    #[test]
    fn finalize_requires_all_chains_and_contiguity() {
        let mut s = ReduceSession::new();
        s.submit(&eos_frame(0, 2, Value::Null)).expect("frame fits");
        s.submit(&eos_frame(6, 8, Value::Null)).expect("frame fits");
        assert!(matches!(
            s.finalize(),
            Err(ReduceError::CoverageGap { chain: "eos", .. })
        ));
        let mut s = ReduceSession::new();
        s.submit(&eos_frame(0, 2, Value::Null)).expect("frame fits");
        assert!(matches!(
            s.finalize(),
            Err(ReduceError::MissingChain("tezos"))
        ));
    }

    #[test]
    fn rejects_window_mismatch() {
        let mut s = ReduceSession::new();
        s.submit(&eos_frame(0, 2, Value::Null)).expect("frame fits");
        let other = Period::new(
            ChainTime::from_ymd(2019, 11, 1),
            ChainTime::from_ymd(2019, 11, 2),
        );
        let acc = EosColumnar::new(other);
        let f = ShardFrame::from_columns("eos", 2, 4, 2, Value::Null, acc.to_wire_bytes());
        assert!(matches!(
            s.submit(&f),
            Err(ReduceError::WindowMismatch { .. })
        ));
    }

    #[test]
    fn rejects_garbage_payload() {
        let mut s = ReduceSession::new();
        let f =
            ShardFrame::from_columns("eos", 0, 1, 1, Value::Null, b"{\"not\":\"state\"}".to_vec());
        assert!(matches!(s.submit(&f), Err(ReduceError::Payload { .. })));
    }

    #[test]
    fn empty_range_frames_cannot_smuggle_state() {
        use txstat_eos::name::Name;
        use txstat_eos::types::{Action, Block, Transaction};
        use txstat_types::amount::SymCode;

        let block = Block {
            num: 1,
            time: ChainTime::from_ymd(2019, 10, 1) + 60,
            producer: Name::new("bp"),
            transactions: vec![Transaction {
                id: 0,
                actions: vec![Action::token_transfer(
                    Name::new("eosio.token"),
                    Name::new("alice"),
                    Name::new("bob"),
                    SymCode::new("EOS"),
                    5,
                )],
                cpu_us: 100,
                net_bytes: 128,
            }],
        };
        let mut acc = EosColumnar::new(period());
        acc.observe(&block);
        let state = acc.to_wire_bytes();
        let legit = ShardFrame::from_columns("eos", 0, 1, 1, Value::Null, state.clone());
        // Same non-identity state behind an empty range: invisible to the
        // overlap/coverage checks, so it must not be merged either.
        let forged = ShardFrame::from_columns("eos", 1, 1, 0, Value::Null, state);
        let tz = ShardFrame::from_columns(
            "tezos",
            0,
            1,
            1,
            Value::Null,
            TezosColumnar::new(period(), Vec::new()).to_wire_bytes(),
        );
        let xr = ShardFrame::from_columns(
            "xrp",
            0,
            1,
            1,
            Value::Null,
            XrpColumnar::new(period()).to_wire_bytes(),
        );

        let mut s = ReduceSession::new();
        for f in [&legit, &forged, &tz, &xr] {
            s.submit(f).expect("accepted");
        }
        let sweeps = s.finalize().expect("coverage complete");
        assert_eq!(
            sweeps.eos.action_distribution().1,
            1,
            "empty-range frame state was merged (double count)"
        );
    }
}
