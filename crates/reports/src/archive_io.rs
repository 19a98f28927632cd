//! Reports-side interpretation of the archive's opaque parts.
//!
//! `txstat_archive` moves bytes; this module gives them meaning: the
//! **manifest** (scenario fingerprint + segment sizing + chain lengths),
//! the **sidecar** (every non-block input the exhibits need — oracle
//! trades, the XRP account cluster, EOS CPU-price history, Tezos rolls and
//! governance windows), the **segment summary** memoized per segment in
//! `archive.memo` (every report input that needs block bytes and is not a
//! sweep), and the per-block wire-JSON bytes shared with the NDJSON crawl
//! replay and the follow layer's content hashes.
//!
//! Everything here is deterministic byte-for-byte: maps are exported in
//! sorted order and floats travel as IEEE-754 bit patterns, so archiving
//! the same scenario twice produces identical files and a cold-started
//! dataset reproduces the generated one's report exactly.

use rayon::prelude::*;
use txstat_archive::SegmentBlocks;
use txstat_crawler::CrawlStats;
use txstat_tezos::address::{AddrKind, Address};
use txstat_tezos::governance::PeriodKind;
use txstat_types::colcodec::{ColReader, ColWriter};
use txstat_types::time::{ChainTime, Period};
use txstat_types::SymCode;
use txstat_xrp::amount::IssuedCurrency;
use txstat_xrp::rates::TradeRecord;
use txstat_xrp::AccountId;

/// Sidecar format version (leading tag byte).
const SIDECAR_TAG: u8 = 1;

// ---- manifest ---------------------------------------------------------------

/// The archive manifest: which scenario the corpus captures, how it was
/// segmented, and each chain's block count.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The scenario fingerprint ([`crate::scenario_meta`]) every wire
    /// frame and fleet assignment is validated against.
    pub meta: serde_json::Value,
    /// Block positions per segment the corpus was written with.
    pub segment_blocks: u64,
    /// Block counts `[eos, tezos, xrp]`.
    pub lens: [u64; 3],
}

impl std::fmt::Display for Manifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lens: Vec<serde_json::Value> = self.lens.iter().map(|l| (*l).into()).collect();
        let s = serde_json::to_string(&serde_json::json!({
            "meta": self.meta.clone(),
            "segment_blocks": self.segment_blocks,
            "lens": lens,
        }))
        .expect("manifest is valid JSON");
        f.write_str(&s)
    }
}

impl Manifest {
    pub fn parse(s: &str) -> Result<Manifest, String> {
        let v: serde_json::Value =
            serde_json::from_str(s).map_err(|e| format!("archive manifest: {e}"))?;
        let meta = v.get("meta").cloned().ok_or("archive manifest carries no scenario meta")?;
        let segment_blocks = v
            .get("segment_blocks")
            .and_then(serde_json::Value::as_u64)
            .ok_or("archive manifest carries no segment_blocks")?;
        let lens_v = v
            .get("lens")
            .and_then(serde_json::Value::as_array)
            .ok_or("archive manifest carries no chain lengths")?;
        if lens_v.len() != 3 {
            return Err(format!("archive manifest lens: want 3 chains, got {}", lens_v.len()));
        }
        let mut lens = [0u64; 3];
        for (i, l) in lens_v.iter().enumerate() {
            lens[i] = l.as_u64().ok_or("archive manifest lens: not a u64")?;
        }
        Ok(Manifest { meta, segment_blocks, lens })
    }

    /// The block-position space `[0, total)` the segments tile.
    pub fn total_positions(&self) -> u64 {
        self.lens.iter().copied().max().unwrap_or(0)
    }
}

// ---- sidecar ----------------------------------------------------------------

/// Every non-block input of [`crate::PipelineData`], in archivable form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sidecar {
    /// IOU↔XRP exchange events (Figure 11b; also rebuilds the rate
    /// oracle exactly as the generate path does).
    pub trades: Vec<TradeRecord>,
    /// Registered usernames, sorted by account id.
    pub usernames: Vec<(AccountId, String)>,
    /// Activation parents, sorted by account id.
    pub parents: Vec<(AccountId, AccountId)>,
    /// (block number, CPU price index) per EOS block.
    pub eos_cpu_price: Vec<(u64, f64)>,
    pub eos_dropped_txs: u64,
    /// Baker roll counts, sorted by (kind, id).
    pub tezos_rolls: Vec<(Address, u64)>,
    /// Governance windows, in chain order.
    pub governance_periods: Vec<(PeriodKind, Period)>,
}

fn kind_tag(k: PeriodKind) -> u8 {
    match k {
        PeriodKind::Proposal => 0,
        PeriodKind::Exploration => 1,
        PeriodKind::Testing => 2,
        PeriodKind::Promotion => 3,
    }
}

fn addr_tag(k: AddrKind) -> u8 {
    match k {
        AddrKind::Implicit => 0,
        AddrKind::Originated => 1,
    }
}

impl Sidecar {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ColWriter::with_capacity(64 + self.trades.len() * 16);
        w.byte(SIDECAR_TAG);
        w.u64(self.trades.len() as u64);
        for t in &self.trades {
            w.i64(t.time.0);
            w.str(t.currency.currency.as_str());
            w.u64(t.currency.issuer.0);
            w.i128(t.iou_value);
            w.i64(t.drops);
            w.u64(t.maker.0);
        }
        w.u64(self.usernames.len() as u64);
        for (a, u) in &self.usernames {
            w.u64(a.0);
            w.str(u);
        }
        w.u64(self.parents.len() as u64);
        for (a, p) in &self.parents {
            w.u64(a.0);
            w.u64(p.0);
        }
        w.u64(self.eos_cpu_price.len() as u64);
        for (n, p) in &self.eos_cpu_price {
            w.u64(*n);
            w.f64(*p);
        }
        w.u64(self.eos_dropped_txs);
        w.u64(self.tezos_rolls.len() as u64);
        for (a, rolls) in &self.tezos_rolls {
            w.byte(addr_tag(a.kind));
            w.u64(a.id);
            w.u64(*rolls);
        }
        w.u64(self.governance_periods.len() as u64);
        for (k, p) in &self.governance_periods {
            w.byte(kind_tag(*k));
            w.i64(p.start.0);
            w.i64(p.end.0);
        }
        w.into_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<Sidecar, String> {
        let mut r = ColReader::new(bytes);
        let fail = |e: txstat_types::colcodec::ColError| format!("archive sidecar: {e}");
        (|| -> Result<Sidecar, txstat_types::colcodec::ColError> {
            let tag = r.byte()?;
            if tag != SIDECAR_TAG {
                return Err(r.invalid(format!("bad sidecar tag {tag} (want {SIDECAR_TAG})")));
            }
            let mut s = Sidecar::default();
            for _ in 0..r.len(6)? {
                let time = ChainTime(r.i64()?);
                let currency = SymCode::new(r.str()?);
                let issuer = AccountId(r.u64()?);
                s.trades.push(TradeRecord {
                    time,
                    currency: IssuedCurrency { currency, issuer },
                    iou_value: r.i128()?,
                    drops: r.i64()?,
                    maker: AccountId(r.u64()?),
                });
            }
            for _ in 0..r.len(2)? {
                s.usernames.push((AccountId(r.u64()?), r.str()?.to_owned()));
            }
            for _ in 0..r.len(2)? {
                s.parents.push((AccountId(r.u64()?), AccountId(r.u64()?)));
            }
            for _ in 0..r.len(2)? {
                s.eos_cpu_price.push((r.u64()?, r.f64()?));
            }
            s.eos_dropped_txs = r.u64()?;
            for _ in 0..r.len(3)? {
                let tag = r.byte()?;
                let kind = match tag {
                    0 => AddrKind::Implicit,
                    1 => AddrKind::Originated,
                    _ => return Err(r.invalid(format!("bad address kind tag {tag}"))),
                };
                let addr = Address { kind, id: r.u64()? };
                s.tezos_rolls.push((addr, r.u64()?));
            }
            for _ in 0..r.len(3)? {
                let tag = r.byte()?;
                let kind = match tag {
                    0 => PeriodKind::Proposal,
                    1 => PeriodKind::Exploration,
                    2 => PeriodKind::Testing,
                    3 => PeriodKind::Promotion,
                    _ => return Err(r.invalid(format!("bad period kind tag {tag}"))),
                };
                let period = Period::new(ChainTime(r.i64()?), ChainTime(r.i64()?));
                s.governance_periods.push((kind, period));
            }
            r.finish()?;
            Ok(s)
        })()
        .map_err(fail)
    }
}

// ---- segment summary --------------------------------------------------------

/// Schema tag of the [`SegmentSummary`] payloads in `archive.memo`. Bump it
/// whenever a summary of the same segment bytes could come out different:
/// the payload codec below, the Figure 2 methodology
/// (`COMPRESSION_SAMPLE_EVERY`, the LZSS compressor, the wire-JSON
/// writers), or the EIDOS launch instant. A memo under another tag is
/// refused whole and recomputed, so a methodology change can never be
/// served from a stale memo; `tests/archive_memo.rs` pins the memo bytes to
/// make forgetting the bump a test failure.
pub const SUMMARY_SCHEMA: u32 = 1;

/// First/last block `(number, time)` of a run of one chain, mergeable in
/// any order (block numbers are unique within a chain).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bounds {
    pub first: Option<(u64, ChainTime)>,
    pub last: Option<(u64, ChainTime)>,
}

impl Bounds {
    pub fn record(&mut self, n: u64, t: ChainTime) {
        if self.first.map(|(f, _)| n < f).unwrap_or(true) {
            self.first = Some((n, t));
        }
        if self.last.map(|(l, _)| n > l).unwrap_or(true) {
            self.last = Some((n, t));
        }
    }

    pub fn merge(&mut self, other: Bounds) {
        if let Some((n, t)) = other.first {
            self.record(n, t);
        }
        if let Some((n, t)) = other.last {
            self.record(n, t);
        }
    }
}

/// Every report input that is derived from block bytes and is not a sweep,
/// over one run of block positions: Figure 2's storage accounting, the
/// chains' first/last blocks, and the EOS CPU-price peaks around the EIDOS
/// launch. Summaries of disjoint runs [`merge`](SegmentSummary::merge)
/// into the summary of their union in any order — the accounting is sums
/// of integers sampled by absolute block position, the rest are min/max —
/// so one is memoized per immutable segment and a dataset's facts are
/// their sum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentSummary {
    /// Storage accounting `(eos, tezos, xrp)`; `elapsed` stays zero.
    pub storage: (CrawlStats, CrawlStats, CrawlStats),
    /// Block bounds `[eos, tezos, xrp]`.
    pub bounds: [Bounds; 3],
    /// Peak EOS CPU price index (before, after) the EIDOS launch.
    pub cpu_peaks: (f64, f64),
}

impl SegmentSummary {
    pub fn merge(&mut self, other: &SegmentSummary) {
        self.storage.0.merge(&other.storage.0);
        self.storage.1.merge(&other.storage.1);
        self.storage.2.merge(&other.storage.2);
        for (mine, theirs) in self.bounds.iter_mut().zip(other.bounds) {
            mine.merge(theirs);
        }
        self.cpu_peaks.0 = self.cpu_peaks.0.max(other.cpu_peaks.0);
        self.cpu_peaks.1 = self.cpu_peaks.1.max(other.cpu_peaks.1);
    }

    /// Block counts `[eos, tezos, xrp]` of the summarized run.
    pub fn lens(&self) -> [u64; 3] {
        [self.storage.0.blocks, self.storage.1.blocks, self.storage.2.blocks]
    }

    /// The memo payload (schema [`SUMMARY_SCHEMA`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ColWriter::with_capacity(96);
        for (stats, bounds) in
            [&self.storage.0, &self.storage.1, &self.storage.2].into_iter().zip(self.bounds)
        {
            for v in [
                stats.blocks,
                stats.transactions,
                stats.wire_bytes,
                stats.sampled_bytes,
                stats.sampled_compressed_bytes,
            ] {
                w.u64(v);
            }
            // Both ends are set by the first recorded block, so one flag
            // covers them.
            match (bounds.first, bounds.last) {
                (Some(first), Some(last)) => {
                    w.byte(1);
                    for (n, t) in [first, last] {
                        w.u64(n);
                        w.i64(t.0);
                    }
                }
                _ => w.byte(0),
            }
        }
        w.f64(self.cpu_peaks.0);
        w.f64(self.cpu_peaks.1);
        w.into_bytes()
    }

    /// Strict inverse of [`SegmentSummary::encode`]: `None` for anything
    /// else (the memo layer then treats the segment as a miss).
    pub fn decode(bytes: &[u8]) -> Option<SegmentSummary> {
        use txstat_types::colcodec::ColError;
        fn end(r: &mut ColReader) -> Result<Option<(u64, ChainTime)>, ColError> {
            Ok(Some((r.u64()?, ChainTime(r.i64()?))))
        }
        fn chain(r: &mut ColReader) -> Result<(CrawlStats, Bounds), ColError> {
            let stats = CrawlStats {
                blocks: r.u64()?,
                transactions: r.u64()?,
                wire_bytes: r.u64()?,
                sampled_bytes: r.u64()?,
                sampled_compressed_bytes: r.u64()?,
                ..CrawlStats::default()
            };
            let bounds = match r.byte()? {
                0 => Bounds::default(),
                1 => Bounds { first: end(r)?, last: end(r)? },
                tag => return Err(r.invalid(format!("bad bounds tag {tag}"))),
            };
            Ok((stats, bounds))
        }
        let mut r = ColReader::new(bytes);
        let (eos, tezos, xrp) = (chain(&mut r).ok()?, chain(&mut r).ok()?, chain(&mut r).ok()?);
        let cpu_peaks = (r.f64().ok()?, r.f64().ok()?);
        r.finish().ok()?;
        Some(SegmentSummary {
            storage: (eos.0, tezos.0, xrp.0),
            bounds: [eos.1, tezos.1, xrp.1],
            cpu_peaks,
        })
    }
}

// ---- per-block wire-JSON bytes ----------------------------------------------
//
// One canonical home per chain: the chain crates' `rpc_model` modules own
// the wire byte codecs (the crawl replay and the NDJSON sources route
// through the same functions). These re-exports keep the reports-side
// names the archive layer has always used.

/// The canonical wire-JSON bytes of one EOS block — the same bytes the
/// NDJSON crawl replay moves and the follower's reorg marks hash.
pub fn eos_block_bytes(b: &txstat_eos::Block) -> Vec<u8> {
    txstat_eos::rpc_model::block_bytes(b)
}

pub fn tezos_block_bytes(b: &txstat_tezos::TezosBlock) -> Vec<u8> {
    txstat_tezos::rpc_model::block_bytes(b)
}

pub fn xrp_block_bytes(b: &txstat_xrp::LedgerBlock) -> Vec<u8> {
    txstat_xrp::rpc_model::ledger_bytes(b)
}

// ---- segment assembly / replay ----------------------------------------------

/// The on-disk segment payload schema: per-chain columnar runs (interned
/// tables + struct-of-arrays columns via the chain crates' `block_cols`
/// codecs). Single-valued — it survives only as the last argument of
/// [`crate::write_archive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentFormat;

/// Cut the three chains into contiguous `[start, end)` segments of
/// `segment_blocks` positions each, tiling `[from, total)` (the final
/// segment absorbs the remainder of the position space). `from` is 0 for a
/// whole corpus; the follow path re-seals only the tail past it.
pub fn segments_of_from(
    eos: &[txstat_eos::Block],
    tezos: &[txstat_tezos::TezosBlock],
    xrp: &[txstat_xrp::LedgerBlock],
    segment_blocks: u64,
    from: u64,
) -> Vec<SegmentBlocks> {
    let total = eos.len().max(tezos.len()).max(xrp.len()) as u64;
    let mut out = Vec::new();
    let mut start = from.min(total);
    while start < total {
        let end = (start + segment_blocks).min(total);
        let take = |len: usize| (start as usize).min(len)..(end as usize).min(len);
        out.push(SegmentBlocks {
            start,
            end,
            eos: txstat_eos::block_cols::encode_blocks(&eos[take(eos.len())]),
            tezos: txstat_tezos::block_cols::encode_blocks(&tezos[take(tezos.len())]),
            xrp: txstat_xrp::block_cols::encode_blocks(&xrp[take(xrp.len())]),
        });
        start = end;
    }
    out
}

/// The three parsed chain vectors a segment replay decodes into.
pub type ReplayedChains =
    (Vec<txstat_eos::Block>, Vec<txstat_tezos::TezosBlock>, Vec<txstat_xrp::LedgerBlock>);

/// Parse one replayed segment into its three chain runs; errors name the
/// segment's position range and the offset inside the chain blob.
pub fn chains_of_segment(seg: &SegmentBlocks) -> Result<ReplayedChains, String> {
    let at = |chain: &str, e: String| -> String {
        format!("segment [{}, {}) {chain}: {e}", seg.start, seg.end)
    };
    let eos = txstat_eos::block_cols::decode_blocks(&seg.eos)
        .map_err(|e| at("eos columns", e.to_string()))?;
    let tezos = txstat_tezos::block_cols::decode_blocks(&seg.tezos)
        .map_err(|e| at("tezos columns", e.to_string()))?;
    let xrp = txstat_xrp::block_cols::decode_blocks(&seg.xrp)
        .map_err(|e| at("xrp columns", e.to_string()))?;
    Ok((eos, tezos, xrp))
}

/// Parse replayed segments (contiguous, in position order) back into the
/// three chain vectors. Segments parse on a rayon fan — they are
/// independent — and concatenate back in position order. The segments'
/// first position must be the chains' position `offset` (0 for a full
/// replay).
pub fn chains_of(segments: &[SegmentBlocks]) -> Result<ReplayedChains, String> {
    let per_seg: Vec<Result<ReplayedChains, String>> =
        segments.par_iter().map(chains_of_segment).collect_vec();
    let mut eos = Vec::new();
    let mut tezos = Vec::new();
    let mut xrp = Vec::new();
    for parsed in per_seg {
        let (e, t, x) = parsed?;
        eos.extend(e);
        tezos.extend(t);
        xrp.extend(x);
    }
    Ok((eos, tezos, xrp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sidecar_roundtrip() {
        let s = Sidecar {
            trades: vec![TradeRecord {
                time: ChainTime(1_234),
                currency: IssuedCurrency {
                    currency: SymCode::new("BTC"),
                    issuer: AccountId(7),
                },
                iou_value: -5_000_000,
                drops: 42_000,
                maker: AccountId(9),
            }],
            usernames: vec![(AccountId(1), "Binance".to_owned())],
            parents: vec![(AccountId(2), AccountId(1))],
            eos_cpu_price: vec![(10, 1.25), (11, f64::MIN_POSITIVE), (12, -0.0)],
            eos_dropped_txs: 77,
            tezos_rolls: vec![
                (Address { kind: AddrKind::Implicit, id: 3 }, 12),
                (Address { kind: AddrKind::Originated, id: 4 }, 0),
            ],
            governance_periods: vec![(
                PeriodKind::Exploration,
                Period::new(ChainTime(0), ChainTime(100)),
            )],
        };
        let bytes = s.encode();
        let back = Sidecar::decode(&bytes).unwrap();
        assert_eq!(back, s);
        // Exact bit round-trip for the floats, including -0.0.
        assert_eq!(back.eos_cpu_price[2].1.to_bits(), (-0.0f64).to_bits());
        // Damage never panics: every truncation of the sidecar errors.
        for cut in 0..bytes.len() {
            assert!(Sidecar::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = Manifest {
            meta: serde_json::json!({"mode": "small", "seed": 7}),
            segment_blocks: 256,
            lens: [100, 80, 120],
        };
        let s = m.to_string();
        let back = Manifest::parse(&s).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_positions(), 120);
        assert!(Manifest::parse("{}").is_err());
        assert!(Manifest::parse("not json").is_err());
    }

    #[test]
    fn summary_roundtrip_and_damage() {
        let s = SegmentSummary {
            storage: (
                CrawlStats {
                    blocks: 3,
                    transactions: 40,
                    wire_bytes: 9_000,
                    sampled_bytes: 3_000,
                    sampled_compressed_bytes: 700,
                    ..CrawlStats::default()
                },
                CrawlStats::default(),
                CrawlStats { blocks: 1, wire_bytes: u64::MAX, ..CrawlStats::default() },
            ),
            bounds: [
                Bounds { first: Some((10, ChainTime(-5))), last: Some((12, ChainTime(7))) },
                Bounds::default(),
                Bounds { first: Some((99, ChainTime(1))), last: Some((99, ChainTime(1))) },
            ],
            cpu_peaks: (1.5, f64::MIN_POSITIVE),
        };
        let bytes = s.encode();
        assert_eq!(SegmentSummary::decode(&bytes), Some(s));
        for cut in 0..bytes.len() {
            assert_eq!(SegmentSummary::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(SegmentSummary::decode(&long), None, "trailing byte");
        let empty = SegmentSummary::default();
        assert_eq!(SegmentSummary::decode(&empty.encode()), Some(empty));
    }
}
