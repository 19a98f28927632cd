//! # Columnar sweep engine
//!
//! The one engine behind every reduction path. The scalar reference fold
//! ([`crate::EosSweep::observe`] & co.) keys every hot map by
//! account/contract/action name and pays a SipHash per observation — and
//! again per key on every chunk merge. This module keeps the same
//! `identity / observe / merge` algebra but changes the data layout:
//!
//! ```text
//!  Block ──decode──▶ Interner (name → dense u32 id)      [txstat_types::intern]
//!        ──layout──▶ BlockBatch  (SoA: tag ┃ name ┃ actor ┃ contract ┃ …)
//!        ──count───▶ IdVec / PairTable     (id-indexed vectors;
//!                                           pair counters sharded by
//!                                           id residue class — level 2
//!                                           under the ingest shards)
//!  merge(a, b)  =  absorb interner ─▶ remap table ─▶ gathered vector adds
//!  finalize     =  resolve ids ─▶ the scalar sweep struct (bit-identical)
//! ```
//!
//! Classification is a batched tag-table lookup: each distinct action name
//! is classified once at intern time, so the per-action Figure 1/3 loops
//! read a precomputed `u8` tag column instead of re-matching strings.
//!
//! Because [`EosColumnar::finalize`] (& co.) rebuild the scalar sweep
//! structs key-by-key, every exhibit accessor — including the top-N
//! renderers behind Figures 4/5/6/8 — resolves interned ids through the
//! one shared finalization helper family below (`resolve_topk`,
//! `resolve_map`, `resolve_pairs`); ranking ties therefore break by
//! *resolved key order*, never by id assignment (which depends on chunk
//! boundaries).

mod eos;
pub(crate) mod state;
pub mod tables;
mod tezos;
pub mod wire;
mod xrp;

pub use eos::EosColumnar;
pub use tezos::TezosColumnar;
pub use wire::WireState;
pub use xrp::XrpColumnar;

use std::collections::HashMap;
use std::hash::Hash;
use tables::{pack, FxMap64, IdVec, PairTable};
use txstat_types::series::BucketSeries;
use txstat_types::stats::TopK;
use txstat_types::time::Period;

/// Encode an optional id into a table key: `0` is `None`, `id + 1` else.
#[inline]
pub(crate) fn encode_opt(id: Option<u32>) -> u32 {
    id.map_or(0, |i| i + 1)
}

/// The shared finalization helper for ranked exhibits: resolve an
/// id-indexed counter into a key-addressed [`TopK`]. Downstream `top(k)`
/// calls then break count ties on the resolved key's `Ord` — deterministic
/// across chunkings, unlike id insertion order.
pub(crate) fn resolve_topk<K: Eq + Hash + Clone>(
    counts: &IdVec<u64>,
    key: impl Fn(u32) -> K,
) -> TopK<K> {
    let mut t = TopK::new();
    for (id, n) in counts.iter_nonzero() {
        t.add(key(id), n);
    }
    t
}

/// Resolve an id-indexed counter into a plain key-addressed count map.
pub(crate) fn resolve_map<K: Eq + Hash>(
    counts: &IdVec<u64>,
    key: impl Fn(u32) -> K,
) -> HashMap<K, u64> {
    counts.iter_nonzero().map(|(id, n)| (key(id), n)).collect()
}

/// Resolve a pair table into the scalar sweeps' nested `key → TopK<key>`
/// shape (Figure 4/5/6/8 inputs).
pub(crate) fn resolve_pairs<KA: Eq + Hash, KB: Eq + Hash + Clone>(
    pairs: &PairTable,
    key_a: impl Fn(u32) -> KA,
    key_b: impl Fn(u32) -> KB,
) -> HashMap<KA, TopK<KB>> {
    let mut out: HashMap<KA, TopK<KB>> = HashMap::new();
    for (a, b, n) in pairs.iter() {
        out.entry(key_a(a)).or_default().add(key_b(b), n);
    }
    out
}

/// A sparse-keyed bucket series: `(encoded key, bucket index) → count`
/// plus the out-of-period audit counter, resolved into a
/// [`BucketSeries`] at finalization. The encoded key is an interned id
/// (plus one, with `0` = "no key") so merges remap like every other
/// id-indexed table.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeriesTable {
    table: FxMap64,
    pub(crate) oor: u64,
}

impl wire::WireState for SeriesTable {
    fn encode_columns(&self, w: &mut txstat_types::colcodec::ColWriter) {
        self.table.encode_columns(w);
        w.u64(self.oor);
    }

    fn decode_columns(
        r: &mut txstat_types::colcodec::ColReader<'_>,
    ) -> Result<Self, txstat_types::colcodec::ColError> {
        Ok(SeriesTable {
            table: FxMap64::decode_columns(r)?,
            oor: r.u64()?,
        })
    }
}

impl SeriesTable {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn add(&mut self, encoded: u32, bucket: u32, n: u64) {
        self.table.add(pack(encoded, bucket), n);
    }

    /// All `(encoded key, bucket)` pairs present — decode-time validation.
    pub(crate) fn encoded_keys(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.table.iter().map(|(k, _)| tables::unpack(k))
    }

    /// Cross-interner merge: remap the encoded key (0 stays "no key").
    pub(crate) fn merge_remap(&mut self, other: &SeriesTable, remap: &[u32]) {
        for (k, n) in other.table.iter() {
            let (enc, bucket) = tables::unpack(k);
            let enc = if enc == 0 {
                0
            } else {
                remap[(enc - 1) as usize] + 1
            };
            self.add(enc, bucket, n);
        }
        self.oor += other.oor;
    }

    /// Rebuild the scalar [`BucketSeries`], resolving encoded keys through
    /// `key`. State-identical to having recorded every event directly.
    pub(crate) fn resolve<K: Eq + Hash + Clone>(
        &self,
        period: Period,
        width: i64,
        key: impl Fn(u32) -> K,
    ) -> BucketSeries<K> {
        let mut series = BucketSeries::new(period, width);
        for (k, n) in self.table.iter() {
            let (enc, bucket) = tables::unpack(k);
            series.record(period.bucket_start(bucket as usize, width), key(enc), n);
        }
        if self.oor > 0 {
            // Any out-of-window instant lands in the audit counter without
            // touching a bucket; the key is irrelevant.
            series.record(period.start + (-1), key(0), self.oor);
        }
        series
    }
}

/// Rebuild a dense (tag-indexed) bucket series as a scalar
/// [`BucketSeries`] over the category set `cats`.
pub(crate) fn resolve_dense_series<K: Eq + Hash + Clone, const N: usize>(
    buckets: &[[u64; N]],
    oor: u64,
    cats: [K; N],
    period: Period,
    width: i64,
) -> BucketSeries<K> {
    let mut series = BucketSeries::new(period, width);
    for (i, row) in buckets.iter().enumerate() {
        for (tag, n) in row.iter().enumerate() {
            if *n > 0 {
                series.record(period.bucket_start(i, width), cats[tag].clone(), *n);
            }
        }
    }
    if oor > 0 {
        series.record(period.start + (-1), cats[0].clone(), oor);
    }
    series
}
