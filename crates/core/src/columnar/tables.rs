//! Id-indexed accumulator primitives for the columnar sweep engine.
//!
//! Three containers replace the `HashMap<Name, _>`-style hot maps of the
//! scalar sweeps once keys are interned to dense `u32` ids:
//!
//! - [`IdVec`] — a dense per-id accumulator (`Vec<T>` grown on demand).
//!   Same-interner merges are element-wise vector adds; cross-interner
//!   merges gather through a remap table.
//! - `FxMap64` — an open-addressed `u64 → u64` counter table (linear
//!   probing, Fibonacci hashing) for sparse keys like `(id, id)` pairs.
//! - [`PairTable`] — the two-level hot-map shard: a pair-keyed counter
//!   split into `PAIR_SHARDS` residue classes of the *first* id, the
//!   second sharding level under the ingest layer's block-range shards.
//!   Hot accounts land in one small sub-table, so chunk merges rehash
//!   several small tables instead of one huge one, and sub-tables merge
//!   independently.

/// Residue classes of the second-level (per-account) sharding.
pub(crate) const PAIR_SHARDS: usize = 8;

/// Pack an id pair into one table key.
#[inline]
pub(crate) fn pack(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Inverse of [`pack`].
#[inline]
pub(crate) fn unpack(k: u64) -> (u32, u32) {
    ((k >> 32) as u32, k as u32)
}

/// Dense id-indexed accumulator. `T` is the per-id tally (`u64` counts,
/// `i128` drop volumes).
#[derive(Debug, Clone, Default)]
pub struct IdVec<T> {
    slots: Vec<T>,
}

impl<T: Copy + Default + PartialEq + std::ops::AddAssign> IdVec<T> {
    pub fn new() -> Self {
        IdVec { slots: Vec::new() }
    }

    /// Add `n` to id `id`, growing the table as ids appear.
    #[inline]
    pub fn add(&mut self, id: u32, n: T) {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, T::default());
        }
        self.slots[i] += n;
    }

    #[inline]
    pub fn get(&self, id: u32) -> T {
        self.slots.get(id as usize).copied().unwrap_or_default()
    }

    /// `(id, tally)` for every id whose tally differs from the default.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u32, T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != T::default())
            .map(|(i, v)| (i as u32, *v))
    }

    /// Same-interner merge: element-wise vector add.
    pub fn merge(&mut self, other: &IdVec<T>) {
        if self.slots.len() < other.slots.len() {
            self.slots.resize(other.slots.len(), T::default());
        }
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            *a += *b;
        }
    }

    /// Cross-interner merge: gather `other`'s tallies through `remap`
    /// (entry `i` = this side's id for the other side's id `i`).
    pub fn merge_remap(&mut self, other: &IdVec<T>, remap: &[u32]) {
        if let Some(max) = remap.get(..other.slots.len()).and_then(|r| r.iter().max()) {
            let need = *max as usize + 1;
            if need > self.slots.len() {
                self.slots.resize(need, T::default());
            }
        }
        for (oid, v) in other.slots.iter().enumerate() {
            if *v != T::default() {
                self.slots[remap[oid] as usize] += *v;
            }
        }
    }
}

impl<T> IdVec<T> {
    /// Number of id slots present — every indexed id is below this.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

const EMPTY: u64 = u64::MAX;

/// Open-addressed `u64 → u64` counter with linear probing. Key `u64::MAX`
/// is reserved as the empty sentinel — packed `(u32, u32)` pairs never
/// reach it because interned ids are dense counts.
#[derive(Debug, Clone, Default)]
pub(crate) struct FxMap64 {
    keys: Vec<u64>,
    vals: Vec<u64>,
    len: usize,
}

impl FxMap64 {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Fibonacci hashing into a power-of-two table.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.keys.len().trailing_zeros())) as usize
    }

    /// Add `n` to `key`'s count.
    #[inline]
    pub fn add(&mut self, key: u64, n: u64) {
        debug_assert_ne!(key, EMPTY, "key space collides with the empty sentinel");
        if self.len * 8 >= self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key {
                self.vals[i] += n;
                return;
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = n;
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    pub fn get(&self, key: u64) -> u64 {
        if self.keys.is_empty() {
            return 0;
        }
        let mask = self.keys.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return self.vals[i];
            }
            if k == EMPTY {
                return 0;
            }
            i = (i + 1) & mask;
        }
    }

    /// All `(key, count)` entries, in probe order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(k, _)| **k != EMPTY)
            .map(|(k, v)| (*k, *v))
    }

    /// Merge another table: per-key counts add.
    pub fn merge(&mut self, other: &FxMap64) {
        self.reserve(other.len);
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Grow once up front so an incoming batch of `additional` keys never
    /// rehashes mid-merge.
    pub fn reserve(&mut self, additional: usize) {
        if additional == 0 {
            return;
        }
        while (self.len + additional) * 8 >= self.keys.len() * 7 {
            self.grow();
        }
    }

    fn grow(&mut self) {
        let cap = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; cap]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = vec![0; cap];
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.add(k, v);
            }
        }
    }
}

/// A pair-keyed counter sharded by the first id's residue class — the
/// second sharding level under the ingest layer's block-range shards.
#[derive(Debug, Clone, Default)]
pub struct PairTable {
    shards: [FxMap64; PAIR_SHARDS],
}

impl PairTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the `(a, b)` pair count.
    #[inline]
    pub fn add(&mut self, a: u32, b: u32, n: u64) {
        self.shards[a as usize % PAIR_SHARDS].add(pack(a, b), n);
    }

    pub fn get(&self, a: u32, b: u32) -> u64 {
        self.shards[a as usize % PAIR_SHARDS].get(pack(a, b))
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(FxMap64::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FxMap64::is_empty)
    }

    /// All `((a, b), count)` entries across shards.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        self.shards.iter().flat_map(|s| {
            s.iter().map(|(k, v)| {
                let (a, b) = unpack(k);
                (a, b, v)
            })
        })
    }

    /// Same-interner merge: residue classes merge pairwise, each touching
    /// only its own small sub-table.
    pub fn merge(&mut self, other: &PairTable) {
        for (mine, theirs) in self.shards.iter_mut().zip(&other.shards) {
            mine.merge(theirs);
        }
    }

    /// Cross-interner merge: remap both ids of every pair through the
    /// provided projections, re-sharding as the first id changes.
    pub fn merge_remap(
        &mut self,
        other: &PairTable,
        map_a: impl Fn(u32) -> u32,
        map_b: impl Fn(u32) -> u32,
    ) {
        // Remapped pairs re-shard unpredictably; reserve each sub-table for
        // its expected share so inserts stay rehash-free.
        let incoming = other.len();
        if incoming > 0 {
            for shard in &mut self.shards {
                shard.reserve(incoming / PAIR_SHARDS + 1);
            }
        }
        for (a, b, n) in other.iter() {
            self.add(map_a(a), map_b(b), n);
        }
    }
}

// ---- Binary column sections (the wire payload) -----------------------------

use super::wire::WireState;
use txstat_types::colcodec::{ColError, ColReader, ColWriter};

impl WireState for IdVec<u64> {
    /// Column form: slot count, then the dense id-indexed tallies as
    /// varints — meaningful only next to the interner whose ids index it.
    fn encode_columns(&self, w: &mut ColWriter) {
        w.u64(self.slots.len() as u64);
        for v in &self.slots {
            w.u64(*v);
        }
    }

    fn decode_columns(r: &mut ColReader<'_>) -> Result<Self, ColError> {
        let n = r.len(1)?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push(r.u64()?);
        }
        Ok(IdVec { slots })
    }
}

impl WireState for IdVec<i128> {
    fn encode_columns(&self, w: &mut ColWriter) {
        w.u64(self.slots.len() as u64);
        for v in &self.slots {
            w.i128(*v);
        }
    }

    fn decode_columns(r: &mut ColReader<'_>) -> Result<Self, ColError> {
        let n = r.len(1)?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push(r.i128()?);
        }
        Ok(IdVec { slots })
    }
}

/// Shared sorted `u64 → u64` section layout for [`FxMap64`] and
/// [`PairTable`]: entry count, then `(key delta, count)` pairs in strictly
/// ascending key order (the first delta is the first key itself). Strict
/// ascent makes the encoding canonical *and* makes duplicates — which
/// would double-count on decode — a zero delta the reader rejects.
fn write_sorted_map(w: &mut ColWriter, entries: impl Iterator<Item = (u64, u64)>) {
    let mut pairs: Vec<(u64, u64)> = entries.collect();
    pairs.sort_unstable();
    w.u64(pairs.len() as u64);
    let mut prev = 0u64;
    for (i, (k, v)) in pairs.iter().enumerate() {
        w.u64(if i == 0 { *k } else { k - prev });
        w.u64(*v);
        prev = *k;
    }
}

/// Read `n` entries of a sorted-map section (the caller reads the count
/// first so it can pre-reserve its tables rehash-free). Rejects zero
/// deltas (duplicates), overflowing keys, and the open-addressing
/// sentinel `u64::MAX`, which is not a legal key in any section.
fn read_sorted_entries(
    r: &mut ColReader<'_>,
    n: usize,
    mut add: impl FnMut(u64, u64),
) -> Result<(), ColError> {
    let mut prev = 0u64;
    for i in 0..n {
        let delta = r.u64()?;
        let key = if i == 0 {
            delta
        } else {
            if delta == 0 {
                return Err(r.invalid("duplicate key in sorted counter section"));
            }
            prev.checked_add(delta)
                .ok_or_else(|| r.invalid("key delta overflows u64"))?
        };
        if key == EMPTY {
            return Err(r.invalid("key collides with the empty sentinel"));
        }
        add(key, r.u64()?);
        prev = key;
    }
    Ok(())
}

impl WireState for FxMap64 {
    fn encode_columns(&self, w: &mut ColWriter) {
        write_sorted_map(w, self.iter());
    }

    fn decode_columns(r: &mut ColReader<'_>) -> Result<Self, ColError> {
        let n = r.len(2)?;
        let mut out = FxMap64::new();
        out.reserve(n);
        read_sorted_entries(r, n, |k, v| out.add(k, v))?;
        Ok(out)
    }
}

impl WireState for PairTable {
    /// Column form: the packed `(a, b)` keys sorted ascending (identical
    /// order to sorting the `(a, b, n)` triples). The shard assignment is a
    /// function of `a`, so the residue layout rebuilds itself on decode.
    fn encode_columns(&self, w: &mut ColWriter) {
        write_sorted_map(w, self.shards.iter().flat_map(FxMap64::iter));
    }

    fn decode_columns(r: &mut ColReader<'_>) -> Result<Self, ColError> {
        let n = r.len(2)?;
        let mut out = PairTable::new();
        for shard in &mut out.shards {
            shard.reserve(n / PAIR_SHARDS + 1);
        }
        read_sorted_entries(r, n, |k, v| {
            let (a, b) = unpack(k);
            out.add(a, b, v);
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idvec_counts_and_grows() {
        let mut v: IdVec<u64> = IdVec::new();
        v.add(5, 2);
        v.add(0, 1);
        v.add(5, 3);
        assert_eq!(v.get(5), 5);
        assert_eq!(v.get(3), 0);
        assert_eq!(v.iter_nonzero().collect::<Vec<_>>(), vec![(0, 1), (5, 5)]);
    }

    #[test]
    fn idvec_merge_is_vector_add_and_remap_gathers() {
        let mut a: IdVec<u64> = IdVec::new();
        a.add(0, 1);
        a.add(2, 7);
        let mut b: IdVec<u64> = IdVec::new();
        b.add(1, 5);
        b.add(4, 9);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.get(1), 5);
        assert_eq!(merged.get(4), 9);
        // Remap: b's id 1 is a's id 2, b's id 4 is a's id 0.
        let mut remapped = a.clone();
        remapped.merge_remap(&b, &[99, 2, 99, 99, 0]);
        assert_eq!(remapped.get(2), 12);
        assert_eq!(remapped.get(0), 10);
    }

    #[test]
    fn fxmap_counts_many_keys() {
        let mut m = FxMap64::new();
        for round in 1..=3u64 {
            for k in 0..500u64 {
                m.add(k * 977, round);
            }
        }
        assert_eq!(m.len(), 500);
        for k in 0..500u64 {
            assert_eq!(m.get(k * 977), 6);
        }
        assert_eq!(m.get(123), 0);
        assert_eq!(m.iter().map(|(_, v)| v).sum::<u64>(), 3000);
    }

    #[test]
    fn fxmap_merge_adds_per_key() {
        let mut a = FxMap64::new();
        let mut b = FxMap64::new();
        a.add(1, 1);
        a.add(2, 2);
        b.add(2, 5);
        b.add(3, 7);
        a.merge(&b);
        assert_eq!((a.get(1), a.get(2), a.get(3)), (1, 7, 7));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn pair_table_shards_by_first_id() {
        let mut t = PairTable::new();
        for a in 0..64u32 {
            t.add(a, a * 2 + 1, a as u64 + 1);
        }
        assert_eq!(t.len(), 64);
        assert_eq!(t.get(9, 19), 10);
        assert_eq!(t.get(9, 18), 0);
        let total: u64 = t.iter().map(|(.., n)| n).sum();
        assert_eq!(total, (1..=64).sum::<u64>());
    }

    #[test]
    fn pair_table_remap_merge_matches_direct() {
        // Two tables over different interners for the same underlying keys.
        let mut a = PairTable::new();
        a.add(0, 1, 3);
        let mut b = PairTable::new();
        b.add(5, 2, 4); // same logical pair under another id assignment
        let remap_a = |x: u32| if x == 5 { 0 } else { x };
        let remap_b = |x: u32| if x == 2 { 1 } else { x };
        a.merge_remap(&b, remap_a, remap_b);
        assert_eq!(a.get(0, 1), 7);
        assert_eq!(a.len(), 1);
    }
}
