//! Dense account/name interning — the foundation of the columnar sweep
//! engine.
//!
//! The paper's exhibits are counting problems keyed by account, contract,
//! and action names. Hashing those keys with SipHash on every observation
//! (and re-hashing every key on every chunk merge) dominates the sweep hot
//! path. An [`Interner`] maps each distinct key to a dense `u32` id at
//! decode time, so the accumulators downstream become id-indexed vectors
//! and open-addressed tables: observations are array bumps, and merges are
//! (remapped) vector adds.
//!
//! Interners built independently — one per parallel chunk or ingest shard —
//! are combined with [`Interner::absorb`], which returns the id remap table
//! the absorbed side's counters must be gathered through. Id assignment
//! therefore depends on chunk boundaries; anything rendered to a report
//! must resolve ids back to keys and order by key, never by id.

use crate::ids::fnv1a64;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The fxhash multiplier (Firefox's hash; public domain constant).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast non-cryptographic hasher for interner lookups and id-keyed
/// tables. The keys it sees are already high-entropy fixed-width values
/// (packed EOS names, account ids), so the multiply–rotate mix is
/// sufficient and an order of magnitude cheaper than SipHash.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            self.add(fnv1a64(rest));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Dense id assignment for copyable keys (EOS names, Tezos addresses, XRP
/// account ids): `intern` returns a stable `u32` per distinct key in
/// first-seen order, `resolve` maps ids back.
#[derive(Debug, Clone, Default)]
pub struct Interner<K: Copy + Eq + Hash> {
    keys: Vec<K>,
    map: FxHashMap<K, u32>,
}

impl<K: Copy + Eq + Hash> Interner<K> {
    pub fn new() -> Self {
        Interner {
            keys: Vec::new(),
            map: FxHashMap::default(),
        }
    }

    /// Dense id of `k`, assigning the next id on first sight.
    #[inline]
    pub fn intern(&mut self, k: K) -> u32 {
        match self.map.entry(k) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = self.keys.len() as u32;
                self.keys.push(k);
                e.insert(id);
                id
            }
        }
    }

    /// Id of `k` if it has been interned.
    #[inline]
    pub fn get(&self, k: K) -> Option<u32> {
        self.map.get(&k).copied()
    }

    /// The key behind an id. Panics on an id this interner never issued.
    #[inline]
    pub fn resolve(&self, id: u32) -> K {
        self.keys[id as usize]
    }

    /// Number of distinct keys interned.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// All keys in id order.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Absorb another interner's key set and return the remap table: entry
    /// `i` holds the id *in self* of the key `other` called `i`. Counters
    /// indexed by `other`'s ids are merged by gathering through this table
    /// — the two-interner analogue of a vector add.
    pub fn absorb(&mut self, other: &Interner<K>) -> Vec<u32> {
        other.keys.iter().map(|k| self.intern(*k)).collect()
    }
}

impl<K: Copy + Eq + Hash + crate::colcodec::ColKey> Interner<K> {
    /// Encode the key table as one binary column: count, then every key in
    /// id order. Id assignment is the column index, so the encoding is
    /// exactly the mergeable state.
    pub fn encode_columns(&self, w: &mut crate::colcodec::ColWriter) {
        w.u64(self.keys.len() as u64);
        for k in &self.keys {
            k.encode_key(w);
        }
    }

    /// Decode a key column back into an interner with identical id
    /// assignment. Duplicate keys are rejected: they would silently alias
    /// two ids' counters.
    pub fn decode_columns(
        r: &mut crate::colcodec::ColReader<'_>,
    ) -> Result<Self, crate::colcodec::ColError> {
        let n = r.len(1)?;
        let mut out = Interner::new();
        for _ in 0..n {
            let k = K::decode_key(r)?;
            let before = out.len();
            out.intern(k);
            if out.len() == before {
                return Err(r.invalid("duplicate key in interner column"));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_first_seen_ids() {
        let mut i: Interner<u64> = Interner::new();
        assert_eq!(i.intern(500), 0);
        assert_eq!(i.intern(7), 1);
        assert_eq!(i.intern(500), 0, "stable on re-intern");
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(1), 7);
        assert_eq!(i.get(500), Some(0));
        assert_eq!(i.get(9), None);
    }

    #[test]
    fn absorb_returns_exact_remap() {
        let mut a: Interner<u64> = Interner::new();
        for k in [10, 20, 30] {
            a.intern(k);
        }
        let mut b: Interner<u64> = Interner::new();
        for k in [30, 40, 10] {
            b.intern(k);
        }
        let remap = a.absorb(&b);
        assert_eq!(
            remap,
            vec![2, 3, 0],
            "30→2 (known), 40→3 (new), 10→0 (known)"
        );
        assert_eq!(a.len(), 4);
        for (oid, nid) in remap.iter().enumerate() {
            assert_eq!(a.resolve(*nid), b.resolve(oid as u32), "key preserved");
        }
    }

    #[test]
    fn column_codec_round_trips_ids() {
        use crate::colcodec::{ColReader, ColWriter};
        let mut i: Interner<u64> = Interner::new();
        for k in [99, 3, 42, 7] {
            i.intern(k);
        }
        let mut w = ColWriter::new();
        i.encode_columns(&mut w);
        let bytes = w.into_bytes();
        let mut r = ColReader::new(&bytes);
        let back = Interner::<u64>::decode_columns(&mut r).expect("valid column");
        r.finish().expect("fully consumed");
        assert_eq!(back.keys(), i.keys());
        assert_eq!(back.get(42), i.get(42));
    }

    #[test]
    fn column_codec_rejects_duplicate_keys() {
        use crate::colcodec::{ColReader, ColWriter};
        let mut w = ColWriter::new();
        w.u64(2);
        w.u64(5);
        w.u64(5);
        let bytes = w.into_bytes();
        assert!(Interner::<u64>::decode_columns(&mut ColReader::new(&bytes)).is_err());
    }

    #[test]
    fn fx_hasher_spreads_small_keys() {
        // Not a statistical test — just that distinct inputs map to
        // distinct outputs for a few thousand sequential keys.
        let mut seen = std::collections::HashSet::new();
        for k in 0u64..4096 {
            let mut h = FxHasher::default();
            h.write_u64(k);
            assert!(seen.insert(h.finish()), "collision at {k}");
        }
    }
}
