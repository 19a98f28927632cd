//! The workspace's one random generator, and deterministic seed derivation.
//!
//! Every stochastic component in the workspace (workload agents, endpoint
//! latency models, fault injection) derives its [`Rng`] from a master
//! scenario seed plus a string label, so independent modules never share
//! streams and whole-pipeline runs are exactly reproducible. The corpus bytes
//! are a function of this stream: each method says how many draws it makes,
//! and `the_stream_is_the_corpus_format` pins the values.

use crate::ids::{fnv1a64, fnv1a64_extend};

/// Derive a child seed from a master seed and a label.
pub(crate) fn subseed(master: u64, label: &str) -> u64 {
    fnv1a64_extend(fnv1a64(&master.to_le_bytes()), label.as_bytes())
}

/// Derive a child seed with an additional numeric discriminator
/// (e.g. per-agent, per-day streams).
pub fn subseed_n(master: u64, label: &str, n: u64) -> u64 {
    fnv1a64_extend(subseed(master, label), &n.to_le_bytes())
}

/// A seeded [`Rng`] for the given master seed and label.
pub fn rng_for(master: u64, label: &str) -> Rng {
    Rng::from_seed(subseed(master, label))
}

/// A seeded [`Rng`] with a numeric discriminator.
pub fn rng_for_n(master: u64, label: &str, n: u64) -> Rng {
    Rng::from_seed(subseed_n(master, label, n))
}

/// xoshiro256**, its four state words seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose state is the first four SplitMix64 outputs at
    /// `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut splitmix = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [splitmix(), splitmix(), splitmix(), splitmix()],
        }
    }

    /// One draw: the next word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// One draw: uniform in `[0, 1)` from its top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One draw: uniform in `[lo, hi)`, as `lo + unit() * (hi - lo)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform: empty range {lo}..{hi}");
        lo + self.unit() * (hi - lo)
    }

    /// Two draws, high word first: the 128-bit word they make taken modulo
    /// `n`, so uniform in `0..n` up to a bias below 2^-64. `a..b` is
    /// `a + below(b - a)`; `a..=b` is `a + below(b - a + 1)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below: empty range");
        let high = u128::from(self.next_u64()) << 64;
        ((high | u128::from(self.next_u64())) % u128::from(n)) as u64
    }

    /// [`Rng::below`] over a length: two draws, an index into `0..len`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_label_sensitive() {
        assert_eq!(subseed(42, "eos"), subseed(42, "eos"));
        assert_ne!(subseed(42, "eos"), subseed(42, "xrp"));
        assert_ne!(subseed(42, "eos"), subseed(43, "eos"));
        assert_ne!(subseed_n(42, "agent", 0), subseed_n(42, "agent", 1));
    }

    #[test]
    fn rng_streams_reproduce() {
        let draw = |seed| {
            let mut r = rng_for(seed, "workload/eos");
            [(); 5].map(|()| r.next_u64())
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    /// The corpus is a function of this stream: every byte the workload
    /// writes, and so every FNV pin and CI sha256, moves if one value or
    /// one draw count here does. The last draw shows how many draws the
    /// calls before it made.
    #[test]
    fn the_stream_is_the_corpus_format() {
        let mut r = rng_for(42, "workload/eos");
        let words: [u64; 3] = [r.next_u64(), r.next_u64(), r.next_u64()];
        assert_eq!(
            words,
            [
                13_257_837_256_906_795_379,
                17_610_803_862_066_409_225,
                9_354_459_887_411_973_259
            ]
        );
        assert_eq!(r.unit(), 0.294_538_718_475_449_43);
        assert_eq!(r.below(1000), 665);
        assert_eq!(3 + r.below(997), 709);
        assert_eq!(1 + r.below(30), 2);
        assert_eq!(r.uniform(-1.0, 1.0), -0.980_730_085_813_004_1);
        assert!(r.next_u64() & 1 == 1);
        assert_eq!(r.next_u64(), 12_990_667_383_798_338_718);
    }

    #[test]
    fn ranges_are_in_bounds() {
        let mut r = Rng::from_seed(1);
        for _ in 0..10_000 {
            let x = -50 + r.below(100) as i64;
            assert!((-50..50).contains(&x));
            let y = 10 + r.below(3);
            assert!((10..=12).contains(&y));
            let f = r.uniform(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
            assert!((0.0..1.0).contains(&r.unit()));
            assert!(r.index(7) < 7);
        }
    }

    #[test]
    fn uniformish_mean() {
        let mut r = Rng::from_seed(3);
        let n = 100_000;
        let mean = (0..n).map(|_| r.unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }
}
