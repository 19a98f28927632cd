//! Deterministic seed derivation.
//!
//! Every stochastic component in the workspace (workload agents, endpoint
//! latency models, fault injection) derives its RNG from a master scenario
//! seed plus a string label, so independent modules never share RNG streams
//! and whole-pipeline runs are exactly reproducible.

use crate::ids::{fnv1a64, fnv1a64_extend};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derive a child seed from a master seed and a label.
pub(crate) fn subseed(master: u64, label: &str) -> u64 {
    fnv1a64_extend(fnv1a64(&master.to_le_bytes()), label.as_bytes())
}

/// Derive a child seed with an additional numeric discriminator
/// (e.g. per-agent, per-day streams).
pub fn subseed_n(master: u64, label: &str, n: u64) -> u64 {
    fnv1a64_extend(subseed(master, label), &n.to_le_bytes())
}

/// A seeded `StdRng` for the given master seed and label.
pub fn rng_for(master: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(subseed(master, label))
}

/// A seeded `StdRng` with a numeric discriminator.
pub fn rng_for_n(master: u64, label: &str, n: u64) -> StdRng {
    StdRng::seed_from_u64(subseed_n(master, label, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_and_label_sensitive() {
        assert_eq!(subseed(42, "eos"), subseed(42, "eos"));
        assert_ne!(subseed(42, "eos"), subseed(42, "xrp"));
        assert_ne!(subseed(42, "eos"), subseed(43, "eos"));
        assert_ne!(subseed_n(42, "agent", 0), subseed_n(42, "agent", 1));
    }

    #[test]
    fn rng_streams_reproduce() {
        let a: Vec<u32> = {
            let mut r = rng_for(7, "workload/eos");
            (0..5).map(|_| r.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut r = rng_for(7, "workload/eos");
            (0..5).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }
}
