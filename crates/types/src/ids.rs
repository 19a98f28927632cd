//! Chain identifiers and stable hashing.

use std::fmt;

/// The three high-scalability chains the paper studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Chain {
    Eos,
    Tezos,
    Xrp,
}

impl Chain {
    pub const ALL: [Chain; 3] = [Chain::Eos, Chain::Tezos, Chain::Xrp];

    /// Human name as used in the paper's tables.
    pub const fn name(self) -> &'static str {
        match self {
            Chain::Eos => "EOS",
            Chain::Tezos => "Tezos",
            Chain::Xrp => "XRP",
        }
    }

    /// Nominal block interval of the production network, in milliseconds.
    /// (EOS: 500 ms slots; Tezos Babylon: 60 s; XRP: ~3.5 s ledger close.)
    #[cfg(test)]
    const fn nominal_block_interval_ms(self) -> u64 {
        match self {
            Chain::Eos => 500,
            Chain::Tezos => 60_000,
            Chain::Xrp => 3_500,
        }
    }
}

impl fmt::Display for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// FNV-1a 64-bit hash — stable across runs and platforms, used wherever the
/// workspace needs deterministic identifiers (tx ids, seed derivation).
pub const fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(PRIME);
        i += 1;
    }
    h
}

/// Extend an existing FNV-1a state with more bytes.
pub const fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(PRIME);
        i += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_extend_matches_whole() {
        let whole = fnv1a64(b"hello world");
        let part = fnv1a64_extend(fnv1a64(b"hello "), b"world");
        assert_eq!(whole, part);
    }

    #[test]
    fn chain_metadata() {
        assert_eq!(Chain::Eos.name(), "EOS");
        assert_eq!(Chain::Tezos.nominal_block_interval_ms(), 60_000);
        assert_eq!(Chain::ALL.len(), 3);
    }
}
