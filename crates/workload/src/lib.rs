//! # txstat-workload — agent-based traffic calibrated to the paper
//!
//! Generates the three chains' Oct 1 – Dec 31 2019 traffic with every
//! phenomenon the paper measures:
//!
//! - **EOS** ([`eos`]): betting-dominated baseline (betdice/bluebet
//!   clusters, pornhashbaby, eossanguoone, WhaleEx wash trading, MYKEY
//!   relays), then the EIDOS airdrop from Nov 1 — boomerang mining
//!   transactions that multiply throughput ~10× and flip the chain into
//!   congestion mode.
//! - **Tezos** ([`tezos`]): endorsement-dominated consensus traffic, a thin
//!   stream of payments, faucet-pattern senders, and the Babylon governance
//!   replay (proposal → exploration → promotion vote curves).
//! - **XRP** ([`xrp`]): Huobi-cluster offer bots (tag 104398), two
//!   zero-value payment-spam waves, gateway IOU issuance, exchange flows,
//!   Ripple's monthly escrow cycle, and the Myrone self-dealt BTC IOU pump.
//!
//! Counts are scaled by per-chain divisors ([`Scenario`]'s `*_divisor`
//! fields; the root README's "Figure 2 methodology" has the scenario-scale
//! rule and the one soft-scaled exception); all shares and shapes are
//! divisor-invariant.

// EOS asset amounts are 4-decimal fixed point; literals group as
// <whole>_<4 decimals> on purpose.
#![allow(clippy::inconsistent_digit_grouping)]

pub mod eos;
pub mod tezos;
pub mod xrp;

use txstat_types::time::{ChainTime, Period};

/// A complete scenario description.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub seed: u64,
    /// The observation window (the paper: Oct 1 2019 – Jan 1 2020).
    pub period: Period,
    /// Transaction-count divisor per chain vs the paper's raw volumes.
    pub eos_divisor: f64,
    pub tezos_divisor: f64,
    pub xrp_divisor: f64,
    /// Scenario block intervals (widened so the window fits in memory).
    pub eos_block_secs: i64,
    pub tezos_block_secs: i64,
    pub xrp_close_secs: i64,
    /// Tezos chain genesis; set before the window to cover the Babylon
    /// voting periods (proposal period opened Jul 17, 2019).
    pub tezos_genesis: ChainTime,
    /// Replay the Babylon amendment process (Figure 9).
    pub governance_replay: bool,
}

impl Scenario {
    /// The full paper reproduction at the default 1/1000 (EOS, XRP) and
    /// 1/10 (Tezos) scales.
    pub fn paper(seed: u64) -> Self {
        Scenario {
            seed,
            period: Period::paper(),
            eos_divisor: 1000.0,
            tezos_divisor: 10.0,
            xrp_divisor: 1000.0,
            eos_block_secs: 300,
            tezos_block_secs: 600,
            xrp_close_secs: 3600,
            tezos_genesis: ChainTime::from_ymd(2019, 7, 17),
            governance_replay: true,
        }
    }

    /// A small scenario for tests and micro-benchmarks: a 12-day window
    /// straddling the EIDOS launch (Oct 26 – Nov 7), heavier divisors.
    pub fn small(seed: u64) -> Self {
        Scenario {
            seed,
            period: Period::new(
                ChainTime::from_ymd(2019, 10, 26),
                ChainTime::from_ymd(2019, 11, 7),
            ),
            eos_divisor: 20_000.0,
            tezos_divisor: 100.0,
            xrp_divisor: 20_000.0,
            eos_block_secs: 1800,
            tezos_block_secs: 3600,
            xrp_close_secs: 7200,
            tezos_genesis: ChainTime::from_ymd(2019, 7, 17),
            governance_replay: true,
        }
    }

    /// Number of chain blocks covering the window for a given interval,
    /// starting at the window start.
    pub fn block_count(&self, interval_secs: i64) -> u64 {
        (self.period.seconds() / interval_secs).max(1) as u64
    }

    /// Scale a paper-calibrated daily rate by a divisor and convert to a
    /// per-block expectation.
    pub(crate) fn per_block(daily_rate: f64, divisor: f64, block_secs: i64) -> f64 {
        daily_rate / divisor * block_secs as f64 / 86_400.0
    }
}

/// The EIDOS launch instant: Nov 1, 2019 (§4.1).
pub fn eidos_launch() -> ChainTime {
    ChainTime::from_ymd(2019, 11, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let p = Scenario::paper(1);
        assert_eq!(p.period.days(), 92.0);
        assert!(
            p.tezos_genesis < p.period.start,
            "genesis covers governance replay"
        );
        let s = Scenario::small(1);
        assert!(s.period.days() < 15.0);
        assert!(
            s.period.contains(eidos_launch()),
            "small window straddles EIDOS launch"
        );
    }

    #[test]
    fn per_block_scaling() {
        // 1000/day at divisor 10, 8640-second blocks → 10 per block.
        let r = Scenario::per_block(1000.0, 10.0, 8640);
        assert!((r - 10.0).abs() < 1e-9);
    }

    #[test]
    fn block_count() {
        let p = Scenario::paper(1);
        assert_eq!(p.block_count(86_400), 92);
    }
}
