//! The Tezos chain: Liquid-Proof-of-Stake baking with mandatory
//! endorsements — the structural reason 82% of Tezos throughput is
//! consensus traffic (§3.2).
//!
//! Every block must carry endorsements covering all 32 endorsement slots of
//! its predecessor. Because endorsement operations are per-*baker* (one
//! operation can cover several slots), a block carries ~20–30 endorsement
//! operations regardless of how many payment transactions exist. With only
//! ~4.5 transactions per block in late 2019, endorsements dominate.

use crate::address::{AddrKind, Address};
use crate::governance::{GovError, GovernanceConfig, GovernanceState};
use crate::ops::{OpPayload, Operation};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use txstat_types::distrib::WeightedIndex;
use txstat_types::rng::rng_for_n;
use txstat_types::time::ChainTime;

/// One mutez = 10⁻⁶ ꜩ.
pub const MUTEZ_PER_TEZ: u64 = 1_000_000;

/// Chain parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TezosConfig {
    pub genesis_time: ChainTime,
    /// Scenario block interval (mainnet Babylon: ~60 s).
    pub block_interval_secs: i64,
    /// First level, mirroring the paper's dataset (628,951–760,751).
    pub start_level: u64,
    /// Endorsement slots per block (Babylon: 32).
    pub endorsement_slots: u32,
    /// Stake threshold to bake, per the paper: 10,000 ꜩ.
    pub baker_threshold_mutez: u64,
    /// Roll size used for vote weights.
    pub roll_size_mutez: u64,
    /// Amount credited by a fundraiser `Activation`.
    pub activation_amount_mutez: u64,
    /// Master seed for deterministic baker/endorser selection.
    pub seed: u64,
    pub governance: GovernanceConfig,
}

impl Default for TezosConfig {
    fn default() -> Self {
        TezosConfig {
            genesis_time: ChainTime::from_ymd(2019, 9, 29),
            block_interval_secs: 60,
            start_level: 628_951,
            endorsement_slots: 32,
            baker_threshold_mutez: 10_000 * MUTEZ_PER_TEZ,
            roll_size_mutez: 10_000 * MUTEZ_PER_TEZ,
            activation_amount_mutez: 500 * MUTEZ_PER_TEZ,
            seed: 0x7e205,
            governance: GovernanceConfig::default(),
        }
    }
}

/// A registered baker with its stake.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Baker {
    pub address: Address,
    pub staked_mutez: u64,
}

/// A produced block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TezosBlock {
    pub level: u64,
    pub time: ChainTime,
    pub baker: Address,
    /// Operations in validation-pass order (endorsements, votes, anonymous,
    /// managers).
    pub operations: Vec<Operation>,
}

/// Errors applying operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TezosError {
    InsufficientBalance { source: Address, have: u64, need: u64 },
    NotImplicit(Address),
    NotABaker(Address),
    BelowBakerThreshold { address: Address, staked: u64 },
    AlreadyRevealed(Address),
    AlreadyActivated(Address),
    DelegateNotBaker(Address),
    Governance(GovError),
}

impl From<GovError> for TezosError {
    fn from(e: GovError) -> Self {
        TezosError::Governance(e)
    }
}

impl std::fmt::Display for TezosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TezosError::InsufficientBalance { source, have, need } => {
                write!(f, "{source}: balance {have} < {need}")
            }
            TezosError::NotImplicit(a) => write!(f, "{a} must be implicit"),
            TezosError::NotABaker(a) => write!(f, "{a} is not a baker"),
            TezosError::BelowBakerThreshold { address, staked } => {
                write!(f, "{address} staked {staked} below baker threshold")
            }
            TezosError::AlreadyRevealed(a) => write!(f, "{a} already revealed"),
            TezosError::AlreadyActivated(a) => write!(f, "{a} already activated"),
            TezosError::DelegateNotBaker(a) => write!(f, "delegate {a} is not a baker"),
            TezosError::Governance(e) => write!(f, "governance: {e}"),
        }
    }
}

impl std::error::Error for TezosError {}

/// The simulated Tezos chain.
pub struct TezosChain {
    pub config: TezosConfig,
    bakers: Vec<Baker>,
    baker_index: HashMap<Address, usize>,
    balances: HashMap<Address, u64>,
    delegates: HashMap<Address, Address>,
    revealed: HashSet<Address>,
    activated: HashSet<Address>,
    pub governance: GovernanceState,
    blocks: Vec<TezosBlock>,
    /// Operations rejected during production.
    pub rejected_ops: u64,
    /// Mutez created by activations/genesis funding (audit).
    pub minted_mutez: u64,
}

impl TezosChain {
    pub fn new(config: TezosConfig) -> Self {
        let governance = GovernanceState::new(config.governance.clone());
        TezosChain {
            config,
            bakers: Vec::new(),
            baker_index: HashMap::new(),
            balances: HashMap::new(),
            delegates: HashMap::new(),
            revealed: HashSet::new(),
            activated: HashSet::new(),
            governance,
            blocks: Vec::new(),
            rejected_ops: 0,
            minted_mutez: 0,
        }
    }

    // ---- setup -----------------------------------------------------------

    /// Genesis funding (audited as minted).
    pub fn fund(&mut self, address: Address, mutez: u64) {
        *self.balances.entry(address).or_insert(0) += mutez;
        self.minted_mutez += mutez;
    }

    /// Register a baker; must be implicit and meet the 10,000 ꜩ threshold.
    pub fn register_baker(&mut self, address: Address, staked_mutez: u64) -> Result<(), TezosError> {
        if address.kind != AddrKind::Implicit {
            return Err(TezosError::NotImplicit(address));
        }
        if staked_mutez < self.config.baker_threshold_mutez {
            return Err(TezosError::BelowBakerThreshold { address, staked: staked_mutez });
        }
        self.baker_index.insert(address, self.bakers.len());
        self.bakers.push(Baker { address, staked_mutez });
        Ok(())
    }

    pub fn is_baker(&self, address: Address) -> bool {
        self.baker_index.contains_key(&address)
    }

    pub fn bakers(&self) -> &[Baker] {
        &self.bakers
    }

    pub fn rolls_of(&self, address: Address) -> u64 {
        self.baker_index
            .get(&address)
            .map(|i| self.bakers[*i].staked_mutez / self.config.roll_size_mutez)
            .unwrap_or(0)
    }

    pub fn total_rolls(&self) -> u64 {
        self.bakers.iter().map(|b| b.staked_mutez / self.config.roll_size_mutez).sum()
    }

    pub fn balance(&self, address: Address) -> u64 {
        self.balances.get(&address).copied().unwrap_or(0)
    }

    pub fn delegate_of(&self, address: Address) -> Option<Address> {
        self.delegates.get(&address).copied()
    }

    pub fn blocks(&self) -> &[TezosBlock] {
        &self.blocks
    }

    /// Give up the chain for its blocks (moved, not copied).
    pub fn into_blocks(self) -> Vec<TezosBlock> {
        self.blocks
    }

    pub fn head_level(&self) -> u64 {
        self.config.start_level + self.blocks.len().saturating_sub(1) as u64
    }

    pub fn block_by_level(&self, level: u64) -> Option<&TezosBlock> {
        let idx = level.checked_sub(self.config.start_level)? as usize;
        self.blocks.get(idx)
    }

    pub fn next_block_time(&self) -> ChainTime {
        self.config.genesis_time + self.blocks.len() as i64 * self.config.block_interval_secs
    }

    // ---- baking rights ----------------------------------------------------

    fn roll_weights(&self) -> Vec<f64> {
        self.bakers
            .iter()
            .map(|b| (b.staked_mutez / self.config.roll_size_mutez) as f64)
            .collect()
    }

    /// Deterministic priority-0 baker for a level (roll-weighted draw).
    pub fn baker_for_level(&self, level: u64) -> Address {
        assert!(!self.bakers.is_empty(), "no bakers registered");
        let weights = self.roll_weights();
        let idx = WeightedIndex::new(&weights)
            .sample(&mut rng_for_n(self.config.seed, "tezos/bake", level));
        self.bakers[idx].address
    }

    /// Deterministic endorser assignment for a level: all `endorsement_slots`
    /// slots drawn roll-weighted, grouped per baker → (baker, slot count).
    pub fn endorsers_for_level(&self, level: u64) -> Vec<(Address, u32)> {
        assert!(!self.bakers.is_empty(), "no bakers registered");
        let weights = self.roll_weights();
        let dist = WeightedIndex::new(&weights);
        let mut rng = rng_for_n(self.config.seed, "tezos/endorse", level);
        let mut slots_per: HashMap<usize, u32> = HashMap::new();
        for _ in 0..self.config.endorsement_slots {
            *slots_per.entry(dist.sample(&mut rng)).or_insert(0) += 1;
        }
        let mut out: Vec<(Address, u32)> = slots_per
            .into_iter()
            .map(|(i, n)| (self.bakers[i].address, n))
            .collect();
        out.sort_by_key(|(a, _)| *a);
        out
    }

    // ---- operation application --------------------------------------------

    fn apply_op(&mut self, op: &Operation) -> Result<(), TezosError> {
        match &op.payload {
            OpPayload::Transaction { destination, amount_mutez } => {
                let have = self.balance(op.source);
                if have < *amount_mutez {
                    return Err(TezosError::InsufficientBalance {
                        source: op.source,
                        have,
                        need: *amount_mutez,
                    });
                }
                *self.balances.entry(op.source).or_insert(0) -= amount_mutez;
                *self.balances.entry(*destination).or_insert(0) += amount_mutez;
            }
            OpPayload::Origination { contract, balance_mutez } => {
                let have = self.balance(op.source);
                if have < *balance_mutez {
                    return Err(TezosError::InsufficientBalance {
                        source: op.source,
                        have,
                        need: *balance_mutez,
                    });
                }
                *self.balances.entry(op.source).or_insert(0) -= balance_mutez;
                *self.balances.entry(*contract).or_insert(0) += balance_mutez;
            }
            OpPayload::Delegation { delegate } => {
                if let Some(d) = delegate {
                    if !self.is_baker(*d) {
                        return Err(TezosError::DelegateNotBaker(*d));
                    }
                    self.delegates.insert(op.source, *d);
                } else {
                    self.delegates.remove(&op.source);
                }
            }
            OpPayload::Reveal => {
                if !self.revealed.insert(op.source) {
                    return Err(TezosError::AlreadyRevealed(op.source));
                }
            }
            OpPayload::Activation { .. } => {
                if op.source.kind != AddrKind::Implicit {
                    return Err(TezosError::NotImplicit(op.source));
                }
                if !self.activated.insert(op.source) {
                    return Err(TezosError::AlreadyActivated(op.source));
                }
                *self.balances.entry(op.source).or_insert(0) +=
                    self.config.activation_amount_mutez;
                self.minted_mutez += self.config.activation_amount_mutez;
            }
            OpPayload::RevealNonce { .. } => {
                if !self.is_baker(op.source) {
                    return Err(TezosError::NotABaker(op.source));
                }
            }
            OpPayload::Ballot { proposal, vote } => {
                if !self.is_baker(op.source) {
                    return Err(TezosError::NotABaker(op.source));
                }
                let rolls = self.rolls_of(op.source);
                self.governance.ballot(op.source, rolls, proposal, *vote)?;
            }
            OpPayload::Proposals { proposals } => {
                if !self.is_baker(op.source) {
                    return Err(TezosError::NotABaker(op.source));
                }
                let rolls = self.rolls_of(op.source);
                self.governance.submit_proposals(op.source, rolls, proposals)?;
            }
            OpPayload::Endorsement { .. } | OpPayload::DoubleBakingEvidence { .. } => {
                // Endorsements are produced by the chain itself; evidence is
                // accepted as-is (4 occurrences in the whole dataset).
            }
        }
        Ok(())
    }

    /// Produce the next block: the chain injects the consensus layer
    /// (endorsements of the previous block covering all 32 slots), validates
    /// the submitted operations, advances governance, and appends the block.
    pub fn produce_block(&mut self, submitted: Vec<Operation>) -> &TezosBlock {
        let level = self.config.start_level + self.blocks.len() as u64;
        let time = self.next_block_time();
        let baker = self.baker_for_level(level);

        let mut operations: Vec<Operation> = Vec::new();
        // Validation pass 0: endorsements of the previous block.
        if !self.blocks.is_empty() {
            let prev = level - 1;
            for (endorser, slots) in self.endorsers_for_level(prev) {
                operations.push(Operation::new(
                    endorser,
                    OpPayload::Endorsement { level: prev, slots: slots as u8 },
                ));
            }
        }
        // Remaining passes, in order.
        let mut by_pass: [Vec<Operation>; 4] = [vec![], vec![], vec![], vec![]];
        for op in submitted {
            by_pass[op.kind().validation_pass()].push(op);
        }
        for pass in [1usize, 2, 3] {
            for op in std::mem::take(&mut by_pass[pass]) {
                match self.apply_op(&op) {
                    Ok(()) => operations.push(op),
                    Err(_) => self.rejected_ops += 1,
                }
            }
        }
        // Endorsements submitted externally are ignored (pass 0 is synthesized).
        self.rejected_ops += by_pass[0].len() as u64;

        let total_rolls = self.total_rolls();
        self.governance.advance_block(total_rolls);

        self.blocks.push(TezosBlock { level, time, baker, operations });
        self.blocks.last().expect("just pushed")
    }

    /// Total operations across all blocks.
    pub fn op_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.operations.len() as u64).sum()
    }

    /// Audit: Σ balances == minted (no mutez created or destroyed by ops).
    pub fn check_conservation(&self) -> Result<(), String> {
        let total: u64 = self.balances.values().sum();
        if total != self.minted_mutez {
            return Err(format!("balances {} != minted {}", total, self.minted_mutez));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Vote;

    fn chain_with_bakers(n: u64) -> TezosChain {
        let mut cfg = TezosConfig::default();
        cfg.governance.period_blocks = 1_000_000; // effectively disabled
        let mut c = TezosChain::new(cfg);
        for i in 0..n {
            let a = Address::implicit(i);
            c.fund(a, 50_000 * MUTEZ_PER_TEZ);
            c.register_baker(a, (20_000 + i * 10_000) * MUTEZ_PER_TEZ).unwrap();
        }
        c
    }

    #[test]
    fn every_block_covers_all_endorsement_slots() {
        let mut c = chain_with_bakers(30);
        for _ in 0..10 {
            c.produce_block(vec![]);
        }
        // Block 0 has no predecessor; all others carry exactly 32 slots.
        for b in &c.blocks()[1..] {
            let slot_sum: u32 = b
                .operations
                .iter()
                .filter_map(|o| match o.payload {
                    OpPayload::Endorsement { slots, .. } => Some(slots as u32),
                    _ => None,
                })
                .sum();
            assert_eq!(slot_sum, 32, "level {}", b.level);
            // Fewer endorsement *operations* than slots (grouped per baker).
            let ops = b
                .operations
                .iter()
                .filter(|o| matches!(o.payload, OpPayload::Endorsement { .. }))
                .count();
            assert!((2..=32).contains(&ops), "ops={ops}");
        }
    }

    #[test]
    fn baking_is_deterministic_and_roll_weighted() {
        let c = chain_with_bakers(10);
        let b1 = c.baker_for_level(700_000);
        let b2 = c.baker_for_level(700_000);
        assert_eq!(b1, b2, "same level, same baker");
        // Heavier bakers bake more often.
        let mut counts: HashMap<Address, u32> = HashMap::new();
        for l in 0..3000 {
            *counts.entry(c.baker_for_level(l)).or_insert(0) += 1;
        }
        let lightest = counts.get(&Address::implicit(0)).copied().unwrap_or(0);
        let heaviest = counts.get(&Address::implicit(9)).copied().unwrap_or(0);
        assert!(heaviest > lightest * 2, "heaviest={heaviest} lightest={lightest}");
    }

    #[test]
    fn transactions_move_balances_and_conserve() {
        let mut c = chain_with_bakers(5);
        let (src, dst) = (Address::implicit(0), Address::implicit(100));
        c.produce_block(vec![Operation::new(
            src,
            OpPayload::Transaction { destination: dst, amount_mutez: 7 * MUTEZ_PER_TEZ },
        )]);
        assert_eq!(c.balance(dst), 7 * MUTEZ_PER_TEZ);
        c.check_conservation().unwrap();
        // Overdrawn tx is rejected, not applied.
        c.produce_block(vec![Operation::new(
            dst,
            OpPayload::Transaction { destination: src, amount_mutez: 1_000_000 * MUTEZ_PER_TEZ },
        )]);
        assert_eq!(c.rejected_ops, 1);
        c.check_conservation().unwrap();
    }

    #[test]
    fn origination_creates_funded_contract() {
        let mut c = chain_with_bakers(3);
        let kt = Address::originated(1);
        c.produce_block(vec![Operation::new(
            Address::implicit(0),
            OpPayload::Origination { contract: kt, balance_mutez: MUTEZ_PER_TEZ },
        )]);
        assert_eq!(c.balance(kt), MUTEZ_PER_TEZ);
        c.check_conservation().unwrap();
    }

    #[test]
    fn delegation_requires_baker() {
        let mut c = chain_with_bakers(3);
        let user = Address::implicit(55);
        c.fund(user, MUTEZ_PER_TEZ);
        c.produce_block(vec![
            Operation::new(user, OpPayload::Delegation { delegate: Some(Address::implicit(0)) }),
            Operation::new(user, OpPayload::Delegation { delegate: Some(Address::implicit(77)) }),
        ]);
        assert_eq!(c.delegate_of(user), Some(Address::implicit(0)));
        assert_eq!(c.rejected_ops, 1, "delegation to non-baker rejected");
    }

    #[test]
    fn activation_credits_once() {
        let mut c = chain_with_bakers(3);
        let fresh = Address::implicit(200);
        c.produce_block(vec![
            Operation::new(fresh, OpPayload::Activation { secret_hash: 1 }),
            Operation::new(fresh, OpPayload::Activation { secret_hash: 1 }),
        ]);
        assert_eq!(c.balance(fresh), c.config.activation_amount_mutez);
        assert_eq!(c.rejected_ops, 1);
        c.check_conservation().unwrap();
    }

    #[test]
    fn reveal_and_duplicate_reveal() {
        let mut c = chain_with_bakers(3);
        let u = Address::implicit(300);
        c.produce_block(vec![
            Operation::new(u, OpPayload::Reveal),
            Operation::new(u, OpPayload::Reveal),
        ]);
        assert_eq!(c.rejected_ops, 1);
    }

    #[test]
    fn governance_ops_flow_through_chain() {
        let mut cfg = TezosConfig::default();
        cfg.governance.period_blocks = 4;
        cfg.governance.initial_quorum_pct = 10.0;
        let mut c = TezosChain::new(cfg);
        for i in 0..4u64 {
            let a = Address::implicit(i);
            c.register_baker(a, 100_000 * MUTEZ_PER_TEZ).unwrap();
        }
        // Proposal period: two bakers upvote.
        c.produce_block(vec![
            Operation::new(
                Address::implicit(0),
                OpPayload::Proposals { proposals: vec!["Babylon2".into()] },
            ),
            Operation::new(
                Address::implicit(1),
                OpPayload::Proposals { proposals: vec!["Babylon2".into()] },
            ),
        ]);
        for _ in 0..3 {
            c.produce_block(vec![]);
        }
        assert_eq!(c.governance.period_kind, crate::governance::PeriodKind::Exploration);
        // Ballot from a non-baker is rejected.
        let civilians = Operation::new(
            Address::implicit(99),
            OpPayload::Ballot { proposal: "Babylon2".into(), vote: Vote::Yay },
        );
        let before = c.rejected_ops;
        c.produce_block(vec![
            civilians,
            Operation::new(
                Address::implicit(0),
                OpPayload::Ballot { proposal: "Babylon2".into(), vote: Vote::Yay },
            ),
        ]);
        assert_eq!(c.rejected_ops, before + 1);
        assert_eq!(c.governance.yay_rolls, 10);
    }

    #[test]
    fn baker_registration_rules() {
        let mut c = TezosChain::new(TezosConfig::default());
        assert!(matches!(
            c.register_baker(Address::originated(1), 100_000 * MUTEZ_PER_TEZ),
            Err(TezosError::NotImplicit(_))
        ));
        assert!(matches!(
            c.register_baker(Address::implicit(1), 9_999 * MUTEZ_PER_TEZ),
            Err(TezosError::BelowBakerThreshold { .. })
        ));
        c.register_baker(Address::implicit(1), 10_000 * MUTEZ_PER_TEZ).unwrap();
        assert_eq!(c.rolls_of(Address::implicit(1)), 1);
    }
}
