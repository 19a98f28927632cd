//! The Tezos chain: Liquid-Proof-of-Stake baking with mandatory
//! endorsements — the structural reason 82% of Tezos throughput is
//! consensus traffic (§3.2).
//!
//! Every block must carry endorsements covering all 32 endorsement slots of
//! its predecessor. Because endorsement operations are per-*baker* (one
//! operation can cover several slots), a block carries ~20–30 endorsement
//! operations regardless of how many payment transactions exist. With only
//! ~4.5 transactions per block in late 2019, endorsements dominate.
//!
//! Baking and endorsing rights are drawn per level from a roll-weighted
//! distribution over the registered bakers. Every block draws 1 + 32 times
//! from it, so the chain keeps it as state (`Rights`) instead of rebuilding
//! it per draw. Invariant: `rights` describes exactly `bakers` at roll size
//! `rights.roll_size_mutez`. `register_baker` — the only writer of `bakers`
//! — rebuilds it; `config` is a public field, so an edited
//! `config.roll_size_mutez` is caught by comparing it with the cached key:
//! `produce_block` rebuilds before it draws, the `&self` queries draw from
//! a fresh table for that call.

use crate::address::{AddrKind, Address};
use crate::governance::{GovError, GovernanceConfig, GovernanceState};
use crate::ops::{OpPayload, Operation};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
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

/// The roll-weighted rights distribution of one baker set at one roll size.
#[derive(Debug, Clone)]
struct Rights {
    /// The roll size the weights were computed at (the cache key).
    roll_size_mutez: u64,
    /// Roll-weighted draw over baker indices; `None` while no baker holds
    /// a roll (drawing then is a caller bug, as it always was).
    dist: Option<WeightedIndex>,
    /// Baker indices in address order, the order endorsements are emitted in.
    by_address: Vec<usize>,
    total_rolls: u64,
}

impl Rights {
    fn new(bakers: &[Baker], roll_size_mutez: u64) -> Self {
        let rolls: Vec<u64> = bakers.iter().map(|b| b.staked_mutez / roll_size_mutez).collect();
        let weights: Vec<f64> = rolls.iter().map(|r| *r as f64).collect();
        let mut by_address: Vec<usize> = (0..bakers.len()).collect();
        by_address.sort_by_key(|i| bakers[*i].address);
        let total_rolls = rolls.iter().sum();
        Rights {
            roll_size_mutez,
            dist: (total_rolls > 0).then(|| WeightedIndex::new(&weights)),
            by_address,
            total_rolls,
        }
    }

    fn dist(&self) -> &WeightedIndex {
        self.dist.as_ref().expect("no baker holds a roll to draw rights with")
    }
}

/// The simulated Tezos chain.
pub struct TezosChain {
    pub config: TezosConfig,
    bakers: Vec<Baker>,
    rights: Rights,
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
            rights: Rights::new(&[], config.roll_size_mutez),
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
        self.rights = Rights::new(&self.bakers, self.config.roll_size_mutez);
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
        self.rights().total_rolls
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

    /// The rights table for the current bakers and roll size: the cached
    /// one, unless `config.roll_size_mutez` was edited since it was built.
    fn rights(&self) -> Cow<'_, Rights> {
        if self.rights.roll_size_mutez == self.config.roll_size_mutez {
            Cow::Borrowed(&self.rights)
        } else {
            Cow::Owned(Rights::new(&self.bakers, self.config.roll_size_mutez))
        }
    }

    /// Deterministic priority-0 baker for a level (roll-weighted draw).
    pub fn baker_for_level(&self, level: u64) -> Address {
        let idx = self
            .rights()
            .dist()
            .sample(&mut rng_for_n(self.config.seed, "tezos/bake", level));
        self.bakers[idx].address
    }

    /// Deterministic endorser assignment for a level: all `endorsement_slots`
    /// slots drawn roll-weighted, grouped per baker → (baker, slot count),
    /// in address order.
    pub fn endorsers_for_level(&self, level: u64) -> Vec<(Address, u32)> {
        let rights = self.rights();
        let dist = rights.dist();
        let mut rng = rng_for_n(self.config.seed, "tezos/endorse", level);
        let mut slots_of = vec![0u32; self.bakers.len()];
        for _ in 0..self.config.endorsement_slots {
            slots_of[dist.sample(&mut rng)] += 1;
        }
        let mut out = Vec::with_capacity(self.bakers.len().min(self.config.endorsement_slots as usize));
        for &i in &rights.by_address {
            if slots_of[i] > 0 {
                out.push((self.bakers[i].address, slots_of[i]));
            }
        }
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
    pub fn produce_block(&mut self, mut submitted: Vec<Operation>) -> &TezosBlock {
        if self.rights.roll_size_mutez != self.config.roll_size_mutez {
            self.rights = Rights::new(&self.bakers, self.config.roll_size_mutez);
        }
        let level = self.config.start_level + self.blocks.len() as u64;
        let time = self.next_block_time();
        let baker = self.baker_for_level(level);

        // Validation pass 0: endorsements of the previous block.
        let endorsers =
            if self.blocks.is_empty() { Vec::new() } else { self.endorsers_for_level(level - 1) };
        let mut operations: Vec<Operation> = Vec::with_capacity(endorsers.len() + submitted.len());
        for (endorser, slots) in endorsers {
            operations.push(Operation::new(
                endorser,
                OpPayload::Endorsement { level: level - 1, slots: slots as u8 },
            ));
        }
        // Remaining passes, in order (the sort is stable: submission order
        // holds within a pass).
        submitted.sort_by_key(|op| op.kind().validation_pass());
        for op in submitted {
            if op.kind().validation_pass() == 0 {
                // Endorsements submitted externally are ignored (pass 0 is
                // synthesized).
                self.rejected_ops += 1;
                continue;
            }
            match self.apply_op(&op) {
                Ok(()) => operations.push(op),
                Err(_) => self.rejected_ops += 1,
            }
        }

        self.governance.advance_block(self.rights.total_rolls);

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

    /// The from-scratch rights draw the chain made per call before it kept
    /// `Rights`: fresh roll weights and `WeightedIndex`, slots grouped
    /// through a map, sorted by address.
    fn reference_rights(c: &TezosChain, level: u64) -> (Address, Vec<(Address, u32)>) {
        let weights: Vec<f64> = c
            .bakers
            .iter()
            .map(|b| (b.staked_mutez / c.config.roll_size_mutez) as f64)
            .collect();
        let dist = WeightedIndex::new(&weights);
        let baker = dist.sample(&mut rng_for_n(c.config.seed, "tezos/bake", level));
        let mut rng = rng_for_n(c.config.seed, "tezos/endorse", level);
        let mut slots_per: HashMap<usize, u32> = HashMap::new();
        for _ in 0..c.config.endorsement_slots {
            *slots_per.entry(dist.sample(&mut rng)).or_insert(0) += 1;
        }
        let mut endorsers: Vec<(Address, u32)> =
            slots_per.into_iter().map(|(i, n)| (c.bakers[i].address, n)).collect();
        endorsers.sort_by_key(|(a, _)| *a);
        (c.bakers[baker].address, endorsers)
    }

    fn assert_rights_match_reference(c: &TezosChain, levels: &[u64]) {
        for &level in levels {
            let (baker, endorsers) = reference_rights(c, level);
            assert_eq!(c.baker_for_level(level), baker, "baker of level {level}");
            assert_eq!(c.endorsers_for_level(level), endorsers, "endorsers of level {level}");
        }
        let rolls: u64 = c.bakers.iter().map(|b| b.staked_mutez / c.config.roll_size_mutez).sum();
        assert_eq!(c.total_rolls(), rolls);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The cached rights equal a from-scratch draw for any baker set,
            /// and cannot go stale: not when a baker registers after blocks
            /// were produced, not when `config.roll_size_mutez` is edited.
            #[test]
            fn rights_equal_the_from_scratch_reference(
                // Out-of-order ids, so address order differs from
                // registration order.
                stakes in proptest::collection::vec(10_000u64..3_000_000, 1..40),
                late_stake in 10_000u64..3_000_000,
                roll_size_tez in 1u64..10_000,
                levels in proptest::collection::vec(any::<u64>(), 1..6),
                slots in 1u32..80,
            ) {
                let cfg = TezosConfig { endorsement_slots: slots, ..TezosConfig::default() };
                let mut c = TezosChain::new(cfg);
                for (i, stake) in stakes.iter().enumerate() {
                    let id = (i as u64 * 7_919) % 101 + 1_000 * (i as u64 % 3);
                    c.register_baker(Address::implicit(id), stake * MUTEZ_PER_TEZ).unwrap();
                }
                assert_rights_match_reference(&c, &levels);

                for _ in 0..3 {
                    c.produce_block(vec![]);
                }
                c.register_baker(Address::implicit(999_999), late_stake * MUTEZ_PER_TEZ).unwrap();
                assert_rights_match_reference(&c, &levels);

                // Edited behind the chain's back: the `&self` queries must
                // already answer for the new roll size …
                c.config.roll_size_mutez = roll_size_tez * MUTEZ_PER_TEZ;
                assert_rights_match_reference(&c, &levels);
                // … and so must the blocks produced from here on.
                let level = c.head_level() + 1;
                let (baker, _) = reference_rights(&c, level);
                let (_, endorsers) = reference_rights(&c, level - 1);
                let block = c.produce_block(vec![]).clone();
                prop_assert_eq!(block.baker, baker);
                let endorsed: Vec<(Address, u32)> = block
                    .operations
                    .iter()
                    .map(|op| match op.payload {
                        OpPayload::Endorsement { slots, .. } => (op.source, slots as u32),
                        _ => unreachable!("no operation was submitted"),
                    })
                    .collect();
                prop_assert_eq!(endorsed, endorsers);
                assert_rights_match_reference(&c, &levels);
            }
        }
    }

    #[test]
    fn submitted_operations_are_applied_in_pass_order() {
        let mut c = chain_with_bakers(3);
        let (a, b) = (Address::implicit(0), Address::implicit(400));
        let tx = |amount| Operation::new(a, OpPayload::Transaction { destination: b, amount_mutez: amount });
        let submitted = vec![
            tx(1),
            Operation::new(a, OpPayload::Endorsement { level: 1, slots: 1 }),
            Operation::new(Address::implicit(500), OpPayload::Activation { secret_hash: 9 }),
            tx(2),
            Operation::new(Address::implicit(1), OpPayload::RevealNonce { level: 1 }),
        ];
        let block = c.produce_block(submitted.clone());
        // Anonymous (pass 2) before managers (pass 3), submission order kept
        // within a pass, the external endorsement dropped.
        let order = [2usize, 4, 0, 3].map(|i| submitted[i].clone());
        assert_eq!(block.operations, order);
        assert_eq!(c.rejected_ops, 1);
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
