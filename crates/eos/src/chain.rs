//! The EOS chain state machine: DPoS production schedule, transaction
//! application (including inline actions from airdrop contracts), and the
//! block store the RPC endpoints serve.

use crate::account::{AccountError, AccountRegistry};
use crate::contract::ContractRegistry;
use crate::name::Name;
use crate::resources::{ResourceError, ResourceState};
use crate::token::{TokenError, TokenId, TokenLedger};
use crate::types::{Action, ActionData, Block, Receipt, Transaction};
use txstat_types::ids::fnv1a64;
use txstat_types::time::ChainTime;

/// Chain-level configuration.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    pub genesis_time: ChainTime,
    /// Simulated block interval in seconds. Mainnet is 0.5 s; scenarios use
    /// a widened interval so a 3-month window stays in memory
    /// (`txstat_workload::Scenario::eos_block_secs`).
    pub block_interval_secs: i64,
    /// First block number, so block indices can mirror the paper's dataset
    /// (EOS blocks 82,024,737–98,324,735).
    pub start_block_num: u64,
    pub resources: crate::resources::ResourceConfig,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            genesis_time: ChainTime::from_ymd(2019, 10, 1),
            block_interval_secs: 1,
            start_block_num: 82_024_737,
            resources: crate::resources::ResourceConfig::default(),
        }
    }
}

/// The 21-producer DPoS schedule (§2.2): blocks are produced in rounds of
/// 126 = 6 × 21; each producer gets 6 consecutive slots per round.
#[derive(Debug, Clone)]
pub struct ProducerSchedule {
    pub active: Vec<Name>,
    pub version: u32,
}

impl ProducerSchedule {
    pub const PRODUCERS: usize = 21;
    pub const SLOTS_PER_PRODUCER: u64 = 6;
    pub const ROUND_SLOTS: u64 = 126;

    /// A deterministic default set of 21 producers.
    pub fn default_producers() -> Self {
        let names = [
            "eosbpone1111", "eosbptwo1111", "eosbpthree11", "eosbpfour111", "eosbpfive111",
            "eosbpsix1111", "eosbpseven11", "eosbpeight11", "eosbpnine111", "eosbpten1111",
            "eosbpeleven1", "eosbptwelve1", "eosbpthirt11", "eosbpfourt11", "eosbpfift111",
            "eosbpsixt111", "eosbpsevent1", "eosbpeigteen", "eosbpninet11", "eosbptwenty1",
            "eosbptwone11",
        ];
        ProducerSchedule { active: names.iter().map(|n| Name::new(n)).collect(), version: 0 }
    }

    /// Producer for an absolute slot index.
    pub fn producer_for(&self, slot: u64) -> Name {
        let idx = (slot / Self::SLOTS_PER_PRODUCER) % self.active.len() as u64;
        self.active[idx as usize]
    }
}

/// Mutable chain state the transactions act on.
#[derive(Debug, Clone)]
pub struct State {
    pub accounts: AccountRegistry,
    pub tokens: TokenLedger,
    pub resources: ResourceState,
    pub contracts: ContractRegistry,
}

/// Why a transaction failed to apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EosError {
    Token(TokenError),
    Resource(ResourceError),
    Account(AccountError),
    EmptyTransaction,
}

impl From<TokenError> for EosError {
    fn from(e: TokenError) -> Self {
        EosError::Token(e)
    }
}
impl From<ResourceError> for EosError {
    fn from(e: ResourceError) -> Self {
        EosError::Resource(e)
    }
}
impl From<AccountError> for EosError {
    fn from(e: AccountError) -> Self {
        EosError::Account(e)
    }
}

impl std::fmt::Display for EosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EosError::Token(e) => write!(f, "token: {e}"),
            EosError::Resource(e) => write!(f, "resource: {e}"),
            EosError::Account(e) => write!(f, "account: {e}"),
            EosError::EmptyTransaction => write!(f, "empty transaction"),
        }
    }
}

impl std::error::Error for EosError {}

/// The simulated EOS chain.
pub struct EosChain {
    pub config: ChainConfig,
    pub schedule: ProducerSchedule,
    pub state: State,
    blocks: Vec<Block>,
    /// Transactions rejected during production (CPU exhaustion etc.).
    pub dropped_txs: u64,
    /// History of (block num, cpu price index) snapshots, one per block —
    /// the EIDOS case-study series.
    pub cpu_price_history: Vec<(u64, f64)>,
}

impl EosChain {
    pub fn new(config: ChainConfig) -> Self {
        let genesis = config.genesis_time;
        let state = State {
            accounts: AccountRegistry::with_system_accounts(genesis),
            tokens: TokenLedger::new(),
            resources: ResourceState::new(config.resources.clone()),
            contracts: ContractRegistry::new(),
        };
        let mut chain = EosChain {
            config,
            schedule: ProducerSchedule::default_producers(),
            state,
            blocks: Vec::new(),
            dropped_txs: 0,
            cpu_price_history: Vec::new(),
        };
        // The system token exists from genesis.
        chain
            .state
            .tokens
            .create(TokenId::eos(), Name::new("eosio"), 10_000_000_000_0000)
            .expect("genesis EOS token");
        chain
            .state
            .tokens
            .issue(TokenId::eos(), 1_200_000_000_0000)
            .expect("genesis EOS issuance");
        chain
    }

    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Give up the chain for its blocks (moved, not copied).
    pub fn into_blocks(self) -> Vec<Block> {
        self.blocks
    }

    pub fn head_block_num(&self) -> u64 {
        self.config.start_block_num + self.blocks.len().saturating_sub(1) as u64
    }

    pub fn block_by_num(&self, num: u64) -> Option<&Block> {
        let idx = num.checked_sub(self.config.start_block_num)? as usize;
        self.blocks.get(idx)
    }

    /// Time of the next block to be produced.
    pub fn next_block_time(&self) -> ChainTime {
        self.config.genesis_time + self.blocks.len() as i64 * self.config.block_interval_secs
    }

    /// Apply one action against state, returning any inline actions it
    /// spawned (the EIDOS refund + payout pattern).
    fn apply_action(state: &mut State, action: &Action, now: ChainTime) -> Result<Vec<Action>, EosError> {
        let mut inline = Vec::new();
        match &action.data {
            ActionData::Transfer { from, to, symbol, amount } => {
                let token = TokenId { contract: action.contract, symbol: *symbol };
                state.tokens.transfer(token, *from, *to, *amount)?;
                // Airdrop hook: contract refunds EOS and pays its token.
                if token == TokenId::eos() {
                    if let Some(spec) = state.contracts.airdrop(*to).copied() {
                        let contract_acct = *to;
                        let miner = *from;
                        // Refund the boomeranged EOS.
                        state.tokens.transfer(token, contract_acct, miner, *amount)?;
                        inline.push(Action::token_transfer(
                            Name::new("eosio.token"),
                            contract_acct,
                            miner,
                            *symbol,
                            *amount,
                        ));
                        // Pay out payout_ppm of current holdings.
                        let holdings = state.tokens.balance(contract_acct, spec.token);
                        let payout = (holdings as i128 * spec.payout_ppm as i128 / 1_000_000) as i64;
                        if payout > 0 {
                            state.tokens.transfer(spec.token, contract_acct, miner, payout)?;
                            inline.push(Action::token_transfer(
                                spec.token.contract,
                                contract_acct,
                                miner,
                                spec.token.symbol,
                                payout,
                            ));
                        }
                    }
                }
            }
            ActionData::NewAccount { creator, name } => {
                state.accounts.create(*creator, *name, now)?;
                state.resources.grant_ram(*name, 4096);
            }
            ActionData::DelegateBw { receiver, net, cpu, .. } => {
                state.resources.delegate(*receiver, *net, *cpu)?;
            }
            ActionData::UndelegateBw { receiver, net, cpu, .. } => {
                state.resources.undelegate(*receiver, *net, *cpu)?;
            }
            ActionData::BuyRam { receiver, quant, .. } => {
                state.resources.buy_ram_eos(*receiver, *quant)?;
            }
            ActionData::BuyRamBytes { receiver, bytes, .. } => {
                state.resources.grant_ram(*receiver, *bytes);
            }
            ActionData::BidName { bidder, newname, bid } => {
                state.accounts.bid_name(*bidder, *newname, *bid, now)?;
            }
            ActionData::RentCpu { receiver, payment, .. } => {
                state.resources.rent_cpu(*receiver, *payment, now)?;
            }
            // Pure-signal actions: no ledger effect. WhaleEx `verifytrade2`
            // reports a trade without moving assets — which is precisely the
            // wash-trading signature of §4.1.
            ActionData::Trade { .. } | ActionData::VoteProducer { .. } | ActionData::Generic => {}
        }
        Ok(inline)
    }

    /// Apply a transaction: bill CPU to the payer, then execute actions.
    /// Inline actions spawned during execution (EIDOS refund/payout) have
    /// already taken effect inside `apply_action`; here they are
    /// only appended to the executed trace, right after their parent.
    pub fn apply_transaction(&mut self, tx: &mut Transaction, now: ChainTime) -> Result<Receipt, EosError> {
        let payer = tx.payer().ok_or(EosError::EmptyTransaction)?;
        self.state.resources.charge_cpu(payer, tx.cpu_us as u64, now)?;
        let mut trace = Vec::with_capacity(tx.actions.len());
        for action in &tx.actions {
            let inline = Self::apply_action(&mut self.state, action, now)?;
            trace.push(action.clone());
            trace.extend(inline);
        }
        tx.actions = trace;
        Ok(Receipt { tx_id: tx.id, executed_actions: tx.actions.len() })
    }

    /// Produce the next block from candidate transactions. Transactions that
    /// fail (CPU exhaustion, overdrawn balances) are dropped and counted —
    /// EOS does not include failed transactions in blocks.
    pub fn produce_block(&mut self, candidate_txs: Vec<Transaction>) -> &Block {
        let slot = self.blocks.len() as u64;
        let num = self.config.start_block_num + slot;
        let time = self.config.genesis_time + slot as i64 * self.config.block_interval_secs;
        let producer = self.schedule.producer_for(slot);

        let mut included = Vec::with_capacity(candidate_txs.len());
        let mut block_cpu: u64 = 0;
        for (idx, mut tx) in candidate_txs.into_iter().enumerate() {
            tx.id = fnv1a64(&[num.to_le_bytes(), (idx as u64).to_le_bytes()].concat());
            // NET usage is billed in 8-byte words on EOS; normalize so the
            // wire encoding (net_usage_words) is lossless.
            tx.net_bytes = tx.net_bytes.div_ceil(8) * 8;
            match self.apply_transaction(&mut tx, time) {
                Ok(_) => {
                    block_cpu += tx.cpu_us as u64;
                    included.push(tx);
                }
                Err(_) => self.dropped_txs += 1,
            }
        }
        self.state.resources.on_block(block_cpu);
        self.cpu_price_history.push((num, self.state.resources.cpu_price_index()));
        self.blocks.push(Block { num, time, producer, transactions: included });
        self.blocks.last().expect("just pushed")
    }

    /// Total transactions across all blocks.
    pub fn tx_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.transactions.len() as u64).sum()
    }

    /// Total actions across all blocks.
    pub fn action_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.action_count() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{AirdropSpec, AppCategory, ContractMeta};
    use txstat_types::amount::SymCode;

    fn test_chain() -> EosChain {
        let mut cfg = ChainConfig::default();
        cfg.resources.blocks_per_window = 1000;
        cfg.resources.target_block_cpu_us = 100_000;
        cfg.resources.max_block_cpu_us = 200_000;
        let mut chain = EosChain::new(cfg);
        // Fund a couple of users.
        for (name, amount) in [("alice", 1_000_0000i64), ("bob", 1_000_0000), ("eidosonecoin", 1_0000)] {
            chain
                .state
                .accounts
                .create(Name::new("eosio"), Name::new(name), chain.config.genesis_time)
                .unwrap();
            chain
                .state
                .tokens
                .transfer(TokenId::eos(), Name::new("eosio"), Name::new(name), amount)
                .unwrap();
            chain.state.resources.delegate(Name::new(name), 10_0000, 10_0000).unwrap();
        }
        chain
    }

    fn transfer_tx(from: &str, to: &str, amount: i64) -> Transaction {
        Transaction {
            id: 0,
            actions: vec![Action::token_transfer(
                Name::new("eosio.token"),
                Name::new(from),
                Name::new(to),
                SymCode::new("EOS"),
                amount,
            )],
            cpu_us: 200,
            net_bytes: 128,
        }
    }

    #[test]
    fn produce_blocks_with_schedule() {
        let mut chain = test_chain();
        for _ in 0..260 {
            chain.produce_block(vec![]);
        }
        let b0 = &chain.blocks()[0];
        let b5 = &chain.blocks()[5];
        let b6 = &chain.blocks()[6];
        assert_eq!(b0.producer, b5.producer, "6 consecutive slots per producer");
        assert_ne!(b5.producer, b6.producer, "producer rotates after 6 slots");
        // After a full round (126 slots) the first producer returns.
        assert_eq!(chain.blocks()[126].producer, b0.producer);
        assert_eq!(chain.head_block_num(), 82_024_737 + 259);
        assert_eq!(chain.block_by_num(82_024_740).unwrap().num, 82_024_740);
        assert!(chain.block_by_num(1).is_none());
    }

    #[test]
    fn transfers_apply_and_conserve() {
        let mut chain = test_chain();
        chain.produce_block(vec![transfer_tx("alice", "bob", 50_0000)]);
        assert_eq!(
            chain.state.tokens.balance(Name::new("bob"), TokenId::eos()),
            1_050_0000
        );
        chain.state.tokens.check_conservation().unwrap();
        assert_eq!(chain.tx_count(), 1);
        assert_eq!(chain.dropped_txs, 0);
    }

    #[test]
    fn overdrawn_transfer_is_dropped() {
        let mut chain = test_chain();
        chain.produce_block(vec![transfer_tx("alice", "bob", 999_999_0000)]);
        assert_eq!(chain.tx_count(), 0);
        assert_eq!(chain.dropped_txs, 1);
        chain.state.tokens.check_conservation().unwrap();
    }

    #[test]
    fn eidos_boomerang_mints_three_action_trace() {
        let mut chain = test_chain();
        let eidos = TokenId::new(Name::new("eidosonecoin"), "EIDOS");
        chain
            .state
            .tokens
            .create(eidos, Name::new("eidosonecoin"), 1_000_000_000_0000)
            .unwrap();
        chain.state.tokens.issue(eidos, 1_000_000_000_0000).unwrap();
        chain.state.contracts.deploy(ContractMeta {
            account: Name::new("eidosonecoin"),
            category: AppCategory::Tokens,
            token: Some(eidos),
            description: "EIDOS",
        });
        chain
            .state
            .contracts
            .attach_airdrop(Name::new("eidosonecoin"), AirdropSpec { token: eidos, payout_ppm: 100 });

        chain.produce_block(vec![transfer_tx("alice", "eidosonecoin", 1_0000)]);
        let block = chain.blocks().last().unwrap();
        let tx = &block.transactions[0];
        // user→contract EOS, contract→user EOS refund, contract→user EIDOS.
        assert_eq!(tx.actions.len(), 3);
        // Alice's EOS balance unchanged (boomerang).
        assert_eq!(
            chain.state.tokens.balance(Name::new("alice"), TokenId::eos()),
            1_000_0000
        );
        // Alice received 0.01% of holdings.
        let got = chain.state.tokens.balance(Name::new("alice"), eidos);
        assert_eq!(got, 1_000_000_000_0000 / 10_000);
        chain.state.tokens.check_conservation().unwrap();
    }

    #[test]
    fn cpu_exhaustion_drops_transactions_under_congestion() {
        let mut chain = test_chain();
        // Collapse the elastic multiplier with hot blocks.
        for _ in 0..2000 {
            chain.state.resources.on_block(150_000);
        }
        assert!(chain.state.resources.congested());
        // Alice holds 1/3 of the stake; her congested window share is
        // 100k µs × 1000 blocks / 3 ≈ 33M µs — a bigger bill must fail.
        let mut tx = transfer_tx("alice", "bob", 1_0000);
        tx.cpu_us = 40_000_000;
        chain.produce_block(vec![tx]);
        assert_eq!(chain.dropped_txs, 1);
        assert_eq!(chain.tx_count(), 0);
    }

    #[test]
    fn new_account_action() {
        let mut chain = test_chain();
        let tx = Transaction {
            id: 0,
            actions: vec![Action::new(
                Name::new("eosio"),
                Name::new("newaccount"),
                Name::new("alice"),
                ActionData::NewAccount { creator: Name::new("alice"), name: Name::new("carol") },
            )],
            cpu_us: 400,
            net_bytes: 256,
        };
        chain.produce_block(vec![tx]);
        assert!(chain.state.accounts.exists(Name::new("carol")));
        assert_eq!(chain.state.resources.ram_quota(Name::new("carol")), 4096);
    }

    #[test]
    fn cpu_price_history_tracks_congestion() {
        let mut chain = test_chain();
        for _ in 0..5 {
            chain.produce_block(vec![]);
        }
        assert_eq!(chain.cpu_price_history.len(), 5);
        // Relaxed chain: price index near 1.
        assert!(chain.cpu_price_history.last().unwrap().1 < 2.0);
    }
}
