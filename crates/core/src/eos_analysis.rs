//! EOS analytics: the Figure 1 action taxonomy, Figure 3a category
//! throughput, Figures 4–5 top-account tables, and the §4.1 case-study
//! detectors (WhaleEx wash trading, EIDOS boomerang mining) — the shared
//! vocabulary and result types, and [`EosSweep`]: the finalized state
//! [`crate::columnar::EosColumnar`] emits, with its merge, its accessors
//! and the scalar reference fold.

use std::collections::{HashMap, HashSet};
use txstat_eos::contract::AppCategory;
use txstat_eos::name::Name;
use txstat_eos::types::{ActionData, Block};
use txstat_types::series::BucketSeries;
use txstat_types::stats::TopK;
use txstat_types::time::{Period, SIX_HOURS};

/// Figure 1's three EOS action classes (plus the user-defined remainder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EosActionClass {
    P2pTransaction,
    AccountAction,
    OtherAction,
    Others,
}

impl EosActionClass {
    pub const fn label(self) -> &'static str {
        match self {
            EosActionClass::P2pTransaction => "P2P transaction",
            EosActionClass::AccountAction => "Account actions",
            EosActionClass::OtherAction => "Other actions",
            EosActionClass::Others => "Others",
        }
    }
}

/// Classify one action name the way the paper's Figure 1 does: system
/// accounts' actions are known; token-contract `transfer`s are P2P value
/// movement; everything else is user-defined.
pub fn classify_action(name: Name, data: &ActionData) -> EosActionClass {
    if matches!(data, ActionData::Transfer { .. }) {
        return EosActionClass::P2pTransaction;
    }
    let s = name.to_string_repr();
    match s.as_str() {
        "transfer" => EosActionClass::P2pTransaction,
        "bidname" | "deposit" | "newaccount" | "updateauth" | "linkauth" => {
            EosActionClass::AccountAction
        }
        "delegatebw" | "buyrambytes" | "undelegatebw" | "rentcpu" | "voteproducer" | "buyram" => {
            EosActionClass::OtherAction
        }
        _ => EosActionClass::Others,
    }
}

/// One row of the Figure 1 EOS column.
#[derive(Debug, Clone)]
pub struct ActionRow {
    pub class: EosActionClass,
    pub action: String,
    pub count: u64,
}

/// The paper's "manually label the top 100 contracts" step: a curated map
/// from contract account to app category. [`EosLabels::curated`] carries the
/// labels for every named dApp of the scenario (as the authors labeled
/// mainnet contracts by inspection).
#[derive(Debug, Clone, Default)]
pub struct EosLabels {
    labels: HashMap<Name, AppCategory>,
}

impl EosLabels {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn label(&mut self, contract: Name, category: AppCategory) {
        self.labels.insert(contract, category);
    }

    pub fn get(&self, contract: Name) -> Option<AppCategory> {
        self.labels.get(&contract).copied()
    }

    /// The curated label set for the reproduction scenario's dApp cast.
    pub fn curated() -> Self {
        let mut l = EosLabels::new();
        let betting = [
            "betdicegroup",
            "betdicetasks",
            "betdicebacca",
            "betdicesicbo",
            "betdiceadmin",
            "bluebetproxy",
            "bluebet2user",
            "bluebetbcrat",
            "bluebettexas",
            "bluebetjacks",
        ];
        for b in betting {
            l.label(Name::new(b), AppCategory::Betting);
        }
        l.label(Name::new("pornhashbaby"), AppCategory::Pornography);
        l.label(Name::new("eossanguoone"), AppCategory::Games);
        l.label(Name::new("whaleextrust"), AppCategory::Exchange);
        l.label(Name::new("eosio.token"), AppCategory::Tokens);
        l.label(Name::new("eidosonecoin"), AppCategory::Tokens);
        l.label(Name::new("lynxtoken123"), AppCategory::Tokens);
        l
    }
}

/// One Figure 4 row: a top application by received transactions.
#[derive(Debug, Clone)]
pub struct ReceivedStats {
    pub account: Name,
    pub tx_count: u64,
    /// Action-name mix on this contract: (action, count), descending.
    pub actions: Vec<(String, u64)>,
}

/// One Figure 5 row: a top sender and where its actions go.
#[derive(Debug, Clone)]
pub struct SenderStats {
    pub sender: Name,
    pub sent_count: u64,
    pub unique_receivers: u64,
    /// (receiver, action count, share of this sender's actions), descending.
    pub receivers: Vec<(Name, u64, f64)>,
}

/// §4.1 WhaleEx wash-trading report.
#[derive(Debug, Clone)]
pub struct WashReport {
    pub total_trades: u64,
    /// Trades in which buyer == seller.
    pub self_trades: u64,
    /// Top-5 accounts by trade participation: (account, trades, self-trade
    /// share among their trades).
    pub top_accounts: Vec<(Name, u64, f64)>,
    /// Share of all trades involving a top-5 account.
    pub top5_participation: f64,
}

/// Mergeable wash-trading state of [`EosSweep`]: the per-transaction
/// detector of the reference fold, and what the columnar engine finalizes
/// into.
#[derive(Debug, Clone, Default)]
pub(crate) struct WashAcc {
    pub(crate) total: u64,
    pub(crate) self_trades: u64,
    pub(crate) participation: TopK<Name>,
    pub(crate) self_by_account: HashMap<Name, u64>,
    /// (buyer, seller) → trade count: bounded by the pair population, not
    /// the trade count, so the accumulator stays O(accounts²) worst case
    /// instead of O(trades).
    pub(crate) pair_counts: HashMap<(Name, Name), u64>,
}

impl WashAcc {
    fn observe_tx(&mut self, tx: &txstat_eos::types::Transaction) {
        for a in &tx.actions {
            if let ActionData::Trade { buyer, seller, .. } = a.data {
                self.total += 1;
                *self.pair_counts.entry((buyer, seller)).or_insert(0) += 1;
                self.participation.inc(buyer);
                if seller != buyer {
                    self.participation.inc(seller);
                }
                if buyer == seller {
                    self.self_trades += 1;
                    *self.self_by_account.entry(buyer).or_insert(0) += 1;
                }
            }
        }
    }

    fn merge(&mut self, other: WashAcc) {
        self.total += other.total;
        self.self_trades += other.self_trades;
        self.participation.merge(other.participation);
        for (k, n) in other.self_by_account {
            *self.self_by_account.entry(k).or_insert(0) += n;
        }
        for (k, n) in other.pair_counts {
            *self.pair_counts.entry(k).or_insert(0) += n;
        }
    }

    fn finalize(&self) -> WashReport {
        let top = self.participation.top(5);
        let top_set: HashSet<Name> = top.iter().map(|(n, _)| *n).collect();
        let involving_top: u64 = self
            .pair_counts
            .iter()
            .filter(|((b, s), _)| top_set.contains(b) || top_set.contains(s))
            .map(|(_, n)| *n)
            .sum();
        let top_accounts = top
            .into_iter()
            .map(|(n, c)| {
                let selfs = self.self_by_account.get(&n).copied().unwrap_or(0);
                (n, c, selfs as f64 / c.max(1) as f64)
            })
            .collect();
        WashReport {
            total_trades: self.total,
            self_trades: self.self_trades,
            top_accounts,
            top5_participation: involving_top as f64 / self.total.max(1) as f64,
        }
    }
}

/// §4.1 EIDOS boomerang report.
#[derive(Debug, Clone)]
pub struct BoomerangReport {
    /// Transactions containing at least one boomerang pattern.
    pub boomerang_txs: u64,
    /// Individual boomerangs (send + refund + payout triples).
    pub boomerangs: u64,
    /// The contract receiving the boomeranged funds (most frequent).
    pub hub: Option<Name>,
    /// Share of in-period transactions that are boomerang transactions.
    pub tx_share: f64,
    /// Total transfer actions attributable to boomerangs.
    pub transfer_actions: u64,
    /// Share of all in-period transfer actions that are boomerang legs.
    pub transfer_share: f64,
}

/// Mergeable boomerang-detection state of [`EosSweep`]: within one
/// transaction, a transfer A→C of (symbol, amount) matched by a later C→A
/// refund of the same (symbol, amount), usually followed by a payout in a
/// different token. Detection is fully contained within one transaction,
/// so counters merge by plain addition.
#[derive(Debug, Clone, Default)]
pub(crate) struct BoomAcc {
    pub(crate) boomerang_txs: u64,
    pub(crate) boomerangs: u64,
    pub(crate) total_txs: u64,
    pub(crate) transfer_actions: u64,
    pub(crate) boomerang_transfers: u64,
    pub(crate) hubs: TopK<Name>,
    /// Reused per-transaction scratch (not merged state): the transfer legs
    /// of the current transaction and their matched flags.
    pub(crate) scratch: Vec<(usize, Name, Name, txstat_types::SymCode, i64)>,
    pub(crate) used: Vec<bool>,
}

impl BoomAcc {
    fn observe_tx(&mut self, tx: &txstat_eos::types::Transaction) {
        self.total_txs += 1;
        self.scratch.clear();
        for (i, a) in tx.actions.iter().enumerate() {
            if let ActionData::Transfer {
                from,
                to,
                symbol,
                amount,
            } = a.data
            {
                self.scratch.push((i, from, to, symbol, amount));
            }
        }
        self.transfer_actions += self.scratch.len() as u64;
        self.used.clear();
        self.used.resize(self.scratch.len(), false);
        let mut found = 0u64;
        for idx in 0..self.scratch.len() {
            if self.used[idx] {
                continue;
            }
            let (_, from, to, symbol, amount) = self.scratch[idx];
            // Look for the refund later in the same transaction (the legs
            // are in action order, so positions order like action indices).
            let refund = (idx + 1..self.scratch.len()).find(|&jdx| {
                let (_, f2, t2, s2, a2) = self.scratch[jdx];
                !self.used[jdx] && f2 == to && t2 == from && s2 == symbol && a2 == amount
            });
            if let Some(jdx) = refund {
                found += 1;
                self.used[idx] = true;
                self.used[jdx] = true;
                self.hubs.inc(to);
                // Count an adjacent payout leg (different symbol, same
                // hub → miner) as part of the boomerang.
                let payout = (0..self.scratch.len()).find(|&kdx| {
                    let (_, f3, t3, s3, _) = self.scratch[kdx];
                    !self.used[kdx] && f3 == to && t3 == from && s3 != symbol
                });
                if let Some(kdx) = payout {
                    self.used[kdx] = true;
                    self.boomerang_transfers += 1;
                }
                self.boomerang_transfers += 2;
            }
        }
        if found > 0 {
            self.boomerang_txs += 1;
            self.boomerangs += found;
        }
    }

    fn merge(&mut self, other: BoomAcc) {
        // scratch/used are per-transaction working memory, not merged state.
        self.boomerang_txs += other.boomerang_txs;
        self.boomerangs += other.boomerangs;
        self.total_txs += other.total_txs;
        self.transfer_actions += other.transfer_actions;
        self.boomerang_transfers += other.boomerang_transfers;
        self.hubs.merge(other.hubs);
    }

    fn finalize(&self) -> BoomerangReport {
        BoomerangReport {
            boomerang_txs: self.boomerang_txs,
            boomerangs: self.boomerangs,
            hub: self.hubs.top(1).first().map(|(n, _)| *n),
            tx_share: self.boomerang_txs as f64 / self.total_txs.max(1) as f64,
            transfer_actions: self.boomerang_transfers,
            transfer_share: self.boomerang_transfers as f64 / self.transfer_actions.max(1) as f64,
        }
    }
}

/// The EOS sweep state: every EOS exhibit statistic of one observation
/// window, in exactly-mergeable domains (counters, count maps, bucketed
/// series).
///
/// Production obtains it from [`crate::columnar::EosColumnar::finalize`];
/// [`EosSweep::new`] is the identity and [`EosSweep::merge`] combines two
/// partial sweeps (the follower folds batch deltas with it). The
/// figure-shaped outputs are extracted by the accessor methods.
/// [`EosSweep::observe`] / [`EosSweep::compute`] are the scalar reference
/// fold.
#[derive(Debug, Clone)]
pub struct EosSweep {
    pub(crate) period: Period,
    // Figure 1. Keyed by `(class, Option<name>)` — `None` is the collapsed
    // Others bucket — so the hot loop hashes a u64 instead of allocating a
    // String per action; rows are stringified once, at finalization.
    pub(crate) action_counts: HashMap<(EosActionClass, Option<Name>), u64>,
    pub(crate) action_total: u64,
    // Figures 4–5 + the top-contract labeling input. Action mixes are also
    // Name-keyed here and stringified at finalization.
    pub(crate) tx_contracts: TopK<Name>,
    pub(crate) contract_actions: HashMap<Name, TopK<Name>>,
    pub(crate) sent: TopK<Name>,
    pub(crate) sender_receivers: HashMap<Name, TopK<Name>>,
    // Figure 3a, keyed by each transaction's first-action contract; app
    // categories are projected at finalization via [`EosSweep::throughput_series`].
    pub(crate) contract_series: BucketSeries<Option<Name>>,
    // §4.1 detectors.
    pub(crate) wash: WashAcc,
    pub(crate) boom: BoomAcc,
    // §5 transfer graph.
    pub(crate) graph: crate::graph::TransferGraph<Name>,
    /// In-period transaction count (the headline TPS numerator).
    pub(crate) txs_in_period: u64,
    /// Reused per-transaction scratch for distinct-contract dedup.
    pub(crate) contract_scratch: Vec<Name>,
}

impl EosSweep {
    /// The sweep identity for an observation window.
    pub fn new(period: Period) -> Self {
        EosSweep {
            period,
            action_counts: HashMap::new(),
            action_total: 0,
            tx_contracts: TopK::new(),
            contract_actions: HashMap::new(),
            sent: TopK::new(),
            sender_receivers: HashMap::new(),
            contract_series: BucketSeries::new(period, SIX_HOURS),
            wash: WashAcc::default(),
            boom: BoomAcc::default(),
            graph: crate::graph::TransferGraph::new(),
            txs_in_period: 0,
            contract_scratch: Vec::new(),
        }
    }

    /// Fold one block into the sweep. Reference fold: the equivalence
    /// suites compare the columnar engine against it, no production path
    /// calls it.
    pub fn observe(&mut self, b: &Block) {
        // The throughput series audits out-of-period events itself (it
        // records every block); everything else applies the
        // observation-window filter up front.
        for tx in &b.transactions {
            self.contract_series
                .record(b.time, tx.actions.first().map(|a| a.contract), 1);
        }
        if !self.period.contains(b.time) {
            return;
        }
        for tx in &b.transactions {
            self.txs_in_period += 1;
            for a in &tx.actions {
                let class = classify_action(a.name, &a.data);
                let key_name = match class {
                    EosActionClass::Others => None,
                    _ => Some(a.name),
                };
                *self.action_counts.entry((class, key_name)).or_insert(0) += 1;
                self.action_total += 1;
                self.sent.inc(a.actor);
                self.sender_receivers
                    .entry(a.actor)
                    .or_default()
                    .inc(a.contract);
                self.contract_actions
                    .entry(a.contract)
                    .or_default()
                    .inc(a.name);
                if let ActionData::Transfer { from, to, .. } = a.data {
                    self.graph.record(from, to);
                }
            }
            // Transactions have a handful of actions, so a linear-scan dedup
            // over a reused buffer beats building a HashSet per transaction.
            self.contract_scratch.clear();
            for a in &tx.actions {
                if !self.contract_scratch.contains(&a.contract) {
                    self.contract_scratch.push(a.contract);
                }
            }
            for i in 0..self.contract_scratch.len() {
                self.tx_contracts.inc(self.contract_scratch[i]);
            }
            self.wash.observe_tx(tx);
            self.boom.observe_tx(tx);
        }
    }

    /// Merge another partial sweep (associative, commutative).
    pub fn merge(&mut self, other: EosSweep) {
        for (k, n) in other.action_counts {
            *self.action_counts.entry(k).or_insert(0) += n;
        }
        self.action_total += other.action_total;
        self.tx_contracts.merge(other.tx_contracts);
        for (k, t) in other.contract_actions {
            self.contract_actions.entry(k).or_default().merge(t);
        }
        self.sent.merge(other.sent);
        for (k, t) in other.sender_receivers {
            self.sender_receivers.entry(k).or_default().merge(t);
        }
        self.contract_series.merge(other.contract_series);
        self.wash.merge(other.wash);
        self.boom.merge(other.boom);
        self.graph.merge(other.graph);
        self.txs_in_period += other.txs_in_period;
    }

    /// [`EosSweep::observe`] folded over the blocks in order: the
    /// reference the suites hold `EosColumnar::compute` to.
    pub fn compute(blocks: &[Block], period: Period) -> Self {
        let mut sweep = EosSweep::new(period);
        for b in blocks {
            sweep.observe(b);
        }
        sweep
    }

    /// Figure 1: per-action counts grouped by class.
    pub fn action_distribution(&self) -> (Vec<ActionRow>, u64) {
        let mut rows: Vec<ActionRow> = self
            .action_counts
            .iter()
            .map(|((class, action), count)| ActionRow {
                class: *class,
                action: action
                    .map(|n| n.to_string_repr())
                    .unwrap_or_else(|| "Others".to_owned()),
                count: *count,
            })
            .collect();
        rows.sort_by(|a, b| {
            a.class
                .cmp(&b.class)
                .then(b.count.cmp(&a.count))
                .then(a.action.cmp(&b.action))
        });
        (rows, self.action_total)
    }

    /// The paper's top-`k` contract labeling session over the sweep's
    /// received-transaction ranking.
    pub fn labels(
        &self,
        k: usize,
        ground_truth: &dyn Fn(Name) -> Option<AppCategory>,
    ) -> EosLabels {
        let mut l = EosLabels::new();
        for (contract, _) in self.tx_contracts.top(k) {
            if let Some(cat) = ground_truth(contract) {
                l.label(contract, cat);
            }
        }
        l
    }

    /// Figure 3a: project the contract-keyed series through the labels.
    pub fn throughput_series(&self, labels: &EosLabels) -> BucketSeries<AppCategory> {
        self.contract_series
            .map_keys(|c| c.and_then(|c| labels.get(c)).unwrap_or(AppCategory::Others))
    }

    /// Figure 4: top `k` accounts by received transactions.
    pub fn top_received(&self, k: usize) -> Vec<ReceivedStats> {
        self.tx_contracts
            .top(k)
            .into_iter()
            .map(|(account, tx_count)| {
                // Stringify before ranking so count ties break on the
                // rendered action name, not on the `Name`'s integer order.
                let actions = self
                    .contract_actions
                    .get(&account)
                    .map(|t| {
                        let mut v: Vec<(String, u64)> =
                            t.iter().map(|(n, c)| (n.to_string_repr(), *c)).collect();
                        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                        v.truncate(6);
                        v
                    })
                    .unwrap_or_default();
                ReceivedStats {
                    account,
                    tx_count,
                    actions,
                }
            })
            .collect()
    }

    /// Figure 5: top `k` senders and their receiver mix.
    pub fn top_senders(&self, k: usize) -> Vec<SenderStats> {
        self.sent
            .top(k)
            .into_iter()
            .map(|(sender, sent_count)| {
                let receivers_topk = self
                    .sender_receivers
                    .get(&sender)
                    .cloned()
                    .unwrap_or_default();
                let unique = receivers_topk.distinct() as u64;
                let receivers = receivers_topk
                    .top(5)
                    .into_iter()
                    .map(|(r, c)| (r, c, c as f64 / sent_count as f64))
                    .collect();
                SenderStats {
                    sender,
                    sent_count,
                    unique_receivers: unique,
                    receivers,
                }
            })
            .collect()
    }

    /// §4.1 WhaleEx wash-trading report.
    pub fn wash_trading_report(&self) -> WashReport {
        self.wash.finalize()
    }

    /// §4.1 EIDOS boomerang report.
    pub fn boomerang_report(&self) -> BoomerangReport {
        self.boom.finalize()
    }

    /// Headline transactions-per-second.
    pub fn tps(&self) -> f64 {
        self.txs_in_period as f64 / self.period.seconds().max(1) as f64
    }

    /// §5 token-transfer graph.
    pub fn graph(&self) -> &crate::graph::TransferGraph<Name> {
        &self.graph
    }

    /// Point lookup for one account's activity (the serve path's
    /// `/account/eos/<name>` query). `None` if the sweep never saw it.
    pub fn account_stats(&self, account: Name) -> Option<EosAccountStats> {
        let received_txs = self.tx_contracts.count_of(&account);
        let sent_actions = self.sent.count_of(&account);
        if received_txs == 0 && sent_actions == 0 {
            return None;
        }
        let top_actions = self
            .contract_actions
            .get(&account)
            .map(|t| {
                t.top(5)
                    .into_iter()
                    .map(|(n, c)| (n.to_string_repr(), c))
                    .collect()
            })
            .unwrap_or_default();
        let unique_send_targets = self
            .sender_receivers
            .get(&account)
            .map(|t| t.distinct() as u64)
            .unwrap_or(0);
        Some(EosAccountStats {
            account,
            received_txs,
            sent_actions,
            unique_send_targets,
            top_actions,
        })
    }
}

/// One EOS account's sweep-level activity summary.
#[derive(Debug, Clone)]
pub struct EosAccountStats {
    pub account: Name,
    /// Transactions whose first action targets this contract (Figure 4's
    /// "received" notion).
    pub received_txs: u64,
    /// Actions this account authorized as sender.
    pub sent_actions: u64,
    /// Distinct contracts this account sent to.
    pub unique_send_targets: u64,
    /// Top action names executed on this contract, `(name, count)`.
    pub top_actions: Vec<(String, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use txstat_eos::types::{Action, Transaction};
    use txstat_types::amount::SymCode;
    use txstat_types::time::ChainTime;

    fn t0() -> ChainTime {
        ChainTime::from_ymd(2019, 10, 1)
    }

    fn period() -> Period {
        Period::new(t0(), ChainTime::from_ymd(2019, 10, 2))
    }

    fn transfer(from: &str, to: &str, amount: i64) -> Action {
        Action::token_transfer(
            Name::new("eosio.token"),
            Name::new(from),
            Name::new(to),
            SymCode::new("EOS"),
            amount,
        )
    }

    fn block(num: u64, txs: Vec<Transaction>) -> Block {
        Block {
            num,
            time: t0() + 60 * num as i64,
            producer: Name::new("bp"),
            transactions: txs,
        }
    }

    fn tx(actions: Vec<Action>) -> Transaction {
        Transaction {
            id: 0,
            actions,
            cpu_us: 100,
            net_bytes: 128,
        }
    }

    #[test]
    fn classification_matches_figure_1_rows() {
        assert_eq!(
            classify_action(Name::new("transfer"), &ActionData::Generic),
            EosActionClass::P2pTransaction
        );
        assert_eq!(
            classify_action(Name::new("bidname"), &ActionData::Generic),
            EosActionClass::AccountAction
        );
        assert_eq!(
            classify_action(Name::new("delegatebw"), &ActionData::Generic),
            EosActionClass::OtherAction
        );
        assert_eq!(
            classify_action(Name::new("verifytrade2"), &ActionData::Generic),
            EosActionClass::Others
        );
        // A token transfer is P2P on its payload, whatever the action name.
        let payload = ActionData::Transfer {
            from: Name::new("alice"),
            to: Name::new("bob"),
            symbol: SymCode::new("EOS"),
            amount: 1,
        };
        assert_eq!(
            classify_action(Name::new("removetask"), &payload),
            EosActionClass::P2pTransaction
        );
    }

    #[test]
    fn action_distribution_counts_actions_not_txs() {
        let blocks = vec![block(
            1,
            vec![tx(vec![
                transfer("a", "b", 10),
                transfer("b", "c", 5),
                Action::new(
                    Name::new("eosio"),
                    Name::new("bidname"),
                    Name::new("a"),
                    ActionData::Generic,
                ),
            ])],
        )];
        let (rows, total) = EosSweep::compute(&blocks, period()).action_distribution();
        assert_eq!(total, 3);
        let transfer_row = rows.iter().find(|r| r.action == "transfer").unwrap();
        assert_eq!(transfer_row.count, 2);
        assert_eq!(transfer_row.class, EosActionClass::P2pTransaction);
        assert!(rows.iter().any(|r| r.action == "bidname"));
    }

    #[test]
    fn labels_cover_the_top_contracts() {
        let blocks = vec![block(
            1,
            vec![
                tx(vec![Action::new(
                    Name::new("betdicetasks"),
                    Name::new("removetask"),
                    Name::new("betdicegroup"),
                    ActionData::Generic,
                )]),
                tx(vec![transfer("a", "b", 1)]),
            ],
        )];
        let curated = EosLabels::curated();
        let labels = EosSweep::compute(&blocks, period()).labels(10, &|n| curated.get(n));
        assert_eq!(
            labels.get(Name::new("betdicetasks")),
            Some(AppCategory::Betting)
        );
        assert_eq!(
            labels.get(Name::new("eosio.token")),
            Some(AppCategory::Tokens)
        );
    }

    #[test]
    fn top_received_and_senders() {
        let blocks = vec![block(
            1,
            vec![
                tx(vec![Action::new(
                    Name::new("pornhashbaby"),
                    Name::new("record"),
                    Name::new("u1"),
                    ActionData::Generic,
                )]),
                tx(vec![Action::new(
                    Name::new("pornhashbaby"),
                    Name::new("record"),
                    Name::new("u2"),
                    ActionData::Generic,
                )]),
                tx(vec![transfer("u1", "u3", 5)]),
            ],
        )];
        let sweep = EosSweep::compute(&blocks, period());
        let recv = sweep.top_received(2);
        assert_eq!(recv[0].account, Name::new("pornhashbaby"));
        assert_eq!(recv[0].tx_count, 2);
        assert_eq!(recv[0].actions[0], ("record".to_owned(), 2));

        let send = sweep.top_senders(3);
        let u1 = send.iter().find(|s| s.sender == Name::new("u1")).unwrap();
        assert_eq!(u1.sent_count, 2);
        assert_eq!(u1.unique_receivers, 2);
    }

    #[test]
    fn wash_detection_flags_self_trades() {
        let trade = |buyer: &str, seller: &str| {
            Action::new(
                Name::new("whaleextrust"),
                Name::new("verifytrade2"),
                Name::new("whaleextrust"),
                ActionData::Trade {
                    buyer: Name::new(buyer),
                    seller: Name::new(seller),
                    base_symbol: SymCode::new("PLA"),
                    base_amount: 100,
                    quote_symbol: SymCode::new("EOS"),
                    quote_amount: 50,
                },
            )
        };
        let blocks = vec![block(
            1,
            vec![
                tx(vec![trade("w1", "w1")]),
                tx(vec![trade("w1", "w1")]),
                tx(vec![trade("w1", "x")]),
                tx(vec![trade("y", "z")]),
            ],
        )];
        let report = EosSweep::compute(&blocks, period()).wash_trading_report();
        assert_eq!(report.total_trades, 4);
        assert_eq!(report.self_trades, 2);
        assert_eq!(report.top_accounts[0].0, Name::new("w1"));
        assert!(report.top_accounts[0].2 > 0.6, "w1 self-share");
        assert!(report.top5_participation >= 0.75);
    }

    #[test]
    fn boomerang_detection() {
        // miner→eidos 1 EOS, eidos→miner 1 EOS refund, eidos→miner EIDOS.
        let eidos_leg = Action::token_transfer(
            Name::new("eidosonecoin"),
            Name::new("eidosonecoin"),
            Name::new("miner1"),
            SymCode::new("EIDOS"),
            42,
        );
        let blocks = vec![block(
            1,
            vec![
                tx(vec![
                    transfer("miner1", "eidosonecoin", 1_0000),
                    transfer("eidosonecoin", "miner1", 1_0000),
                    eidos_leg.clone(),
                ]),
                tx(vec![transfer("a", "b", 5)]),
            ],
        )];
        let sweep = EosSweep::compute(&blocks, period());
        // §5 graph: every transfer leg is an edge, the hub sends two.
        assert_eq!(sweep.graph().transfers(), 4);
        assert_eq!(sweep.graph().out_of(&Name::new("eidosonecoin")), 2);
        let report = sweep.boomerang_report();
        assert_eq!(report.boomerang_txs, 1);
        assert_eq!(report.boomerangs, 1);
        assert_eq!(report.hub, Some(Name::new("eidosonecoin")));
        assert_eq!(report.transfer_actions, 3);
        assert!((report.tx_share - 0.5).abs() < 1e-9);
        assert_eq!(
            report.transfer_share, 0.75,
            "3 of 4 transfers are boomerang legs"
        );
    }

    #[test]
    fn throughput_series_categorizes() {
        let labels = EosLabels::curated();
        let blocks = vec![block(
            1,
            vec![
                tx(vec![transfer("a", "b", 1)]),
                tx(vec![Action::new(
                    Name::new("betdicetasks"),
                    Name::new("removetask"),
                    Name::new("betdicegroup"),
                    ActionData::Generic,
                )]),
            ],
        )];
        let series = EosSweep::compute(&blocks, period()).throughput_series(&labels);
        assert_eq!(series.category_total(&AppCategory::Tokens), 1);
        assert_eq!(series.category_total(&AppCategory::Betting), 1);
        assert_eq!(series.total(), 2);
    }

    #[test]
    fn tps_computation() {
        let blocks = vec![block(1, vec![tx(vec![transfer("a", "b", 1)])])];
        let p = period();
        let rate = EosSweep::compute(&blocks, p).tps();
        assert!((rate - 1.0 / 86_400.0).abs() < 1e-12);
    }
}
