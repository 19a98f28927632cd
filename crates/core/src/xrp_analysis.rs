//! XRP analytics: the Figure 1 type distribution, Figure 3c throughput,
//! the Figure 7 value funnel, Figure 8 most-active accounts, Figure 11 IOU
//! rate tables, Figure 12 value flows, and the §4.3 spam-wave detector —
//! the shared vocabulary and result types, and [`XrpSweep`]: the finalized
//! state [`crate::columnar::XrpColumnar`] emits, with its merge, its
//! accessors and the scalar reference fold.

use crate::cluster::ClusterInfo;
use std::collections::HashMap;
use txstat_types::series::BucketSeries;
use txstat_types::stats::TopK;
use txstat_types::time::{ChainTime, Period, SIX_HOURS};
use txstat_xrp::amount::{Asset, IssuedCurrency, DROPS_PER_XRP, IOU_UNIT};
use txstat_xrp::ledger::LedgerBlock;
use txstat_xrp::rates::{RateOracle, TradeRecord};
use txstat_xrp::tx::{TxType};
use txstat_xrp::AccountId;

/// Figure 1 XRP row classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum XrpTxClass {
    P2pTransaction,
    AccountAction,
    OtherAction,
}

impl XrpTxClass {
    pub const fn label(self) -> &'static str {
        match self {
            XrpTxClass::P2pTransaction => "P2P transaction",
            XrpTxClass::AccountAction => "Account actions",
            XrpTxClass::OtherAction => "Other actions",
        }
    }
}

/// Figure 1's grouping of XRP transaction types.
pub fn classify_tx(t: TxType) -> XrpTxClass {
    match t {
        TxType::Payment | TxType::EscrowFinish => XrpTxClass::P2pTransaction,
        TxType::TrustSet | TxType::AccountSet | TxType::SignerListSet | TxType::SetRegularKey => {
            XrpTxClass::AccountAction
        }
        TxType::OfferCreate
        | TxType::OfferCancel
        | TxType::EscrowCreate
        | TxType::EscrowCancel
        | TxType::PaymentChannelClaim
        | TxType::PaymentChannelCreate
        | TxType::EnableAmendment => XrpTxClass::OtherAction,
    }
}

/// One row of Figure 1's XRP column.
#[derive(Debug, Clone)]
pub struct TxRow {
    pub class: XrpTxClass,
    pub tx_type: TxType,
    pub count: u64,
}

/// Figure 3c's categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum XrpThroughputCat {
    Payment,
    OfferCreate,
    Others,
    Unsuccessful,
}

impl XrpThroughputCat {
    pub const fn label(self) -> &'static str {
        match self {
            XrpThroughputCat::Payment => "Payment",
            XrpThroughputCat::OfferCreate => "OfferCreate",
            XrpThroughputCat::Others => "Others",
            XrpThroughputCat::Unsuccessful => "Unsuccessful Tx",
        }
    }
}

/// The Figure 7 funnel: how much of the throughput carries economic value.
#[derive(Debug, Clone, Default)]
pub struct Funnel {
    pub total: u64,
    pub failed: u64,
    pub successful: u64,
    pub payments: u64,
    pub payments_with_value: u64,
    pub payments_no_value: u64,
    pub offers: u64,
    pub offers_exchanged: u64,
    pub offers_no_exchange: u64,
    pub others: u64,
}

impl Funnel {
    /// Merge another funnel (parallel aggregation). Destructures every
    /// field so adding one to the struct breaks this method at compile
    /// time instead of silently dropping it from chunked merges.
    pub fn merge(&mut self, other: Funnel) {
        let Funnel {
            total,
            failed,
            successful,
            payments,
            payments_with_value,
            payments_no_value,
            offers,
            offers_exchanged,
            offers_no_exchange,
            others,
        } = other;
        self.total += total;
        self.failed += failed;
        self.successful += successful;
        self.payments += payments;
        self.payments_with_value += payments_with_value;
        self.payments_no_value += payments_no_value;
        self.offers += offers;
        self.offers_exchanged += offers_exchanged;
        self.offers_no_exchange += offers_no_exchange;
        self.others += others;
    }

    pub fn pct(&self, part: u64) -> f64 {
        part as f64 * 100.0 / self.total.max(1) as f64
    }

    /// The paper's headline: share of throughput carrying economic value
    /// (value-bearing payments + exchanged offers).
    pub fn economic_share_pct(&self) -> f64 {
        self.pct(self.payments_with_value + self.offers_exchanged)
    }

    /// "only 1 in N successful Payment transactions involve the transfer of
    /// valuable tokens".
    pub fn valuable_payment_ratio(&self) -> f64 {
        if self.payments_with_value == 0 {
            return 0.0;
        }
        self.payments as f64 / self.payments_with_value as f64
    }

    /// Share of successful offers that were ever exchanged.
    pub fn offer_fulfillment_pct(&self) -> f64 {
        self.offers_exchanged as f64 * 100.0 / self.offers.max(1) as f64
    }
}

/// One Figure 8 row.
#[derive(Debug, Clone)]
pub struct ActiveAccount {
    pub account: AccountId,
    pub offer_creates: u64,
    pub payments: u64,
    pub others: u64,
    pub total: u64,
    /// Share of the whole window's throughput.
    pub share_pct: f64,
    /// Most common destination tag on this account's payments.
    pub top_tag: Option<(u32, u64)>,
    /// Entity resolution (username / parent-descendant).
    pub entity: Option<String>,
}

/// Figure 11a: 30-day average rate per issuer of a currency ticker.
pub fn rates_by_issuer(
    oracle: &RateOracle,
    ticker: &str,
    issuers: &[AccountId],
) -> Vec<(AccountId, Option<f64>)> {
    let mut rows: Vec<(AccountId, Option<f64>)> = issuers
        .iter()
        .map(|i| (*i, oracle.rate(IssuedCurrency::new(ticker, *i))))
        .collect();
    rows.sort_by(|a, b| {
        b.1.unwrap_or(-1.0)
            .partial_cmp(&a.1.unwrap_or(-1.0))
            .expect("rates are finite")
            .then(a.0.cmp(&b.0))
    });
    rows
}

/// Figure 11b: individual exchange events of one issued currency —
/// (time, seller/maker, rate).
pub fn trade_events(trades: &[TradeRecord], currency: IssuedCurrency) -> Vec<(ChainTime, AccountId, f64)> {
    let mut v: Vec<(ChainTime, AccountId, f64)> = trades
        .iter()
        .filter(|t| t.currency == currency)
        .map(|t| (t.time, t.maker, t.rate()))
        .collect();
    v.sort_by_key(|(t, ..)| *t);
    v
}

/// Figure 12: value flows between entities, denominated in XRP.
#[derive(Debug, Clone)]
pub struct ValueFlowReport {
    /// Total XRP moved by Payment transactions (whole XRP).
    pub xrp_payment_volume: f64,
    /// Top sending entities by XRP-denominated volume.
    pub top_senders: Vec<(String, f64)>,
    /// Top receiving entities.
    pub top_receivers: Vec<(String, f64)>,
    /// Per currency ticker: (nominal volume moved, valuable nominal volume,
    /// XRP-denominated valuable volume).
    pub currencies: Vec<(String, f64, f64, f64)>,
}

/// §3.3 account-concentration statistics: *"Approximately one third (30
/// thousand) of accounts have transacted once during the entire observation
/// period, whereas the 18 most active accounts are responsible for half of
/// the total traffic."*
#[derive(Debug, Clone)]
pub struct ConcentrationReport {
    /// Distinct transacting accounts.
    pub accounts: u64,
    pub total_txs: u64,
    /// Accounts with exactly one transaction.
    pub single_tx_accounts: u64,
    /// Smallest k such that the k most active accounts carry ≥ half the
    /// traffic.
    pub half_traffic_accounts: u64,
    /// Mean transactions per account.
    pub mean_txs_per_account: f64,
    /// Gini coefficient of per-account activity.
    pub gini: f64,
}

/// The XRP sweep state: every XRP exhibit statistic of one observation
/// window. Production obtains it from
/// [`crate::columnar::XrpColumnar::finalize`]; see [`crate::accumulate`]
/// for the merge algebra. [`XrpSweep::observe`] / [`XrpSweep::compute`] are
/// the scalar reference fold.
///
/// The oracle is consulted *per transaction* during the sweep (value
/// classification and drop-denominated valuation are integral per tx), so
/// all merged state stays in exactly-mergeable integer domains; entity
/// resolution and the f64 conversions happen once, at finalization, over
/// deterministic orderings.
#[derive(Debug, Clone)]
pub struct XrpSweep {
    pub(crate) period: Period,
    // Figure 1.
    pub(crate) type_counts: HashMap<TxType, u64>,
    pub(crate) type_total: u64,
    // Figure 3c.
    pub(crate) series: BucketSeries<XrpThroughputCat>,
    // Figure 7 (integer counters throughout).
    pub(crate) funnel: Funnel,
    // Figure 8 + §3.3 concentration: (OfferCreate, Payment, other) per account.
    pub(crate) per_account: HashMap<AccountId, (u64, u64, u64)>,
    pub(crate) tags: HashMap<AccountId, TopK<u32>>,
    pub(crate) grand_total: u64,
    // Figure 12, all in integer drops / raw units (both scaled 1e6).
    pub(crate) xrp_volume_drops: i128,
    pub(crate) sender_drops: HashMap<AccountId, i128>,
    pub(crate) receiver_drops: HashMap<AccountId, i128>,
    /// ticker → (nominal raw units, valuable raw units, valuable drops).
    pub(crate) currencies: HashMap<String, (i128, i128, i128)>,
    // §4.3 spam waves.
    pub(crate) payment_series: BucketSeries<()>,
    // §5 payment graph.
    pub(crate) graph: crate::graph::TransferGraph<AccountId>,
}

impl XrpSweep {
    /// The sweep identity for an observation window.
    pub fn new(period: Period) -> Self {
        XrpSweep {
            period,
            type_counts: HashMap::new(),
            type_total: 0,
            series: BucketSeries::new(period, SIX_HOURS),
            funnel: Funnel::default(),
            per_account: HashMap::new(),
            tags: HashMap::new(),
            grand_total: 0,
            xrp_volume_drops: 0,
            sender_drops: HashMap::new(),
            receiver_drops: HashMap::new(),
            currencies: HashMap::new(),
            payment_series: BucketSeries::new(period, SIX_HOURS),
            graph: crate::graph::TransferGraph::new(),
        }
    }

    /// Fold one ledger into the sweep, valuing payments through `oracle`.
    /// Reference fold: the equivalence suites compare the columnar engine
    /// against it, no production path calls it.
    pub fn observe(&mut self, b: &LedgerBlock, oracle: &RateOracle) {
        // The two bucket series audit out-of-period events themselves (they
        // record every ledger); the rest filters up front.
        for tx in &b.transactions {
            let cat = if !tx.result.is_success() {
                XrpThroughputCat::Unsuccessful
            } else {
                match tx.tx.tx_type() {
                    TxType::Payment => XrpThroughputCat::Payment,
                    TxType::OfferCreate => XrpThroughputCat::OfferCreate,
                    _ => XrpThroughputCat::Others,
                }
            };
            self.series.record(b.close_time, cat, 1);
            if tx.tx.tx_type() == TxType::Payment && tx.result.is_success() {
                self.payment_series.record(b.close_time, (), 1);
            }
        }
        if !self.period.contains(b.close_time) {
            return;
        }
        for tx in &b.transactions {
            let tx_type = tx.tx.tx_type();
            *self.type_counts.entry(tx_type).or_insert(0) += 1;
            self.type_total += 1;
            self.grand_total += 1;

            let e = self.per_account.entry(tx.tx.account).or_insert((0, 0, 0));
            match tx_type {
                TxType::OfferCreate => e.0 += 1,
                TxType::Payment => {
                    e.1 += 1;
                    if let Some(tag) = tx.tx.destination_tag {
                        self.tags.entry(tx.tx.account).or_default().inc(tag);
                    }
                }
                _ => e.2 += 1,
            }

            // Figure 7 funnel.
            self.funnel.total += 1;
            if !tx.result.is_success() {
                self.funnel.failed += 1;
                continue;
            }
            self.funnel.successful += 1;
            match tx_type {
                TxType::Payment => {
                    self.funnel.payments += 1;
                    let has_value = match &tx.delivered {
                        Some(a) => match a.asset {
                            Asset::Xrp => true,
                            Asset::Iou(ic) => oracle.has_value(ic),
                        },
                        None => false,
                    };
                    if has_value {
                        self.funnel.payments_with_value += 1;
                    } else {
                        self.funnel.payments_no_value += 1;
                    }
                }
                TxType::OfferCreate => {
                    self.funnel.offers += 1;
                    if tx.crossed {
                        self.funnel.offers_exchanged += 1;
                    } else {
                        self.funnel.offers_no_exchange += 1;
                    }
                }
                _ => self.funnel.others += 1,
            }

            // Figure 12 value flows + §5 graph (successful payments only).
            if tx_type != TxType::Payment {
                continue;
            }
            let destination = match &tx.tx.payload {
                txstat_xrp::tx::TxPayload::Payment { destination, .. } => *destination,
                _ => continue,
            };
            self.graph.record(tx.tx.account, destination);
            let delivered = match &tx.delivered {
                Some(a) => a,
                None => continue,
            };
            let (ticker, valuable_drops) = match delivered.asset {
                Asset::Xrp => {
                    self.xrp_volume_drops += delivered.value;
                    ("XRP".to_owned(), Some(delivered.value))
                }
                Asset::Iou(ic) => (
                    ic.currency.as_str().to_owned(),
                    oracle
                        .value_in_drops(ic, delivered.value)
                        .filter(|d| *d > 0)
                        .map(|d| d as i128),
                ),
            };
            let c = self.currencies.entry(ticker).or_insert((0, 0, 0));
            c.0 += delivered.value;
            if let Some(drops) = valuable_drops {
                c.1 += delivered.value;
                c.2 += drops;
                *self.sender_drops.entry(tx.tx.account).or_insert(0) += drops;
                *self.receiver_drops.entry(destination).or_insert(0) += drops;
            }
        }
    }

    /// Merge another partial sweep (associative, commutative).
    pub fn merge(&mut self, other: XrpSweep) {
        for (k, n) in other.type_counts {
            *self.type_counts.entry(k).or_insert(0) += n;
        }
        self.type_total += other.type_total;
        self.series.merge(other.series);
        self.funnel.merge(other.funnel);
        for (k, (a, b, c)) in other.per_account {
            let e = self.per_account.entry(k).or_insert((0, 0, 0));
            e.0 += a;
            e.1 += b;
            e.2 += c;
        }
        for (k, t) in other.tags {
            self.tags.entry(k).or_default().merge(t);
        }
        self.grand_total += other.grand_total;
        self.xrp_volume_drops += other.xrp_volume_drops;
        for (k, v) in other.sender_drops {
            *self.sender_drops.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.receiver_drops {
            *self.receiver_drops.entry(k).or_insert(0) += v;
        }
        for (k, (a, b, c)) in other.currencies {
            let e = self.currencies.entry(k).or_insert((0, 0, 0));
            e.0 += a;
            e.1 += b;
            e.2 += c;
        }
        self.payment_series.merge(other.payment_series);
        self.graph.merge(other.graph);
    }

    /// One parallel [`XrpSweep::observe`] sweep over the ledgers: the
    /// reference the suites hold `XrpColumnar::compute` to.
    pub fn compute(blocks: &[LedgerBlock], period: Period, oracle: &RateOracle) -> Self {
        crate::accumulate::par_sweep(
            blocks,
            || XrpSweep::new(period),
            |acc, b| acc.observe(b, oracle),
            |a, b| a.merge(b),
        )
    }

    /// Figure 1: counts per transaction type.
    pub fn tx_distribution(&self) -> (Vec<TxRow>, u64) {
        let mut rows: Vec<TxRow> = self
            .type_counts
            .iter()
            .map(|(tx_type, count)| TxRow {
                class: classify_tx(*tx_type),
                tx_type: *tx_type,
                count: *count,
            })
            .collect();
        rows.sort_by(|a, b| {
            a.class.cmp(&b.class).then(b.count.cmp(&a.count)).then(a.tx_type.cmp(&b.tx_type))
        });
        (rows, self.type_total)
    }

    /// Figure 3c: the category throughput series.
    pub fn throughput_series(&self) -> &BucketSeries<XrpThroughputCat> {
        &self.series
    }

    /// Figure 7: the value funnel. A payment carries value iff its
    /// delivered asset is XRP or an IOU with a positive oracle rate; an
    /// offer "exchanged" iff it crossed at apply time.
    pub fn funnel(&self) -> Funnel {
        self.funnel.clone()
    }

    /// Figure 8: the `k` most active accounts.
    pub fn most_active(&self, k: usize, cluster: &ClusterInfo) -> Vec<ActiveAccount> {
        let mut rows: Vec<ActiveAccount> = self
            .per_account
            .iter()
            .map(|(account, (oc, pay, others))| {
                let total = oc + pay + others;
                ActiveAccount {
                    account: *account,
                    offer_creates: *oc,
                    payments: *pay,
                    others: *others,
                    total,
                    share_pct: total as f64 * 100.0 / self.grand_total.max(1) as f64,
                    top_tag: self.tags.get(account).and_then(|t| t.top(1).first().cloned()),
                    entity: cluster.entity(*account),
                }
            })
            .collect();
        rows.sort_by(|a, b| b.total.cmp(&a.total).then(a.account.cmp(&b.account)));
        rows.truncate(k);
        rows
    }

    /// Figure 12: the entity-level value flows.
    pub fn value_flow(&self, cluster: &ClusterInfo) -> ValueFlowReport {
        // Deterministic account order before the f64 entity aggregation.
        let by_entity = |drops: &HashMap<AccountId, i128>, fallback: &str| {
            let mut accounts: Vec<(&AccountId, &i128)> = drops.iter().collect();
            accounts.sort_by_key(|(a, _)| **a);
            let mut m: HashMap<String, f64> = HashMap::new();
            for (a, d) in accounts {
                let e = cluster.entity_or(*a, fallback);
                *m.entry(e).or_insert(0.0) += *d as f64 / DROPS_PER_XRP as f64;
            }
            let mut v: Vec<(String, f64)> = m.into_iter().collect();
            v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
            v
        };
        let mut currencies: Vec<(String, f64, f64, f64)> = self
            .currencies
            .iter()
            .map(|(t, (nominal, valuable, drops))| {
                // The XRP bucket accumulates drops, IOU buckets accumulate
                // IOU units; divide each by its own scale (they are both
                // 1e6 today, but the asset kinds are distinct).
                let unit =
                    if t == "XRP" { DROPS_PER_XRP as f64 } else { IOU_UNIT as f64 };
                (
                    t.clone(),
                    *nominal as f64 / unit,
                    *valuable as f64 / unit,
                    *drops as f64 / DROPS_PER_XRP as f64,
                )
            })
            .collect();
        currencies.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("finite").then(a.0.cmp(&b.0)));
        ValueFlowReport {
            xrp_payment_volume: self.xrp_volume_drops as f64 / DROPS_PER_XRP as f64,
            top_senders: by_entity(&self.sender_drops, "Other senders"),
            top_receivers: by_entity(&self.receiver_drops, "Other receivers"),
            currencies,
        }
    }

    /// §4.3: six-hour buckets whose payment count exceeds `threshold ×` the
    /// median payment rate.
    pub fn payment_spike_buckets(&self, threshold: f64) -> Vec<usize> {
        let series = &self.payment_series;
        let counts: Vec<u64> =
            (0..series.bucket_count()).map(|i| series.bucket_total(i)).collect();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2].max(1);
        counts
            .into_iter()
            .enumerate()
            .filter(|(_, c)| *c as f64 > threshold * median as f64)
            .map(|(i, _)| i)
            .collect()
    }

    /// §3.3: the account-concentration statistics over transaction senders.
    pub fn concentration(&self) -> ConcentrationReport {
        let total = self.grand_total;
        let mut counts: Vec<u64> =
            self.per_account.values().map(|(a, b, c)| a + b + c).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let single = counts.iter().filter(|c| **c == 1).count() as u64;
        let mut acc = 0u64;
        let mut half_k = 0u64;
        for c in &counts {
            acc += c;
            half_k += 1;
            if acc * 2 >= total {
                break;
            }
        }
        let values: Vec<f64> = counts.iter().map(|c| *c as f64).collect();
        ConcentrationReport {
            accounts: counts.len() as u64,
            total_txs: total,
            single_tx_accounts: single,
            half_traffic_accounts: half_k,
            mean_txs_per_account: total as f64 / counts.len().max(1) as f64,
            gini: txstat_types::gini(&values),
        }
    }

    /// Headline transactions-per-second ("19 TPS for XRP").
    pub fn tps(&self) -> f64 {
        self.grand_total as f64 / self.period.seconds().max(1) as f64
    }

    /// §5 payment graph.
    pub fn graph(&self) -> &crate::graph::TransferGraph<AccountId> {
        &self.graph
    }

    /// Point lookup for one account's activity (the serve path's
    /// `/account/xrp/<account>` query). `None` if the sweep never saw it.
    pub fn account_stats(&self, account: AccountId) -> Option<XrpAccountStats> {
        let (offer_creates, payments, others) = *self.per_account.get(&account)?;
        let total = offer_creates + payments + others;
        Some(XrpAccountStats {
            account,
            offer_creates,
            payments,
            others,
            total,
            share_pct: total as f64 * 100.0 / self.grand_total.max(1) as f64,
            top_tag: self
                .tags
                .get(&account)
                .and_then(|t| t.top(1).first().cloned()),
        })
    }
}

/// One XRP account's sweep-level activity summary (Figure 8's row shape).
#[derive(Debug, Clone)]
pub struct XrpAccountStats {
    pub account: AccountId,
    pub offer_creates: u64,
    pub payments: u64,
    pub others: u64,
    pub total: u64,
    /// Share of all transactions in the window, in percent.
    pub share_pct: f64,
    /// Most frequent destination tag, `(tag, count)`.
    pub top_tag: Option<(u32, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use txstat_xrp::amount::Amount;
    use txstat_xrp::tx::{AppliedTx, Transaction, TxPayload, TxResult};

    fn t0() -> ChainTime {
        ChainTime::from_ymd(2019, 10, 1)
    }

    fn period() -> Period {
        Period::new(t0(), ChainTime::from_ymd(2019, 10, 2))
    }

    fn block(i: u64, transactions: Vec<AppliedTx>) -> LedgerBlock {
        LedgerBlock { index: 50_400_000 + i, close_time: t0() + 60 * i as i64, transactions }
    }

    fn applied(
        account: u64,
        payload: TxPayload,
        result: TxResult,
        delivered: Option<Amount>,
        crossed: bool,
    ) -> AppliedTx {
        AppliedTx { tx: Transaction::new(AccountId(account), payload, 10), result, delivered, crossed }
    }

    fn xrp_payment(from: u64, to: u64, whole: i64, result: TxResult) -> AppliedTx {
        let delivered =
            if result.is_success() { Some(Amount::xrp(whole)) } else { None };
        applied(
            from,
            TxPayload::Payment { destination: AccountId(to), amount: Amount::xrp(whole), send_max: None },
            result,
            delivered,
            false,
        )
    }

    fn iou_payment(from: u64, to: u64, currency: &str, issuer: u64, whole: i64) -> AppliedTx {
        let amt = Amount::iou_whole(currency, AccountId(issuer), whole);
        applied(
            from,
            TxPayload::Payment { destination: AccountId(to), amount: amt, send_max: None },
            TxResult::Success,
            Some(amt),
            false,
        )
    }

    fn offer(account: u64, crossed: bool) -> AppliedTx {
        applied(
            account,
            TxPayload::OfferCreate {
                gets: Amount::xrp(10),
                pays: Amount::iou_whole("USD", AccountId(1), 2),
            },
            TxResult::Success,
            None,
            crossed,
        )
    }

    fn oracle_with_usd() -> RateOracle {
        let trades = vec![TradeRecord {
            time: t0(),
            currency: IssuedCurrency::new("USD", AccountId(1)),
            iou_value: 2 * IOU_UNIT,
            drops: 10 * DROPS_PER_XRP,
            maker: AccountId(1),
        }];
        RateOracle::from_trades(&trades, ChainTime::from_ymd(2019, 10, 2), 30)
    }

    #[test]
    fn distribution_counts_types() {
        let blocks = vec![block(
            1,
            vec![
                xrp_payment(1, 2, 5, TxResult::Success),
                offer(3, false),
                offer(3, false),
                applied(4, TxPayload::SetRegularKey, TxResult::Success, None, false),
            ],
        )];
        let (rows, total) =
            XrpSweep::compute(&blocks, period(), &oracle_with_usd()).tx_distribution();
        assert_eq!(total, 4);
        let oc = rows.iter().find(|r| r.tx_type == TxType::OfferCreate).unwrap();
        assert_eq!(oc.count, 2);
        assert_eq!(oc.class, XrpTxClass::OtherAction);
        assert_eq!(
            rows.iter().find(|r| r.tx_type == TxType::Payment).unwrap().class,
            XrpTxClass::P2pTransaction
        );
    }

    #[test]
    fn funnel_distinguishes_value() {
        let oracle = oracle_with_usd();
        let blocks = vec![block(
            1,
            vec![
                xrp_payment(1, 2, 100, TxResult::Success),      // with value (XRP)
                iou_payment(1, 2, "USD", 1, 50),                // with value (rated)
                iou_payment(1, 2, "BTC", 99, 7),                // no value (unrated)
                xrp_payment(1, 2, 100, TxResult::PathDry),      // failed
                offer(3, true),                                 // exchanged
                offer(3, false),                                // not exchanged
                offer(3, false),
                applied(4, TxPayload::SetRegularKey, TxResult::Success, None, false),
            ],
        )];
        let sweep = XrpSweep::compute(&blocks, period(), &oracle);
        // §5 graph: the three successful payments, all 1 → 2.
        assert_eq!(sweep.graph().transfers(), 3);
        assert_eq!(sweep.graph().fanout_of(&AccountId(1)), 1);
        let f = sweep.funnel();
        assert_eq!(f.total, 8);
        assert_eq!(f.failed, 1);
        assert_eq!(f.payments, 3);
        assert_eq!(f.payments_with_value, 2);
        assert_eq!(f.payments_no_value, 1);
        assert_eq!(f.offers, 3);
        assert_eq!(f.offers_exchanged, 1);
        assert_eq!(f.others, 1);
        assert!((f.valuable_payment_ratio() - 1.5).abs() < 1e-9);
        assert!((f.offer_fulfillment_pct() - 33.333).abs() < 0.01);
        assert!((f.economic_share_pct() - 37.5).abs() < 1e-9);
    }

    #[test]
    fn most_active_ranks_and_tags() {
        let mut cluster = ClusterInfo::new();
        cluster.insert(AccountId(60), None, Some(AccountId(61)));
        cluster.insert(AccountId(61), Some("Huobi Global".into()), None);
        let mut txs = vec![];
        for _ in 0..10 {
            txs.push(offer(60, false));
        }
        let mut tagged = xrp_payment(60, 61, 5, TxResult::Success);
        tagged.tx.destination_tag = Some(104_398);
        txs.push(tagged);
        txs.push(xrp_payment(2, 3, 5, TxResult::Success));
        let blocks = vec![block(1, txs)];
        let rows =
            XrpSweep::compute(&blocks, period(), &oracle_with_usd()).most_active(2, &cluster);
        assert_eq!(rows[0].account, AccountId(60));
        assert_eq!(rows[0].offer_creates, 10);
        assert_eq!(rows[0].payments, 1);
        assert_eq!(rows[0].top_tag, Some((104_398, 1)));
        assert_eq!(rows[0].entity.as_deref(), Some("Huobi Global -- descendant"));
        assert!((rows[0].share_pct - 11.0 / 12.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn value_flow_aggregates_by_entity() {
        let oracle = oracle_with_usd();
        let mut cluster = ClusterInfo::new();
        cluster.insert(AccountId(1), Some("Binance".into()), None);
        cluster.insert(AccountId(2), Some("Coinbase".into()), None);
        let blocks = vec![block(
            1,
            vec![
                xrp_payment(1, 2, 1000, TxResult::Success),
                iou_payment(1, 2, "USD", 1, 100), // rated at 5 XRP/USD
                iou_payment(1, 2, "GKO", 9, 999), // unrated: nominal only
            ],
        )];
        let flow = XrpSweep::compute(&blocks, period(), &oracle).value_flow(&cluster);
        assert!((flow.xrp_payment_volume - 1000.0).abs() < 1e-9);
        assert_eq!(flow.top_senders[0].0, "Binance");
        assert!((flow.top_senders[0].1 - 1500.0).abs() < 1e-6, "1000 XRP + 100 USD × 5");
        assert_eq!(flow.top_receivers[0].0, "Coinbase");
        let usd = flow.currencies.iter().find(|c| c.0 == "USD").unwrap();
        assert!((usd.1 - 100.0).abs() < 1e-9);
        assert!((usd.3 - 500.0).abs() < 1e-9);
        let gko = flow.currencies.iter().find(|c| c.0 == "GKO").unwrap();
        assert!((gko.1 - 999.0).abs() < 1e-9, "nominal counted");
        assert_eq!(gko.3, 0.0, "no valuable volume");
    }

    #[test]
    fn rates_by_issuer_sorted() {
        let oracle = oracle_with_usd();
        let rows = rates_by_issuer(&oracle, "USD", &[AccountId(1), AccountId(2)]);
        assert_eq!(rows[0].0, AccountId(1));
        assert!((rows[0].1.unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(rows[1].1, None);
    }

    #[test]
    fn trade_events_sorted_by_time() {
        let ic = IssuedCurrency::new("BTC", AccountId(5));
        let trades = vec![
            TradeRecord { time: t0() + 100, currency: ic, iou_value: IOU_UNIT, drops: DROPS_PER_XRP, maker: AccountId(8) },
            TradeRecord { time: t0(), currency: ic, iou_value: IOU_UNIT, drops: 30_500 * DROPS_PER_XRP, maker: AccountId(7) },
        ];
        let ev = trade_events(&trades, ic);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].1, AccountId(7));
        assert!((ev[0].2 - 30_500.0).abs() < 1e-6);
        assert!((ev[1].2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concentration_statistics() {
        let mut txs = Vec::new();
        // Account 1: 10 txs; accounts 2..=5: 1 tx each.
        for _ in 0..10 {
            txs.push(xrp_payment(1, 9, 1, TxResult::Success));
        }
        for a in 2..=5u64 {
            txs.push(xrp_payment(a, 9, 1, TxResult::Success));
        }
        let blocks = vec![block(1, txs)];
        let r = XrpSweep::compute(&blocks, period(), &oracle_with_usd()).concentration();
        assert_eq!(r.accounts, 5);
        assert_eq!(r.total_txs, 14);
        assert_eq!(r.single_tx_accounts, 4);
        assert_eq!(r.half_traffic_accounts, 1, "account 1 alone carries half");
        assert!((r.mean_txs_per_account - 2.8).abs() < 1e-9);
        assert!(r.gini > 0.4, "skewed activity: gini {}", r.gini);
    }

    #[test]
    fn spike_detection() {
        let mut blocks = Vec::new();
        // Baseline: 1 payment per bucket; bucket 2 gets 50.
        for i in 0..4u64 {
            let mut txs = vec![xrp_payment(1, 2, 1, TxResult::Success)];
            if i == 2 {
                for _ in 0..49 {
                    txs.push(xrp_payment(1, 2, 1, TxResult::Success));
                }
            }
            blocks.push(block(i * 360, txs)); // 360 min apart → distinct buckets
        }
        let spikes =
            XrpSweep::compute(&blocks, period(), &oracle_with_usd()).payment_spike_buckets(3.0);
        assert_eq!(spikes, vec![2]);
    }
}
