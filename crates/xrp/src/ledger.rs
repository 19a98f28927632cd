//! The XRP ledger engine: accounts, reserves, fee burning, transaction
//! application with on-ledger failure recording, and periodic ledger closes.
//!
//! Behaviours the paper's analysis depends on, all implemented here:
//! - **failed transactions are recorded** and burn their fee (≈10% of
//!   observed throughput, Figure 7);
//! - **accounts are created by funding payments**, establishing the
//!   parent/descendant relation used to cluster entities (Figures 8, 12);
//! - offers cross at maker prices and feed the rate oracle (Figures 11, 12);
//! - escrows implement Ripple's monthly release-and-return cycle (§4.3).

use crate::address::AccountId;
use crate::amount::{Amount, Asset, IssuedCurrency};
use crate::dex::{Dex, DexError, Fill};
use crate::escrow::{Escrow, PayChannel};
use crate::rates::TradeRecord;
use crate::trustline::{TlError, TrustLines};
use crate::tx::{AppliedTx, Transaction, TxPayload, TxResult};
use std::collections::HashMap;
use txstat_types::time::ChainTime;

/// Ledger parameters (2019 mainnet values).
#[derive(Debug, Clone)]
pub struct LedgerConfig {
    pub genesis_time: ChainTime,
    /// Scenario ledger-close interval (mainnet: ~3.5 s).
    pub close_interval_secs: i64,
    /// First ledger index, mirroring the paper (50,400,001–52,431,069).
    pub start_index: u64,
    pub base_fee_drops: i64,
    /// Base account reserve (20 XRP in 2019).
    pub base_reserve_drops: i64,
    /// Per-object owner reserve (5 XRP in 2019).
    pub owner_reserve_drops: i64,
    /// Total XRP ever issued (100 billion).
    pub total_supply_drops: i64,
    /// The genesis/treasury account holding unissued supply.
    pub genesis_account: AccountId,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig {
            genesis_time: ChainTime::from_ymd(2019, 10, 1),
            close_interval_secs: 4,
            start_index: 50_400_001,
            base_fee_drops: 10,
            base_reserve_drops: 20 * 1_000_000,
            owner_reserve_drops: 5 * 1_000_000,
            total_supply_drops: 100_000_000_000 * 1_000_000,
            genesis_account: AccountId(100),
        }
    }
}

/// Per-account ledger state.
#[derive(Debug, Clone, Copy)]
pub struct AccountRoot {
    pub balance_drops: i64,
    pub sequence: u32,
    /// The account whose payment created this account (§3.1: "a parent
    /// account sends initial funds to activate a new account").
    pub activated_by: Option<AccountId>,
    pub activated_at: ChainTime,
    /// Owner objects (trust lines, offers, escrows) for reserve accounting.
    pub owner_count: u32,
}

/// A closed ledger (block).
#[derive(Debug, Clone)]
pub struct LedgerBlock {
    pub index: u64,
    pub close_time: ChainTime,
    pub transactions: Vec<AppliedTx>,
}

/// Reasons a transaction never reaches the ledger at all (distinct from the
/// recorded `tec` failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    UnknownAccount(AccountId),
    /// Cannot even pay the fee.
    InsufficientFee {
        account: AccountId,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownAccount(a) => write!(f, "unknown account {a}"),
            SubmitError::InsufficientFee { account } => write!(f, "{account} cannot pay fee"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The ledger.
pub struct XrpLedger {
    pub config: LedgerConfig,
    accounts: HashMap<AccountId, AccountRoot>,
    pub(crate) trustlines: TrustLines,
    pub dex: Dex,
    escrows: HashMap<u64, Escrow>,
    channels: HashMap<u64, PayChannel>,
    next_object_id: u64,
    closed: Vec<LedgerBlock>,
    pending: Vec<AppliedTx>,
    pub fees_burned_drops: i64,
    /// IOU↔XRP fills, feeding [`crate::rates::RateOracle`].
    pub trades: Vec<TradeRecord>,
    /// Count of transactions refused before inclusion (no account / fee).
    pub not_included: u64,
}

impl XrpLedger {
    pub fn new(config: LedgerConfig) -> Self {
        let mut accounts = HashMap::new();
        accounts.insert(
            config.genesis_account,
            AccountRoot {
                balance_drops: config.total_supply_drops,
                sequence: 1,
                activated_by: None,
                activated_at: config.genesis_time,
                owner_count: 0,
            },
        );
        XrpLedger {
            config,
            accounts,
            trustlines: TrustLines::new(),
            dex: Dex::new(),
            escrows: HashMap::new(),
            channels: HashMap::new(),
            next_object_id: 1,
            closed: Vec::new(),
            pending: Vec::new(),
            fees_burned_drops: 0,
            trades: Vec::new(),
            not_included: 0,
        }
    }

    // ---- bootstrap ---------------------------------------------------------

    /// Pre-window setup: create `id` funded with `drops` out of the genesis
    /// account's balance, recording `parent` as activator. Conservation is
    /// preserved (the drops move from genesis). Panics if genesis lacks
    /// funds — bootstrap errors are programming errors, not chain events.
    pub fn bootstrap_account(&mut self, id: AccountId, drops: i64, parent: Option<AccountId>) {
        assert!(
            !self.accounts.contains_key(&id),
            "bootstrap of existing account {id}"
        );
        let g = self.config.genesis_account;
        let gen = self.accounts.get_mut(&g).expect("genesis account exists");
        assert!(
            gen.balance_drops >= drops,
            "genesis underfunded for bootstrap"
        );
        gen.balance_drops -= drops;
        self.accounts.insert(
            id,
            AccountRoot {
                balance_drops: drops,
                sequence: 1,
                activated_by: parent.or(Some(g)),
                activated_at: self.config.genesis_time,
                owner_count: 0,
            },
        );
    }

    /// Pre-window setup: give `holder` an IOU balance (issuance) with a
    /// generous limit. Obligations bookkeeping stays consistent.
    pub fn bootstrap_iou(&mut self, holder: AccountId, currency: IssuedCurrency, raw: i128) {
        self.trustlines
            .set_limit(holder, currency, i128::MAX / 8)
            .expect("bootstrap trustline");
        self.trustlines
            .credit(holder, currency, raw, true)
            .expect("bootstrap credit");
        self.inc_owner_count(holder);
    }

    // ---- accessors ---------------------------------------------------------

    pub fn account(&self, id: AccountId) -> Option<&AccountRoot> {
        self.accounts.get(&id)
    }

    pub fn balance_drops(&self, id: AccountId) -> i64 {
        self.accounts.get(&id).map(|a| a.balance_drops).unwrap_or(0)
    }

    /// Iterate over all account roots (analytics / cluster building).
    pub fn accounts(&self) -> impl Iterator<Item = (&AccountId, &AccountRoot)> {
        self.accounts.iter()
    }

    pub fn closed_ledgers(&self) -> &[LedgerBlock] {
        &self.closed
    }

    /// Give up the ledger for its closed ledgers (moved, not copied).
    pub fn into_closed_ledgers(self) -> Vec<LedgerBlock> {
        self.closed
    }

    pub fn head_index(&self) -> u64 {
        self.config.start_index + self.closed.len().saturating_sub(1) as u64
    }

    pub fn ledger_by_index(&self, index: u64) -> Option<&LedgerBlock> {
        let i = index.checked_sub(self.config.start_index)? as usize;
        self.closed.get(i)
    }

    pub fn next_close_time(&self) -> ChainTime {
        self.config.genesis_time + (self.closed.len() as i64 + 1) * self.config.close_interval_secs
    }

    pub(crate) fn escrows_locked_drops(&self) -> i64 {
        self.escrows.values().map(|e| e.drops).sum()
    }

    pub(crate) fn channels_locked_drops(&self) -> i64 {
        self.channels.values().map(|c| c.remaining_drops).sum()
    }

    /// Reserve requirement for an account.
    pub(crate) fn reserve_drops(&self, id: AccountId) -> i64 {
        let oc = self.accounts.get(&id).map(|a| a.owner_count).unwrap_or(0);
        self.config.base_reserve_drops + oc as i64 * self.config.owner_reserve_drops
    }

    /// XRP spendable above the reserve.
    pub(crate) fn spendable_drops(&self, id: AccountId) -> i64 {
        (self.balance_drops(id) - self.reserve_drops(id)).max(0)
    }

    /// Available funds per asset — the funding view handed to the DEX.
    fn available(&self, account: AccountId, asset: Asset) -> i128 {
        available_in(
            &self.accounts,
            &self.trustlines,
            &self.config,
            account,
            asset,
        )
    }

    // ---- transaction application -------------------------------------------

    /// Submit a transaction. The fee is burned whether the transaction
    /// succeeds or fails; the applied result is queued for the next close.
    pub fn submit(&mut self, tx: Transaction, now: ChainTime) -> Result<TxResult, SubmitError> {
        let acct = self
            .accounts
            .get_mut(&tx.account)
            .ok_or(SubmitError::UnknownAccount(tx.account))?;
        if acct.balance_drops < tx.fee_drops {
            self.not_included += 1;
            return Err(SubmitError::InsufficientFee {
                account: tx.account,
            });
        }
        acct.balance_drops -= tx.fee_drops;
        acct.sequence += 1;
        self.fees_burned_drops += tx.fee_drops;

        let (result, delivered, crossed) = self.apply_payload(&tx, now);
        self.pending.push(AppliedTx {
            tx,
            result,
            delivered,
            crossed,
        });
        Ok(result)
    }

    fn apply_payload(
        &mut self,
        tx: &Transaction,
        now: ChainTime,
    ) -> (TxResult, Option<Amount>, bool) {
        match &tx.payload {
            TxPayload::Payment {
                destination,
                amount,
                send_max,
            } => {
                let (r, d) = self.apply_payment(tx.account, *destination, *amount, *send_max, now);
                (r, d, false)
            }
            TxPayload::OfferCreate { gets, pays } => {
                match self.apply_offer_create(tx.account, *gets, *pays) {
                    Ok(crossed) => (TxResult::Success, None, crossed),
                    Err(r) => (r, None, false),
                }
            }
            TxPayload::OfferCancel { offer } => match self.dex.cancel(tx.account, *offer) {
                Ok(()) => {
                    self.dec_owner_count(tx.account);
                    (TxResult::Success, None, false)
                }
                // Canceling a gone offer is a harmless success on XRPL.
                Err(DexError::UnknownOffer(_)) => (TxResult::Success, None, false),
                Err(_) => (TxResult::NoPermission, None, false),
            },
            TxPayload::TrustSet { currency, limit } => {
                let had = self.trustlines.has_line(tx.account, *currency);
                match self.trustlines.set_limit(tx.account, *currency, *limit) {
                    Ok(()) => {
                        if !had {
                            self.inc_owner_count(tx.account);
                        }
                        (TxResult::Success, None, false)
                    }
                    Err(_) => (TxResult::Malformed, None, false),
                }
            }
            TxPayload::AccountSet { .. }
            | TxPayload::SignerListSet { .. }
            | TxPayload::SetRegularKey
            | TxPayload::EnableAmendment { .. } => (TxResult::Success, None, false),
            TxPayload::EscrowCreate {
                destination,
                drops,
                finish_after,
                cancel_after,
            } => {
                if *drops <= 0 {
                    return (TxResult::Malformed, None, false);
                }
                if self.spendable_drops(tx.account) < *drops {
                    return (TxResult::UnfundedPayment, None, false);
                }
                self.accounts
                    .get_mut(&tx.account)
                    .expect("payer exists")
                    .balance_drops -= drops;
                let id = self.next_object_id;
                self.next_object_id += 1;
                self.escrows.insert(
                    id,
                    Escrow {
                        id,
                        owner: tx.account,
                        destination: *destination,
                        drops: *drops,
                        finish_after: *finish_after,
                        cancel_after: *cancel_after,
                    },
                );
                self.inc_owner_count(tx.account);
                (TxResult::Success, None, false)
            }
            TxPayload::EscrowFinish { escrow_id } => match self.escrows.get(escrow_id).copied() {
                None => (TxResult::NoEntry, None, false),
                Some(e) if now.secs() < e.finish_after.secs() => {
                    (TxResult::NoPermission, None, false)
                }
                Some(e) => {
                    self.escrows.remove(escrow_id);
                    self.credit_or_create(e.destination, e.drops, e.owner, now);
                    self.dec_owner_count(e.owner);
                    (TxResult::Success, Some(Amount::xrp_drops(e.drops)), false)
                }
            },
            TxPayload::EscrowCancel { escrow_id } => match self.escrows.get(escrow_id).copied() {
                None => (TxResult::NoEntry, None, false),
                Some(e) => match e.cancel_after {
                    Some(ca) if now.secs() >= ca.secs() => {
                        self.escrows.remove(escrow_id);
                        self.credit_or_create(e.owner, e.drops, e.owner, now);
                        self.dec_owner_count(e.owner);
                        (TxResult::Success, None, false)
                    }
                    _ => (TxResult::NoPermission, None, false),
                },
            },
            TxPayload::PaymentChannelCreate { destination, drops } => {
                if *drops <= 0 {
                    return (TxResult::Malformed, None, false);
                }
                if self.spendable_drops(tx.account) < *drops {
                    return (TxResult::UnfundedPayment, None, false);
                }
                self.accounts
                    .get_mut(&tx.account)
                    .expect("payer exists")
                    .balance_drops -= drops;
                let id = self.next_object_id;
                self.next_object_id += 1;
                self.channels.insert(
                    id,
                    PayChannel {
                        id,
                        owner: tx.account,
                        destination: *destination,
                        remaining_drops: *drops,
                    },
                );
                self.inc_owner_count(tx.account);
                (TxResult::Success, None, false)
            }
            TxPayload::PaymentChannelClaim { channel_id, drops } => {
                match self.channels.get_mut(channel_id) {
                    None => (TxResult::NoEntry, None, false),
                    Some(ch) => {
                        let claim = (*drops).min(ch.remaining_drops);
                        if claim <= 0 {
                            return (TxResult::NoPermission, None, false);
                        }
                        ch.remaining_drops -= claim;
                        let dest = ch.destination;
                        let owner = ch.owner;
                        if ch.remaining_drops == 0 {
                            self.channels.remove(channel_id);
                            self.dec_owner_count(owner);
                        }
                        self.credit_or_create(dest, claim, owner, now);
                        (TxResult::Success, Some(Amount::xrp_drops(claim)), false)
                    }
                }
            }
        }
    }

    fn inc_owner_count(&mut self, id: AccountId) {
        if let Some(a) = self.accounts.get_mut(&id) {
            a.owner_count += 1;
        }
    }

    fn dec_owner_count(&mut self, id: AccountId) {
        if let Some(a) = self.accounts.get_mut(&id) {
            a.owner_count = a.owner_count.saturating_sub(1);
        }
    }

    /// Credit XRP, creating the account if needed (recording the parent).
    fn credit_or_create(&mut self, dest: AccountId, drops: i64, parent: AccountId, now: ChainTime) {
        match self.accounts.get_mut(&dest) {
            Some(a) => a.balance_drops += drops,
            None => {
                self.accounts.insert(
                    dest,
                    AccountRoot {
                        balance_drops: drops,
                        sequence: 1,
                        activated_by: Some(parent),
                        activated_at: now,
                        owner_count: 0,
                    },
                );
            }
        }
    }

    fn apply_payment(
        &mut self,
        from: AccountId,
        to: AccountId,
        amount: Amount,
        send_max: Option<Amount>,
        now: ChainTime,
    ) -> (TxResult, Option<Amount>) {
        if amount.value <= 0 {
            return (TxResult::Malformed, None);
        }
        match (amount.asset, send_max) {
            // Native XRP payment.
            (Asset::Xrp, None) => {
                let drops = amount.value as i64;
                let dest_exists = self.accounts.contains_key(&to);
                if !dest_exists && drops < self.config.base_reserve_drops {
                    return (TxResult::NoDestination, None);
                }
                if self.spendable_drops(from) < drops {
                    return (TxResult::UnfundedPayment, None);
                }
                self.accounts
                    .get_mut(&from)
                    .expect("sender exists")
                    .balance_drops -= drops;
                self.credit_or_create(to, drops, from, now);
                (TxResult::Success, Some(amount))
            }
            // Same-asset IOU payment along trust lines.
            (Asset::Iou(ic), None) => {
                if !self.accounts.contains_key(&to) {
                    return (TxResult::NoDestination, None);
                }
                match self.trustlines.transfer(from, to, ic, amount.value, true) {
                    Ok(()) => (TxResult::Success, Some(amount)),
                    Err(TlError::NoLine { .. }) | Err(TlError::LimitExceeded { .. }) => {
                        (TxResult::PathDry, None)
                    }
                    Err(TlError::InsufficientFunds { .. }) => (TxResult::PathDry, None),
                    Err(_) => (TxResult::Malformed, None),
                }
            }
            // Cross-currency payment through the order books.
            (_, Some(max)) if max.asset != amount.asset => {
                // Destination must be able to receive the delivered asset.
                if !self.accounts.contains_key(&to) {
                    return (TxResult::NoDestination, None);
                }
                if let Asset::Iou(ic) = amount.asset {
                    if to != ic.issuer && !self.trustlines.has_line(to, ic) {
                        return (TxResult::PathDry, None);
                    }
                }
                let plan = match self
                    .dex
                    .plan_market(from, amount, max, |a, s| self.available(a, s))
                {
                    Some(p) => p,
                    None => return (TxResult::PathDry, None),
                };
                // Settle every fill, then deliver the acquired asset.
                for fill in &plan {
                    self.settle_fill(from, fill, now);
                }
                self.dex.execute_plan(&plan);
                // Sender now holds `amount`; deliver to destination.
                if self.move_asset(from, to, amount, now).is_err() {
                    // Should not happen: we just acquired the funds.
                    return (TxResult::PathDry, None);
                }
                (TxResult::Success, Some(amount))
            }
            // send_max in the same asset: treat as a capped direct payment.
            (_, Some(_)) => {
                let (r, d) = self.apply_payment(from, to, amount, None, now);
                (r, d)
            }
        }
    }

    /// Move an amount between accounts (XRP or IOU), without limit
    /// enforcement (used for post-conversion delivery and fill settlement).
    fn move_asset(
        &mut self,
        from: AccountId,
        to: AccountId,
        amount: Amount,
        now: ChainTime,
    ) -> Result<(), ()> {
        match amount.asset {
            Asset::Xrp => {
                let drops = amount.value as i64;
                let a = self.accounts.get_mut(&from).ok_or(())?;
                if a.balance_drops < drops {
                    return Err(());
                }
                a.balance_drops -= drops;
                self.credit_or_create(to, drops, from, now);
                Ok(())
            }
            Asset::Iou(ic) => self
                .trustlines
                .transfer(from, to, ic, amount.value, false)
                .map_err(|_| ()),
        }
    }

    /// Settle one fill between `taker` and the maker: maker_gives flows
    /// maker→taker, maker_receives flows taker→maker. Records IOU↔XRP trades
    /// for the rate oracle.
    fn settle_fill(&mut self, taker: AccountId, fill: &Fill, now: ChainTime) {
        let _ = self.move_asset(fill.maker, taker, fill.maker_gives, now);
        let _ = self.move_asset(taker, fill.maker, fill.maker_receives, now);
        self.record_trade(fill, now);
    }

    fn record_trade(&mut self, fill: &Fill, now: ChainTime) {
        let (iou, drops) = match (fill.maker_gives.asset, fill.maker_receives.asset) {
            (Asset::Iou(ic), Asset::Xrp) => (
                (ic, fill.maker_gives.value),
                fill.maker_receives.value as i64,
            ),
            (Asset::Xrp, Asset::Iou(ic)) => (
                (ic, fill.maker_receives.value),
                fill.maker_gives.value as i64,
            ),
            _ => return, // IOU↔IOU trades don't set XRP rates
        };
        self.trades.push(TradeRecord {
            time: now,
            currency: iou.0,
            iou_value: iou.1,
            drops,
            maker: fill.maker,
        });
    }

    fn apply_offer_create(
        &mut self,
        owner: AccountId,
        gets: Amount,
        pays: Amount,
    ) -> Result<bool, TxResult> {
        let now = self.next_close_time();
        // Disjoint field borrows: the DEX is mutated while the funding view
        // reads accounts/trustlines/config.
        let (accounts, trustlines, config) = (&self.accounts, &self.trustlines, &self.config);
        let outcome = self
            .dex
            .create_offer(owner, gets, pays, |a, s| {
                available_in(accounts, trustlines, config, a, s)
            })
            .map_err(|e| match e {
                DexError::Unfunded { .. } => TxResult::UnfundedOffer,
                DexError::BadOffer => TxResult::Malformed,
                _ => TxResult::Malformed,
            })?;
        let crossed = !outcome.fills.is_empty();
        for fill in &outcome.fills {
            self.settle_fill(owner, fill, now);
        }
        if outcome.resting.is_some() {
            self.inc_owner_count(owner);
        }
        Ok(crossed)
    }

    /// Close the current ledger, draining pending transactions.
    pub fn close_ledger(&mut self) -> &LedgerBlock {
        let index = self.config.start_index + self.closed.len() as u64;
        let close_time = self.next_close_time();
        // The next ledger's queue starts at this one's size: traffic is
        // stationary close to close.
        let sized = Vec::with_capacity(self.pending.len());
        let transactions = std::mem::replace(&mut self.pending, sized);
        self.closed.push(LedgerBlock {
            index,
            close_time,
            transactions,
        });
        self.closed.last().expect("just pushed")
    }

    /// Total transactions recorded in closed ledgers.
    pub fn tx_count(&self) -> u64 {
        self.closed
            .iter()
            .map(|l| l.transactions.len() as u64)
            .sum()
    }

    /// Conservation audit: account balances + locked escrows/channels +
    /// burned fees == total supply, and trust lines are internally
    /// consistent.
    pub fn check_conservation(&self) -> Result<(), String> {
        let balances: i64 = self.accounts.values().map(|a| a.balance_drops).sum();
        let total = balances
            + self.escrows_locked_drops()
            + self.channels_locked_drops()
            + self.fees_burned_drops;
        if total != self.config.total_supply_drops {
            return Err(format!(
                "XRP drift: accounts {balances} + locked + fees = {total}, supply {}",
                self.config.total_supply_drops
            ));
        }
        self.trustlines.check_conservation()?;
        self.dex.check_books_sorted()?;
        self.dex.check_index()?;
        Ok(())
    }
}

/// Spendable funds of `account` in `asset`, from disjoint ledger parts.
/// An issuer is treated as infinitely funded in its own IOU (it can always
/// issue more) — which matches how the real DEX treats issuer offers.
fn available_in(
    accounts: &HashMap<AccountId, AccountRoot>,
    trustlines: &TrustLines,
    config: &LedgerConfig,
    account: AccountId,
    asset: Asset,
) -> i128 {
    match asset {
        Asset::Xrp => {
            let root = match accounts.get(&account) {
                Some(r) => r,
                None => return 0,
            };
            let reserve =
                config.base_reserve_drops + root.owner_count as i64 * config.owner_reserve_drops;
            (root.balance_drops - reserve).max(0) as i128
        }
        Asset::Iou(ic) => {
            if account == ic.issuer {
                i128::MAX / 4
            } else {
                trustlines.balance(account, ic)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FEE: i64 = 10;

    fn ledger() -> XrpLedger {
        let mut l = XrpLedger::new(LedgerConfig::default());
        let g = l.config.genesis_account;
        let now = l.config.genesis_time;
        // Activate a few well-funded accounts.
        for i in 1..=5u64 {
            let tx = Transaction::new(
                g,
                TxPayload::Payment {
                    destination: AccountId(1000 + i),
                    amount: Amount::xrp(10_000),
                    send_max: None,
                },
                FEE,
            );
            assert_eq!(l.submit(tx, now), Ok(TxResult::Success));
        }
        l
    }

    #[test]
    fn activation_records_parent() {
        let l = ledger();
        let a = l.account(AccountId(1001)).unwrap();
        assert_eq!(a.activated_by, Some(l.config.genesis_account));
        assert_eq!(a.balance_drops, 10_000 * 1_000_000);
        l.check_conservation().unwrap();
    }

    #[test]
    fn payment_below_reserve_cannot_create_account() {
        let mut l = ledger();
        let now = l.config.genesis_time;
        let tx = Transaction::new(
            AccountId(1001),
            TxPayload::Payment {
                destination: AccountId(9999),
                amount: Amount::xrp(5), // < 20 XRP base reserve
                send_max: None,
            },
            FEE,
        );
        assert_eq!(l.submit(tx, now), Ok(TxResult::NoDestination));
        assert!(l.account(AccountId(9999)).is_none());
        // Fee was still burned, failure still recorded.
        assert_eq!(l.fees_burned_drops, FEE * 6);
        l.check_conservation().unwrap();
    }

    #[test]
    fn unfunded_xrp_payment_fails_but_is_recorded() {
        let mut l = ledger();
        let now = l.config.genesis_time;
        let tx = Transaction::new(
            AccountId(1001),
            TxPayload::Payment {
                destination: AccountId(1002),
                amount: Amount::xrp(999_999),
                send_max: None,
            },
            FEE,
        );
        assert_eq!(l.submit(tx, now), Ok(TxResult::UnfundedPayment));
        let block = l.close_ledger();
        assert_eq!(block.transactions.len(), 6);
        assert_eq!(block.transactions[5].result, TxResult::UnfundedPayment);
        l.check_conservation().unwrap();
    }

    #[test]
    fn iou_payment_needs_trustline() {
        let mut l = ledger();
        let now = l.config.genesis_time;
        let issuer = AccountId(1001);
        let usd = IssuedCurrency::new("USD", issuer);
        // Without a line: PATH_DRY.
        let tx = Transaction::new(
            issuer,
            TxPayload::Payment {
                destination: AccountId(1002),
                amount: Amount::iou_whole("USD", issuer, 100),
                send_max: None,
            },
            FEE,
        );
        assert_eq!(l.submit(tx, now), Ok(TxResult::PathDry));
        // Destination sets a trust line; issuance then succeeds.
        let ts = Transaction::new(
            AccountId(1002),
            TxPayload::TrustSet {
                currency: usd,
                limit: 1_000_000_000_000,
            },
            FEE,
        );
        assert_eq!(l.submit(ts, now), Ok(TxResult::Success));
        let tx = Transaction::new(
            issuer,
            TxPayload::Payment {
                destination: AccountId(1002),
                amount: Amount::iou_whole("USD", issuer, 100),
                send_max: None,
            },
            FEE,
        );
        assert_eq!(l.submit(tx, now), Ok(TxResult::Success));
        assert_eq!(
            l.trustlines.balance(AccountId(1002), usd),
            100 * crate::amount::IOU_UNIT
        );
        l.check_conservation().unwrap();
    }

    #[test]
    fn offer_create_crosses_and_records_trade() {
        let mut l = ledger();
        let now = l.config.genesis_time;
        let issuer = AccountId(1001);
        let usd = IssuedCurrency::new("USD", issuer);
        // Maker (issuer) sells 100 USD for 500 XRP.
        let mk = Transaction::new(
            issuer,
            TxPayload::OfferCreate {
                gets: Amount::iou_whole("USD", issuer, 100),
                pays: Amount::xrp(500),
            },
            FEE,
        );
        assert_eq!(l.submit(mk, now), Ok(TxResult::Success));
        // Taker buys it with XRP.
        let tk = Transaction::new(
            AccountId(1002),
            TxPayload::OfferCreate {
                gets: Amount::xrp(500),
                pays: Amount::iou_whole("USD", issuer, 100),
            },
            FEE,
        );
        assert_eq!(l.submit(tk, now), Ok(TxResult::Success));
        assert_eq!(
            l.trustlines.balance(AccountId(1002), usd),
            100 * crate::amount::IOU_UNIT,
            "taker received the IOU via implicit line"
        );
        assert_eq!(l.trades.len(), 1);
        assert!((l.trades[0].rate() - 5.0).abs() < 1e-9);
        l.check_conservation().unwrap();
        let block = l.close_ledger();
        assert!(block.transactions[6].crossed);
    }

    #[test]
    fn unfunded_offer_rejected_with_tec_code() {
        let mut l = ledger();
        let now = l.config.genesis_time;
        let usd = IssuedCurrency::new("USD", AccountId(1001));
        let tx = Transaction::new(
            AccountId(1002), // holds no USD
            TxPayload::OfferCreate {
                gets: Amount {
                    asset: Asset::Iou(usd),
                    value: 100,
                },
                pays: Amount::xrp(1),
            },
            FEE,
        );
        assert_eq!(l.submit(tx, now), Ok(TxResult::UnfundedOffer));
        l.check_conservation().unwrap();
    }

    #[test]
    fn cross_currency_payment_through_book() {
        let mut l = ledger();
        let now = l.config.genesis_time;
        let issuer = AccountId(1001);
        let usd = IssuedCurrency::new("USD", issuer);
        // Book: issuer sells 100 USD for 500 XRP.
        l.submit(
            Transaction::new(
                issuer,
                TxPayload::OfferCreate {
                    gets: Amount::iou_whole("USD", issuer, 100),
                    pays: Amount::xrp(500),
                },
                FEE,
            ),
            now,
        )
        .unwrap();
        // Receiver trusts the issuer.
        l.submit(
            Transaction::new(
                AccountId(1003),
                TxPayload::TrustSet {
                    currency: usd,
                    limit: i64::MAX as i128,
                },
                FEE,
            ),
            now,
        )
        .unwrap();
        // 1002 pays 1003 "20 USD" spending XRP.
        let pay = Transaction::new(
            AccountId(1002),
            TxPayload::Payment {
                destination: AccountId(1003),
                amount: Amount::iou_whole("USD", issuer, 20),
                send_max: Some(Amount::xrp(200)),
            },
            FEE,
        );
        assert_eq!(l.submit(pay, now), Ok(TxResult::Success));
        assert_eq!(
            l.trustlines.balance(AccountId(1003), usd),
            20 * crate::amount::IOU_UNIT
        );
        l.check_conservation().unwrap();
        // Without liquidity: PATH_DRY (asking more than the book holds).
        let dry = Transaction::new(
            AccountId(1002),
            TxPayload::Payment {
                destination: AccountId(1003),
                amount: Amount::iou_whole("USD", issuer, 10_000),
                send_max: Some(Amount::xrp(1_000_000)),
            },
            FEE,
        );
        assert_eq!(l.submit(dry, now), Ok(TxResult::PathDry));
        l.check_conservation().unwrap();
    }

    #[test]
    fn escrow_lifecycle() {
        let mut l = ledger();
        let t0 = l.config.genesis_time;
        let release = t0 + 30 * 86_400;
        l.submit(
            Transaction::new(
                AccountId(1001),
                TxPayload::EscrowCreate {
                    destination: AccountId(1002),
                    drops: 1_000 * 1_000_000,
                    finish_after: release,
                    cancel_after: None,
                },
                FEE,
            ),
            t0,
        )
        .unwrap();
        assert_eq!(l.escrows_locked_drops(), 1_000 * 1_000_000);
        // Too early to finish.
        assert_eq!(
            l.submit(
                Transaction::new(
                    AccountId(1002),
                    TxPayload::EscrowFinish { escrow_id: 1 },
                    FEE
                ),
                t0 + 86_400,
            ),
            Ok(TxResult::NoPermission)
        );
        // After the lock expires, anyone can finish it.
        assert_eq!(
            l.submit(
                Transaction::new(
                    AccountId(1002),
                    TxPayload::EscrowFinish { escrow_id: 1 },
                    FEE
                ),
                release,
            ),
            Ok(TxResult::Success)
        );
        assert_eq!(l.escrows_locked_drops(), 0);
        l.check_conservation().unwrap();
    }

    #[test]
    fn payment_channel_claims() {
        let mut l = ledger();
        let t0 = l.config.genesis_time;
        l.submit(
            Transaction::new(
                AccountId(1001),
                TxPayload::PaymentChannelCreate {
                    destination: AccountId(1002),
                    drops: 100 * 1_000_000,
                },
                FEE,
            ),
            t0,
        )
        .unwrap();
        let before = l.balance_drops(AccountId(1002));
        assert_eq!(
            l.submit(
                Transaction::new(
                    AccountId(1002),
                    TxPayload::PaymentChannelClaim {
                        channel_id: 1,
                        drops: 40 * 1_000_000
                    },
                    FEE,
                ),
                t0,
            ),
            Ok(TxResult::Success)
        );
        assert_eq!(
            l.balance_drops(AccountId(1002)),
            before + 40 * 1_000_000 - FEE
        );
        assert_eq!(l.channels_locked_drops(), 60 * 1_000_000);
        l.check_conservation().unwrap();
    }

    #[test]
    fn fee_burn_and_not_included() {
        let mut l = ledger();
        let now = l.config.genesis_time;
        // Unknown account can't submit.
        assert!(matches!(
            l.submit(
                Transaction::new(AccountId(424242), TxPayload::SetRegularKey, FEE),
                now
            ),
            Err(SubmitError::UnknownAccount(_))
        ));
        l.check_conservation().unwrap();
    }

    #[test]
    fn ledgers_close_in_sequence() {
        let mut l = ledger();
        let b1 = l.close_ledger().index;
        let b2 = l.close_ledger().index;
        assert_eq!(b1, 50_400_001);
        assert_eq!(b2, 50_400_002);
        assert_eq!(l.head_index(), b2);
        assert_eq!(l.ledger_by_index(b1).unwrap().transactions.len(), 5);
        assert_eq!(l.ledger_by_index(b2).unwrap().transactions.len(), 0);
        assert!(l.ledger_by_index(1).is_none());
    }
}
