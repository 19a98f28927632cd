//! Trust lines — the IOU accounting fabric of the XRP ledger.
//!
//! §2.4: paying 10 BTC on the ledger means sending an IOU; the issuer owes
//! the holder. A trust line records how much of an issued currency a holder
//! is willing to hold (`limit`, set by `TrustSet`) and how much it currently
//! holds (`balance`). The invariant the paper's value analysis relies on:
//! an issuer's total obligation in a currency equals the sum of all holder
//! balances.

use crate::address::AccountId;
use crate::amount::IssuedCurrency;
use std::collections::HashMap;

/// One holder-side trust line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Line {
    /// Maximum the holder is willing to hold (raw IOU units).
    pub limit: i128,
    /// Current holding (raw IOU units, ≥ 0 in this model).
    pub balance: i128,
}

/// Trust-line errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TlError {
    /// Receiver has no trust line for the currency (tecNO_LINE / PATH_DRY).
    NoLine {
        holder: AccountId,
        currency: IssuedCurrency,
    },
    /// Credit would exceed the receiver's limit.
    LimitExceeded {
        holder: AccountId,
        currency: IssuedCurrency,
    },
    /// Holder lacks the IOU balance to send.
    InsufficientFunds {
        holder: AccountId,
        currency: IssuedCurrency,
        have: i128,
        need: i128,
    },
    NonPositiveAmount,
    /// The issuer cannot hold a line in its own currency.
    IssuerSelfLine(AccountId),
}

impl std::fmt::Display for TlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlError::NoLine { holder, currency } => {
                write!(f, "{holder} has no line for {currency}")
            }
            TlError::LimitExceeded { holder, currency } => {
                write!(f, "credit exceeds {holder}'s limit for {currency}")
            }
            TlError::InsufficientFunds {
                holder,
                currency,
                have,
                need,
            } => {
                write!(f, "{holder} holds {have} of {currency}, needs {need}")
            }
            TlError::NonPositiveAmount => write!(f, "amount must be positive"),
            TlError::IssuerSelfLine(a) => write!(f, "{a} cannot trust its own issuance"),
        }
    }
}

impl std::error::Error for TlError {}

/// All trust lines plus per-currency issuer obligations.
#[derive(Debug, Clone, Default)]
pub(crate) struct TrustLines {
    lines: HashMap<(AccountId, IssuedCurrency), Line>,
    obligations: HashMap<IssuedCurrency, i128>,
}

impl TrustLines {
    pub fn new() -> Self {
        Self::default()
    }

    /// `TrustSet`: create or update a line's limit. Lowering a limit below
    /// the current balance is allowed (as on mainnet); it only blocks new
    /// limit-respecting credits.
    pub(crate) fn set_limit(
        &mut self,
        holder: AccountId,
        currency: IssuedCurrency,
        limit: i128,
    ) -> Result<(), TlError> {
        if holder == currency.issuer {
            return Err(TlError::IssuerSelfLine(holder));
        }
        if limit < 0 {
            return Err(TlError::NonPositiveAmount);
        }
        self.lines
            .entry((holder, currency))
            .and_modify(|l| l.limit = limit)
            .or_insert(Line { limit, balance: 0 });
        Ok(())
    }

    pub(crate) fn has_line(&self, holder: AccountId, currency: IssuedCurrency) -> bool {
        self.lines.contains_key(&(holder, currency))
    }

    pub fn balance(&self, holder: AccountId, currency: IssuedCurrency) -> i128 {
        self.lines
            .get(&(holder, currency))
            .map(|l| l.balance)
            .unwrap_or(0)
    }

    /// Issuer's total outstanding obligation in a currency.
    #[cfg(test)]
    fn obligations(&self, currency: IssuedCurrency) -> i128 {
        self.obligations.get(&currency).copied().unwrap_or(0)
    }

    /// Credit a holder. `respect_limit` distinguishes payments (limited)
    /// from DEX purchases (implicit line creation, no limit enforcement —
    /// acquiring an asset on the DEX implies consent).
    pub fn credit(
        &mut self,
        holder: AccountId,
        currency: IssuedCurrency,
        amount: i128,
        respect_limit: bool,
    ) -> Result<(), TlError> {
        if amount <= 0 {
            return Err(TlError::NonPositiveAmount);
        }
        if holder == currency.issuer {
            return Err(TlError::IssuerSelfLine(holder));
        }
        match self.lines.get_mut(&(holder, currency)) {
            Some(line) => {
                if respect_limit && line.balance + amount > line.limit {
                    return Err(TlError::LimitExceeded { holder, currency });
                }
                line.balance += amount;
            }
            None => {
                if respect_limit {
                    return Err(TlError::NoLine { holder, currency });
                }
                // Implicit line from a DEX acquisition.
                self.lines.insert(
                    (holder, currency),
                    Line {
                        limit: 0,
                        balance: amount,
                    },
                );
            }
        }
        *self.obligations.entry(currency).or_insert(0) += amount;
        Ok(())
    }

    /// Debit a holder.
    pub(crate) fn debit(
        &mut self,
        holder: AccountId,
        currency: IssuedCurrency,
        amount: i128,
    ) -> Result<(), TlError> {
        if amount <= 0 {
            return Err(TlError::NonPositiveAmount);
        }
        let line = self
            .lines
            .get_mut(&(holder, currency))
            .ok_or(TlError::NoLine { holder, currency })?;
        if line.balance < amount {
            return Err(TlError::InsufficientFunds {
                holder,
                currency,
                have: line.balance,
                need: amount,
            });
        }
        line.balance -= amount;
        *self.obligations.entry(currency).or_insert(0) -= amount;
        Ok(())
    }

    /// Move IOU value `from → to`. Issuance (from == issuer) mints
    /// obligation; redemption (to == issuer) burns it; holder→holder moves it.
    pub fn transfer(
        &mut self,
        from: AccountId,
        to: AccountId,
        currency: IssuedCurrency,
        amount: i128,
        respect_limit: bool,
    ) -> Result<(), TlError> {
        if amount <= 0 {
            return Err(TlError::NonPositiveAmount);
        }
        if from == currency.issuer {
            return self.credit(to, currency, amount, respect_limit);
        }
        if to == currency.issuer {
            return self.debit(from, currency, amount);
        }
        // Holder → holder: verify debit side first, then credit; roll back
        // on credit failure to stay atomic.
        self.debit(from, currency, amount)?;
        if let Err(e) = self.credit(to, currency, amount, respect_limit) {
            self.credit(from, currency, amount, false)
                .expect("rollback credit");
            return Err(e);
        }
        Ok(())
    }

    /// Holders (with non-zero balance) of a currency.
    #[cfg(test)]
    fn holders(&self, currency: IssuedCurrency) -> Vec<(AccountId, i128)> {
        let mut v: Vec<(AccountId, i128)> = self
            .lines
            .iter()
            .filter(|((_, c), l)| *c == currency && l.balance != 0)
            .map(|((h, _), l)| (*h, l.balance))
            .collect();
        v.sort();
        v
    }

    /// Invariant: per currency, Σ holder balances == recorded obligations,
    /// and no balance is negative.
    pub fn check_conservation(&self) -> Result<(), String> {
        let mut sums: HashMap<IssuedCurrency, i128> = HashMap::new();
        for ((h, c), l) in &self.lines {
            if l.balance < 0 {
                return Err(format!("negative balance for {h} in {c}"));
            }
            *sums.entry(*c).or_insert(0) += l.balance;
        }
        for (c, ob) in &self.obligations {
            if sums.get(c).copied().unwrap_or(0) != *ob {
                return Err(format!("obligation mismatch for {c}: {ob}"));
            }
        }
        for (c, s) in &sums {
            if self.obligations.get(c).copied().unwrap_or(0) != *s {
                return Err(format!("untracked obligation for {c}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn usd() -> IssuedCurrency {
        IssuedCurrency::new("USD", AccountId(1))
    }

    #[test]
    fn issue_move_redeem() {
        let mut tl = TrustLines::new();
        let (alice, bob, issuer) = (AccountId(10), AccountId(11), AccountId(1));
        tl.set_limit(alice, usd(), 1_000_000_000).unwrap();
        tl.set_limit(bob, usd(), 1_000_000_000).unwrap();
        // Issuance.
        tl.transfer(issuer, alice, usd(), 500, true).unwrap();
        assert_eq!(tl.balance(alice, usd()), 500);
        assert_eq!(tl.obligations(usd()), 500);
        // Holder to holder.
        tl.transfer(alice, bob, usd(), 200, true).unwrap();
        assert_eq!(tl.balance(alice, usd()), 300);
        assert_eq!(tl.balance(bob, usd()), 200);
        assert_eq!(tl.obligations(usd()), 500);
        // Redemption burns obligation.
        tl.transfer(bob, issuer, usd(), 150, true).unwrap();
        assert_eq!(tl.obligations(usd()), 350);
        tl.check_conservation().unwrap();
    }

    #[test]
    fn no_line_blocks_payment_but_not_dex_credit() {
        let mut tl = TrustLines::new();
        let carol = AccountId(20);
        assert!(matches!(
            tl.credit(carol, usd(), 100, true),
            Err(TlError::NoLine { .. })
        ));
        // DEX-style credit creates an implicit line.
        tl.credit(carol, usd(), 100, false).unwrap();
        assert_eq!(tl.balance(carol, usd()), 100);
        tl.check_conservation().unwrap();
    }

    #[test]
    fn limit_enforced_for_payments() {
        let mut tl = TrustLines::new();
        let a = AccountId(10);
        tl.set_limit(a, usd(), 100).unwrap();
        tl.credit(a, usd(), 100, true).unwrap();
        assert!(matches!(
            tl.credit(a, usd(), 1, true),
            Err(TlError::LimitExceeded { .. })
        ));
        // DEX credit ignores the limit.
        tl.credit(a, usd(), 1, false).unwrap();
        assert_eq!(tl.balance(a, usd()), 101);
    }

    #[test]
    fn holder_transfer_is_atomic() {
        let mut tl = TrustLines::new();
        let (a, b) = (AccountId(10), AccountId(11));
        tl.set_limit(a, usd(), 1000).unwrap();
        tl.credit(a, usd(), 500, true).unwrap();
        // b has no line → transfer fails, a's balance restored.
        assert!(tl.transfer(a, b, usd(), 200, true).is_err());
        assert_eq!(tl.balance(a, usd()), 500);
        tl.check_conservation().unwrap();
    }

    #[test]
    fn issuer_cannot_self_line() {
        let mut tl = TrustLines::new();
        assert!(matches!(
            tl.set_limit(AccountId(1), usd(), 10),
            Err(TlError::IssuerSelfLine(_))
        ));
    }

    #[test]
    fn insufficient_funds_reported() {
        let mut tl = TrustLines::new();
        let a = AccountId(10);
        tl.set_limit(a, usd(), 1000).unwrap();
        tl.credit(a, usd(), 10, true).unwrap();
        assert!(matches!(
            tl.debit(a, usd(), 20),
            Err(TlError::InsufficientFunds {
                have: 10,
                need: 20,
                ..
            })
        ));
    }

    #[test]
    fn holders_enumeration() {
        let mut tl = TrustLines::new();
        for i in 10..13u64 {
            tl.set_limit(AccountId(i), usd(), 1000).unwrap();
            tl.credit(AccountId(i), usd(), i as i128, true).unwrap();
        }
        let h = tl.holders(usd());
        assert_eq!(h.len(), 3);
        assert_eq!(h[0], (AccountId(10), 10));
    }

    proptest! {
        /// Random op sequences preserve obligations == Σ balances.
        #[test]
        fn prop_conservation(ops in proptest::collection::vec((0u8..3, 0usize..4, 0usize..4, 1i128..500), 0..80)) {
            let accounts = [AccountId(1), AccountId(10), AccountId(11), AccountId(12)];
            let c = usd(); // issuer is accounts[0]
            let mut tl = TrustLines::new();
            for a in &accounts[1..] {
                tl.set_limit(*a, c, 10_000).unwrap();
            }
            for (kind, f, t, amt) in ops {
                let from = accounts[f];
                let to = accounts[t];
                match kind {
                    0 => { let _ = tl.transfer(from, to, c, amt, true); }
                    1 => { if to != c.issuer { let _ = tl.credit(to, c, amt, false); } }
                    _ => { if from != c.issuer { let _ = tl.debit(from, c, amt); } }
                }
                prop_assert!(tl.check_conservation().is_ok());
            }
        }
    }
}
