//! eosio.token-style multi-token ledger.
//!
//! Tokens on EOS are identified by `(contract, symbol)`. The system token
//! (EOS) lives on `eosio.token`; app tokens (EIDOS, DICE, …) live on their
//! own contracts but share the standardized transfer interface — which is
//! exactly why the paper can classify token transfers uniformly (§2.3.1).

use crate::name::Name;
use crate::types::AssetRaw;
use std::collections::HashMap;
use txstat_types::FxHashMap;
use txstat_types::amount::SymCode;

/// Identity of a token: the contract it lives on plus its symbol code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId {
    pub contract: Name,
    pub symbol: SymCode,
}

impl TokenId {
    pub fn new(contract: Name, symbol: &str) -> Self {
        TokenId { contract, symbol: SymCode::new(symbol) }
    }

    /// The system token: EOS on eosio.token.
    pub fn eos() -> Self {
        TokenId::new(Name::new("eosio.token"), "EOS")
    }
}

/// Supply bookkeeping for one token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenStats {
    pub issuer: Name,
    pub supply: AssetRaw,
    pub max_supply: AssetRaw,
}

/// Errors from token operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenError {
    UnknownToken(TokenId),
    AlreadyCreated(TokenId),
    NonPositiveAmount,
    Overdrawn { account: Name, have: AssetRaw, need: AssetRaw },
    ExceedsMaxSupply,
    SelfTransfer,
}

impl std::fmt::Display for TokenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenError::UnknownToken(id) => write!(f, "unknown token {}@{}", id.symbol, id.contract),
            TokenError::AlreadyCreated(id) => write!(f, "token {}@{} exists", id.symbol, id.contract),
            TokenError::NonPositiveAmount => write!(f, "amount must be positive"),
            TokenError::Overdrawn { account, have, need } => {
                write!(f, "{account} overdrawn: has {have}, needs {need}")
            }
            TokenError::ExceedsMaxSupply => write!(f, "issuance exceeds max supply"),
            TokenError::SelfTransfer => write!(f, "cannot transfer to self"),
        }
    }
}

impl std::error::Error for TokenError {}

/// The multi-token ledger.
#[derive(Debug, Clone, Default)]
pub struct TokenLedger {
    // Fx-hashed: every transfer probes these four times, and the keys are
    // the simulation's own names, not outside input.
    stats: FxHashMap<TokenId, TokenStats>,
    balances: FxHashMap<(Name, TokenId), AssetRaw>,
}

impl TokenLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// `create`: register a token with a max supply.
    pub fn create(&mut self, id: TokenId, issuer: Name, max_supply: AssetRaw) -> Result<(), TokenError> {
        if max_supply <= 0 {
            return Err(TokenError::NonPositiveAmount);
        }
        if self.stats.contains_key(&id) {
            return Err(TokenError::AlreadyCreated(id));
        }
        self.stats.insert(id, TokenStats { issuer, supply: 0, max_supply });
        Ok(())
    }

    /// `issue`: mint `amount` to the issuer's balance.
    pub fn issue(&mut self, id: TokenId, amount: AssetRaw) -> Result<(), TokenError> {
        if amount <= 0 {
            return Err(TokenError::NonPositiveAmount);
        }
        let stats = self.stats.get_mut(&id).ok_or(TokenError::UnknownToken(id))?;
        if stats.supply + amount > stats.max_supply {
            return Err(TokenError::ExceedsMaxSupply);
        }
        stats.supply += amount;
        let issuer = stats.issuer;
        *self.balances.entry((issuer, id)).or_insert(0) += amount;
        Ok(())
    }

    /// `transfer`: move `amount` from `from` to `to`.
    pub fn transfer(
        &mut self,
        id: TokenId,
        from: Name,
        to: Name,
        amount: AssetRaw,
    ) -> Result<(), TokenError> {
        if amount <= 0 {
            return Err(TokenError::NonPositiveAmount);
        }
        if from == to {
            return Err(TokenError::SelfTransfer);
        }
        if !self.stats.contains_key(&id) {
            return Err(TokenError::UnknownToken(id));
        }
        let have = self.balance(from, id);
        if have < amount {
            return Err(TokenError::Overdrawn { account: from, have, need: amount });
        }
        *self.balances.entry((from, id)).or_insert(0) -= amount;
        *self.balances.entry((to, id)).or_insert(0) += amount;
        Ok(())
    }

    pub fn balance(&self, account: Name, id: TokenId) -> AssetRaw {
        self.balances.get(&(account, id)).copied().unwrap_or(0)
    }

    pub fn stats(&self, id: TokenId) -> Option<&TokenStats> {
        self.stats.get(&id)
    }

    /// Invariant check: for every token, Σ balances == supply, and no
    /// balance is negative. Used by tests and debug assertions.
    pub fn check_conservation(&self) -> Result<(), String> {
        let mut sums: HashMap<TokenId, AssetRaw> = HashMap::new();
        for ((acct, id), bal) in &self.balances {
            if *bal < 0 {
                return Err(format!("negative balance {bal} for {acct} on {id:?}"));
            }
            *sums.entry(*id).or_insert(0) += bal;
        }
        for (id, stats) in &self.stats {
            let sum = sums.get(id).copied().unwrap_or(0);
            if sum != stats.supply {
                return Err(format!(
                    "token {:?}: balances sum {} != supply {}",
                    id, sum, stats.supply
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup() -> (TokenLedger, TokenId) {
        let mut l = TokenLedger::new();
        let id = TokenId::eos();
        l.create(id, Name::new("eosio"), 10_000_0000).unwrap();
        l.issue(id, 1_000_0000).unwrap();
        l.transfer(id, Name::new("eosio"), Name::new("alice"), 500_0000).unwrap();
        (l, id)
    }

    #[test]
    fn create_issue_transfer() {
        let (l, id) = setup();
        assert_eq!(l.balance(Name::new("alice"), id), 500_0000);
        assert_eq!(l.balance(Name::new("eosio"), id), 500_0000);
        l.check_conservation().unwrap();
    }

    #[test]
    fn rejects_overdraw() {
        let (mut l, id) = setup();
        let err = l
            .transfer(id, Name::new("alice"), Name::new("bob"), 600_0000)
            .unwrap_err();
        assert!(matches!(err, TokenError::Overdrawn { .. }));
        l.check_conservation().unwrap();
    }

    #[test]
    fn rejects_bad_amounts_and_self() {
        let (mut l, id) = setup();
        assert_eq!(
            l.transfer(id, Name::new("alice"), Name::new("alice"), 1),
            Err(TokenError::SelfTransfer)
        );
        assert_eq!(
            l.transfer(id, Name::new("alice"), Name::new("bob"), 0),
            Err(TokenError::NonPositiveAmount)
        );
        assert_eq!(
            l.transfer(id, Name::new("alice"), Name::new("bob"), -5),
            Err(TokenError::NonPositiveAmount)
        );
    }

    #[test]
    fn max_supply_enforced() {
        let (mut l, id) = setup();
        assert_eq!(l.issue(id, 9_000_0001), Err(TokenError::ExceedsMaxSupply));
        l.issue(id, 9_000_0000).unwrap();
        assert_eq!(l.stats(id).unwrap().supply, 10_000_0000);
    }

    #[test]
    fn unknown_token() {
        let mut l = TokenLedger::new();
        let id = TokenId::new(Name::new("nobody"), "NOPE");
        assert_eq!(l.issue(id, 5), Err(TokenError::UnknownToken(id)));
        assert_eq!(
            l.transfer(id, Name::new("a"), Name::new("b"), 5),
            Err(TokenError::UnknownToken(id))
        );
    }

    #[test]
    fn multiple_tokens_are_independent() {
        let mut l = TokenLedger::new();
        let eos = TokenId::eos();
        let eidos = TokenId::new(Name::new("eidosonecoin"), "EIDOS");
        l.create(eos, Name::new("eosio"), 1_000).unwrap();
        l.create(eidos, Name::new("eidosonecoin"), 9_999).unwrap();
        l.issue(eos, 100).unwrap();
        l.issue(eidos, 999).unwrap();
        assert_eq!(l.balance(Name::new("eosio"), eos), 100);
        assert_eq!(l.balance(Name::new("eosio"), eidos), 0);
        assert_eq!(l.balance(Name::new("eidosonecoin"), eidos), 999);
        l.check_conservation().unwrap();
    }

    proptest! {
        /// Random valid transfer sequences preserve conservation and
        /// non-negativity.
        #[test]
        fn prop_conservation(ops in proptest::collection::vec((0usize..4, 0usize..4, 1i64..1000), 0..60)) {
            let accounts = [Name::new("a"), Name::new("b"), Name::new("c"), Name::new("d")];
            let mut l = TokenLedger::new();
            let id = TokenId::eos();
            l.create(id, accounts[0], 1_000_000).unwrap();
            l.issue(id, 500_000).unwrap();
            for (f, t, amt) in ops {
                // Ignore expected business errors; ledger must stay consistent.
                let _ = l.transfer(id, accounts[f], accounts[t], amt);
                prop_assert!(l.check_conservation().is_ok());
            }
        }
    }
}
