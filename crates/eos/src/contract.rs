//! Contract metadata: the dApp landscape the paper's EOS analysis labels.
//!
//! §3.2: *"we manually label the top 100 contracts by grouping them into
//! different categories"*. The simulator carries a ground-truth category per
//! deployed contract; the analytics side builds its own (possibly partial)
//! label map, mimicking the manual-labeling methodology.

use crate::name::Name;
use crate::token::TokenId;
use std::collections::HashMap;

/// The paper's Figure 3a application categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppCategory {
    Exchange,
    Betting,
    Games,
    Pornography,
    Tokens,
    Others,
}

impl AppCategory {
    pub const ALL: [AppCategory; 6] = [
        AppCategory::Exchange,
        AppCategory::Betting,
        AppCategory::Games,
        AppCategory::Pornography,
        AppCategory::Tokens,
        AppCategory::Others,
    ];

    pub const fn label(self) -> &'static str {
        match self {
            AppCategory::Exchange => "Exchange",
            AppCategory::Betting => "Betting",
            AppCategory::Games => "Games",
            AppCategory::Pornography => "Pornography",
            AppCategory::Tokens => "Tokens",
            AppCategory::Others => "Others",
        }
    }
}

impl std::fmt::Display for AppCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Ground-truth metadata for one deployed contract.
#[derive(Debug, Clone)]
pub struct ContractMeta {
    pub account: Name,
    pub category: AppCategory,
    /// Token hosted by this contract, if it is a token contract.
    pub token: Option<TokenId>,
    pub description: &'static str,
}

/// Airdrop behaviour attached to a contract account (the EIDOS mechanism,
/// §4.1): on receiving EOS it refunds the full amount and pays out a fixed
/// fraction of its own token holdings.
#[derive(Debug, Clone, Copy)]
pub struct AirdropSpec {
    pub token: TokenId,
    /// Payout as parts-per-million of current holdings (EIDOS: 0.01% = 100 ppm).
    pub payout_ppm: u64,
}

#[derive(Debug, Clone, Default)]
pub struct ContractRegistry {
    metas: HashMap<Name, ContractMeta>,
    airdrops: HashMap<Name, AirdropSpec>,
}

impl ContractRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn deploy(&mut self, meta: ContractMeta) {
        self.metas.insert(meta.account, meta);
    }

    pub fn attach_airdrop(&mut self, account: Name, spec: AirdropSpec) {
        self.airdrops.insert(account, spec);
    }

    pub fn meta(&self, account: Name) -> Option<&ContractMeta> {
        self.metas.get(&account)
    }

    pub fn airdrop(&self, account: Name) -> Option<&AirdropSpec> {
        self.airdrops.get(&account)
    }

    #[cfg(test)]
    fn category_of(&self, account: Name) -> Option<AppCategory> {
        self.metas.get(&account).map(|m| m.category)
    }

    pub fn contracts(&self) -> impl Iterator<Item = &ContractMeta> {
        self.metas.values()
    }

    pub fn len(&self) -> usize {
        self.metas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip() {
        let mut r = ContractRegistry::new();
        r.deploy(ContractMeta {
            account: Name::new("betdicetasks"),
            category: AppCategory::Betting,
            token: None,
            description: "betting game bookkeeping",
        });
        r.deploy(ContractMeta {
            account: Name::new("eidosonecoin"),
            category: AppCategory::Tokens,
            token: Some(TokenId::new(Name::new("eidosonecoin"), "EIDOS")),
            description: "EIDOS airdrop token",
        });
        r.attach_airdrop(
            Name::new("eidosonecoin"),
            AirdropSpec {
                token: TokenId::new(Name::new("eidosonecoin"), "EIDOS"),
                payout_ppm: 100,
            },
        );
        assert_eq!(
            r.category_of(Name::new("betdicetasks")),
            Some(AppCategory::Betting)
        );
        assert_eq!(
            r.airdrop(Name::new("eidosonecoin")).unwrap().payout_ppm,
            100
        );
        assert!(r.airdrop(Name::new("betdicetasks")).is_none());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn category_labels_match_paper() {
        let labels: Vec<&str> = AppCategory::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Exchange",
                "Betting",
                "Games",
                "Pornography",
                "Tokens",
                "Others"
            ]
        );
    }
}
