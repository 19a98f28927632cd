//! EOS account registry: system vs regular accounts, permissions, and the
//! premium-name (`bidname`) auction.

use crate::name::Name;
use crate::types::AssetRaw;
use std::collections::HashMap;
use txstat_types::time::ChainTime;

/// Account classification (§2.3.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountKind {
    /// `eosio`, `eosio.msig`, `eosio.wrap` — can bypass authorization.
    SystemPrivileged,
    /// Other `eosio.*` built-ins (eosio.token, eosio.ram, …).
    System,
    Regular,
}

#[derive(Debug, Clone)]
pub struct Account {
    pub name: Name,
    pub kind: AccountKind,
    pub creator: Name,
    pub created_at: ChainTime,
    /// Named permissions (owner/active plus custom ones from `updateauth`).
    pub permissions: Vec<Name>,
    /// `linkauth` entries: (contract, action) → permission.
    pub links: Vec<(Name, Name, Name)>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccountError {
    AlreadyExists(Name),
    UnknownAccount(Name),
    UnknownCreator(Name),
    BidTooLow { newname: Name, high: AssetRaw },
    NotTopLevel(Name),
}

impl std::fmt::Display for AccountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccountError::AlreadyExists(n) => write!(f, "account {n} exists"),
            AccountError::UnknownAccount(n) => write!(f, "unknown account {n}"),
            AccountError::UnknownCreator(n) => write!(f, "unknown creator {n}"),
            AccountError::BidTooLow { newname, high } => {
                write!(f, "bid on {newname} below current high {high}")
            }
            AccountError::NotTopLevel(n) => write!(f, "{n} is not biddable (contains a dot)"),
        }
    }
}

impl std::error::Error for AccountError {}

/// State of one premium-name auction.
#[derive(Debug, Clone)]
pub(crate) struct NameBid {
    pub high_bidder: Name,
    pub high_bid: AssetRaw,
    pub last_bid_time: ChainTime,
}

#[derive(Debug, Clone, Default)]
pub struct AccountRegistry {
    accounts: HashMap<Name, Account>,
    bids: HashMap<Name, NameBid>,
}

impl AccountRegistry {
    /// Fresh registry pre-populated with the built-in system accounts that
    /// exist from chain instantiation (§2.3.1).
    pub(crate) fn with_system_accounts(genesis: ChainTime) -> Self {
        let mut r = AccountRegistry::default();
        let privileged = ["eosio", "eosio.msig", "eosio.wrap"];
        let system = [
            "eosio.token",
            "eosio.ram",
            "eosio.ramfee",
            "eosio.stake",
            "eosio.bpay",
            "eosio.vpay",
            "eosio.names",
            "eosio.saving",
            "eosio.rex",
            "eosio.null",
            "eosio.prods",
        ];
        for n in privileged {
            r.insert_raw(Name::new(n), AccountKind::SystemPrivileged, Name::new("eosio"), genesis);
        }
        for n in system {
            r.insert_raw(Name::new(n), AccountKind::System, Name::new("eosio"), genesis);
        }
        r
    }

    fn insert_raw(&mut self, name: Name, kind: AccountKind, creator: Name, at: ChainTime) {
        self.accounts.insert(
            name,
            Account {
                name,
                kind,
                creator,
                created_at: at,
                permissions: vec![Name::new("owner"), Name::new("active")],
                links: Vec::new(),
            },
        );
    }

    /// `newaccount`: create a regular account.
    pub fn create(&mut self, creator: Name, name: Name, at: ChainTime) -> Result<(), AccountError> {
        if self.accounts.contains_key(&name) {
            return Err(AccountError::AlreadyExists(name));
        }
        if !self.accounts.contains_key(&creator) {
            return Err(AccountError::UnknownCreator(creator));
        }
        self.insert_raw(name, AccountKind::Regular, creator, at);
        Ok(())
    }

    pub fn exists(&self, name: Name) -> bool {
        self.accounts.contains_key(&name)
    }

    pub fn get(&self, name: Name) -> Option<&Account> {
        self.accounts.get(&name)
    }

    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    #[cfg(test)]
    fn is_privileged(&self, name: Name) -> bool {
        matches!(
            self.accounts.get(&name).map(|a| a.kind),
            Some(AccountKind::SystemPrivileged)
        )
    }

    /// `updateauth`: add (or refresh) a named permission.
    #[cfg(test)]
    fn update_auth(&mut self, account: Name, permission: Name) -> Result<(), AccountError> {
        let a = self
            .accounts
            .get_mut(&account)
            .ok_or(AccountError::UnknownAccount(account))?;
        if !a.permissions.contains(&permission) {
            a.permissions.push(permission);
        }
        Ok(())
    }

    /// `linkauth`: route (contract, action) to a permission.
    #[cfg(test)]
    fn link_auth(
        &mut self,
        account: Name,
        contract: Name,
        action: Name,
        permission: Name,
    ) -> Result<(), AccountError> {
        let a = self
            .accounts
            .get_mut(&account)
            .ok_or(AccountError::UnknownAccount(account))?;
        a.links.retain(|(c, act, _)| !(*c == contract && *act == action));
        a.links.push((contract, action, permission));
        Ok(())
    }

    /// `bidname`: bid on a premium (≤12-char, dot-free) name. A new bid must
    /// exceed the previous high by ≥10%.
    pub(crate) fn bid_name(
        &mut self,
        bidder: Name,
        newname: Name,
        bid: AssetRaw,
        at: ChainTime,
    ) -> Result<(), AccountError> {
        if newname.to_string_repr().contains('.') {
            return Err(AccountError::NotTopLevel(newname));
        }
        if self.accounts.contains_key(&newname) {
            return Err(AccountError::AlreadyExists(newname));
        }
        match self.bids.get_mut(&newname) {
            Some(b) => {
                if bid < b.high_bid + b.high_bid / 10 {
                    return Err(AccountError::BidTooLow { newname, high: b.high_bid });
                }
                b.high_bidder = bidder;
                b.high_bid = bid;
                b.last_bid_time = at;
            }
            None => {
                self.bids.insert(
                    newname,
                    NameBid { high_bidder: bidder, high_bid: bid, last_bid_time: at },
                );
            }
        }
        Ok(())
    }

    #[cfg(test)]
    fn bid_for(&self, name: Name) -> Option<&NameBid> {
        self.bids.get(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> ChainTime {
        ChainTime::from_ymd(2019, 10, 1)
    }

    #[test]
    fn system_accounts_preloaded() {
        let r = AccountRegistry::with_system_accounts(t0());
        assert!(r.exists(Name::new("eosio")));
        assert!(r.exists(Name::new("eosio.token")));
        assert!(r.is_privileged(Name::new("eosio.wrap")));
        assert!(!r.is_privileged(Name::new("eosio.token")));
        assert_eq!(r.len(), 14);
    }

    #[test]
    fn create_accounts() {
        let mut r = AccountRegistry::with_system_accounts(t0());
        r.create(Name::new("eosio"), Name::new("alice"), t0()).unwrap();
        assert!(r.exists(Name::new("alice")));
        assert_eq!(
            r.create(Name::new("eosio"), Name::new("alice"), t0()),
            Err(AccountError::AlreadyExists(Name::new("alice")))
        );
        assert_eq!(
            r.create(Name::new("ghost"), Name::new("bob"), t0()),
            Err(AccountError::UnknownCreator(Name::new("ghost")))
        );
        let a = r.get(Name::new("alice")).unwrap();
        assert_eq!(a.creator, Name::new("eosio"));
        assert_eq!(a.kind, AccountKind::Regular);
    }

    #[test]
    fn auth_management() {
        let mut r = AccountRegistry::with_system_accounts(t0());
        r.create(Name::new("eosio"), Name::new("alice"), t0()).unwrap();
        r.update_auth(Name::new("alice"), Name::new("trading")).unwrap();
        r.link_auth(
            Name::new("alice"),
            Name::new("whaleextrust"),
            Name::new("verifytrade2"),
            Name::new("trading"),
        )
        .unwrap();
        let a = r.get(Name::new("alice")).unwrap();
        assert!(a.permissions.contains(&Name::new("trading")));
        assert_eq!(a.links.len(), 1);
        // Re-linking the same pair replaces, not duplicates.
        r.link_auth(
            Name::new("alice"),
            Name::new("whaleextrust"),
            Name::new("verifytrade2"),
            Name::new("active"),
        )
        .unwrap();
        assert_eq!(r.get(Name::new("alice")).unwrap().links.len(), 1);
    }

    #[test]
    fn name_auction_rules() {
        let mut r = AccountRegistry::with_system_accounts(t0());
        r.create(Name::new("eosio"), Name::new("alice"), t0()).unwrap();
        r.bid_name(Name::new("alice"), Name::new("bank"), 100_0000, t0()).unwrap();
        // Must outbid by 10%.
        assert!(matches!(
            r.bid_name(Name::new("alice"), Name::new("bank"), 105_0000, t0()),
            Err(AccountError::BidTooLow { .. })
        ));
        r.bid_name(Name::new("alice"), Name::new("bank"), 110_0000, t0()).unwrap();
        assert_eq!(r.bid_for(Name::new("bank")).unwrap().high_bid, 110_0000);
        // Dotted names aren't biddable.
        assert!(matches!(
            r.bid_name(Name::new("alice"), Name::new("a.b"), 1, t0()),
            Err(AccountError::NotTopLevel(_))
        ));
    }
}
