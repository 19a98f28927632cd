//! XRP account clustering (§3.3): group addresses into entities by
//! registered username, falling back to the parent account's username with
//! a "-- descendant" suffix — exactly the paper's Figure 12 methodology
//! ("For accounts with no registered username, we use their parent's
//! username, if available, plus the suffix 'descendant'").

use std::collections::HashMap;
use std::sync::OnceLock;
use txstat_types::intern::FxHashMap;
use txstat_xrp::AccountId;

/// Account metadata index (built from the XRP-Scan-equivalent responses).
#[derive(Debug, Clone, Default)]
pub struct ClusterInfo {
    usernames: FxHashMap<AccountId, String>,
    parents: FxHashMap<AccountId, AccountId>,
    /// The entity labels, resolved on first use ([`Self::entity_names`]);
    /// `insert` forgets them.
    entities: OnceLock<Entities>,
}

/// Every entity label of a cluster, each stored once, indexed by the
/// username it is made of: the registered account's own label, and its
/// descendants'.
#[derive(Debug, Clone, Default)]
struct Entities {
    names: Vec<String>,
    by_root: FxHashMap<(AccountId, bool), usize>,
}

impl ClusterInfo {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(
        &mut self,
        account: AccountId,
        username: Option<String>,
        parent: Option<AccountId>,
    ) {
        if let Some(u) = username {
            self.usernames.insert(account, u);
        }
        if let Some(p) = parent {
            self.parents.insert(account, p);
        }
        self.entities.take();
    }

    pub fn username(&self, account: AccountId) -> Option<&str> {
        self.usernames.get(&account).map(String::as_str)
    }

    pub fn parent(&self, account: AccountId) -> Option<AccountId> {
        self.parents.get(&account).copied()
    }

    /// Number of registered children of a parent (the §4.3 "activated
    /// 5,020 new accounts" count).
    pub fn children_of(&self, parent: AccountId) -> usize {
        self.parents.values().filter(|p| **p == parent).count()
    }

    /// The parent with the most registered children.
    #[cfg(test)]
    fn busiest_parent(&self) -> Option<(AccountId, usize)> {
        let mut counts: HashMap<AccountId, usize> = HashMap::new();
        for p in self.parents.values() {
            *counts.entry(*p).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|(a, c)| (*c, std::cmp::Reverse(a.0)))
    }

    /// Entity label: username; else nearest ancestor's username plus
    /// " -- descendant" (walking up to 4 activation hops); else `None`.
    pub fn entity(&self, account: AccountId) -> Option<String> {
        self.labelled_by(account).map(|root| self.label(root))
    }

    /// The account whose username labels `account`'s entity, and whether
    /// it is an ancestor ([`Self::entity`] without the label).
    fn labelled_by(&self, account: AccountId) -> Option<(AccountId, bool)> {
        if self.usernames.contains_key(&account) {
            return Some((account, false));
        }
        let mut cur = account;
        for _ in 0..4 {
            cur = self.parent(cur)?;
            if self.usernames.contains_key(&cur) {
                return Some((cur, true));
            }
        }
        None
    }

    fn label(&self, (root, descendant): (AccountId, bool)) -> String {
        let username = &self.usernames[&root];
        if descendant {
            format!("{username} -- descendant")
        } else {
            username.clone()
        }
    }

    /// Entity label with a fallback bucket for unknown accounts.
    pub fn entity_or(&self, account: AccountId, fallback: &str) -> String {
        self.entity(account).unwrap_or_else(|| fallback.to_owned())
    }

    /// Every distinct entity label, built once per cluster: two usernames
    /// whose labels spell the same string are one entity, as they are to
    /// [`Self::entity`]. [`Self::entity_index`] indexes it.
    pub(crate) fn entity_names(&self) -> &[String] {
        &self.entities().names
    }

    /// The index of `account`'s entity label in [`Self::entity_names`]:
    /// [`Self::entity`] with no label built.
    pub(crate) fn entity_index(&self, account: AccountId) -> Option<usize> {
        let root = self.labelled_by(account)?;
        Some(self.entities().by_root[&root])
    }

    fn entities(&self) -> &Entities {
        self.entities.get_or_init(|| {
            let mut by_label: HashMap<String, usize> = HashMap::new();
            let mut entities = Entities::default();
            for &account in self.usernames.keys() {
                for root in [(account, false), (account, true)] {
                    let next = entities.names.len();
                    let id = *by_label.entry(self.label(root)).or_insert_with_key(|name| {
                        entities.names.push(name.clone());
                        next
                    });
                    entities.by_root.insert(root, id);
                }
            }
            entities
        })
    }

    /// Every registered `(account, username)` pair, sorted by account id —
    /// the deterministic export order persistent stores serialize in.
    pub fn usernames_sorted(&self) -> Vec<(AccountId, &str)> {
        let mut out: Vec<_> = self
            .usernames
            .iter()
            .map(|(a, u)| (*a, u.as_str()))
            .collect();
        out.sort_unstable_by_key(|(a, _)| a.0);
        out
    }

    /// Every recorded `(account, parent)` activation edge, sorted by
    /// account id (see [`ClusterInfo::usernames_sorted`]).
    pub fn parents_sorted(&self) -> Vec<(AccountId, AccountId)> {
        let mut out: Vec<_> = self.parents.iter().map(|(a, p)| (*a, *p)).collect();
        out.sort_unstable_by_key(|(a, _)| a.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_resolution() {
        let mut c = ClusterInfo::new();
        c.insert(AccountId(1), Some("Binance".into()), None);
        c.insert(AccountId(2), None, Some(AccountId(1)));
        c.insert(AccountId(3), None, Some(AccountId(2)));
        c.insert(AccountId(4), None, None);
        assert_eq!(c.entity(AccountId(1)).as_deref(), Some("Binance"));
        assert_eq!(
            c.entity(AccountId(2)).as_deref(),
            Some("Binance -- descendant")
        );
        // Grandchild also resolves through the ancestor walk.
        assert_eq!(
            c.entity(AccountId(3)).as_deref(),
            Some("Binance -- descendant")
        );
        assert_eq!(c.entity(AccountId(4)), None);
        assert_eq!(c.entity_or(AccountId(4), "Others"), "Others");
    }

    #[test]
    fn children_counting() {
        let mut c = ClusterInfo::new();
        for i in 10..15 {
            c.insert(AccountId(i), None, Some(AccountId(1)));
        }
        c.insert(AccountId(20), None, Some(AccountId(2)));
        assert_eq!(c.children_of(AccountId(1)), 5);
        assert_eq!(c.children_of(AccountId(2)), 1);
        assert_eq!(c.busiest_parent(), Some((AccountId(1), 5)));
    }

    #[test]
    fn cycle_safe() {
        let mut c = ClusterInfo::new();
        // Malformed data: a parent cycle must not hang the walk.
        c.insert(AccountId(1), None, Some(AccountId(2)));
        c.insert(AccountId(2), None, Some(AccountId(1)));
        assert_eq!(c.entity(AccountId(1)), None);
    }
}
