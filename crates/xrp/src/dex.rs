//! The on-ledger decentralized exchange: per-pair order books with
//! price-time priority, partial fills, and unfunded-offer cleanup.
//!
//! OfferCreate is the single most common transaction type in the paper's
//! dataset (50.4% of throughput, Figure 1), yet only ~0.2% of created
//! offers are ever filled (Figure 7). The book bookkeeping here tracks
//! exactly that statistic, and fills feed the exchange-rate oracle behind
//! Figures 11 and 12.
//!
//! Because almost nothing fills, almost everything rests: the books and the
//! offer table only grow over the window, so nothing on the per-transaction
//! path may scan them. Three structures, one owner each:
//!
//! - `offers`: every resting offer by id (ids are dense and never reused).
//! - `books`: per pair, the resting ids ordered by a binary search over the
//!   offers' *current* qualities at insertion time. A partial fill moves a
//!   maker's quality by a rounding step without moving its entry, so this
//!   is the order of record — not a sort key that could be recomputed.
//! - `by_owner`: per account, its resting ids in ascending (= creation)
//!   order, answering "oldest resting offer of this account" for the
//!   cancel-the-oldest bots without touching `offers`.
//!
//! Invariant: an id is in `offers` ⇔ it is in exactly one book ⇔ it is in
//! its owner's `by_owner` set; an owner with nothing resting has no entry.
//! Only `insert_sorted` and `remove_from_book` add or drop ids, and each
//! updates all three. [`Dex::check_books_sorted`] and [`Dex::check_index`]
//! audit the two derived structures against `offers`.

use crate::address::AccountId;
use crate::amount::{Amount, Asset};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use txstat_types::FxHashMap;

/// Identifier of a resting offer.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct OfferId(pub u64);

/// A resting offer: the owner gives `gets` and wants `pays`
/// (XRPL's TakerGets / TakerPays, seen from the taker's side).
#[derive(Debug, Clone)]
pub struct Offer {
    pub id: OfferId,
    pub owner: AccountId,
    /// Remaining amount the owner still gives.
    pub gets: Amount,
    /// Remaining amount the owner still wants.
    pub pays: Amount,
    /// Original `gets` at creation (for fill-ratio stats).
    pub original_gets: i128,
    /// Filled at least partially, as taker or maker: counted once in
    /// [`DexStats::offers_touched`].
    pub touched: bool,
}

impl Offer {
    /// Price demanded by the owner: pays per gets. Lower = better for taker.
    fn quality(&self) -> f64 {
        self.pays.value as f64 / self.gets.value as f64
    }

    /// Record a fill; true the first time.
    fn touch(&mut self) -> bool {
        !std::mem::replace(&mut self.touched, true)
    }
}

/// One executed fill: value moved between maker and taker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fill {
    pub maker_offer: OfferId,
    pub maker: AccountId,
    /// maker → taker (the maker's gets-asset).
    pub maker_gives: Amount,
    /// taker → maker (the maker's pays-asset).
    pub maker_receives: Amount,
}

/// DEX errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DexError {
    /// Creator holds none of the asset it promises (tecUNFUNDED_OFFER).
    Unfunded { owner: AccountId, asset: Asset },
    /// Zero/negative amounts or identical assets on both sides.
    BadOffer,
    UnknownOffer(OfferId),
    NotOwner { offer: OfferId, account: AccountId },
}

impl std::fmt::Display for DexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DexError::Unfunded { owner, asset } => write!(f, "tecUNFUNDED_OFFER: {owner} holds no {asset}"),
            DexError::BadOffer => write!(f, "malformed offer"),
            DexError::UnknownOffer(id) => write!(f, "unknown offer {id:?}"),
            DexError::NotOwner { offer, account } => write!(f, "{account} does not own {offer:?}"),
        }
    }
}

impl std::error::Error for DexError {}

/// Lifetime statistics for Figure 7's offer funnel.
#[derive(Debug, Clone, Copy, Default)]
pub struct DexStats {
    pub offers_created: u64,
    pub offers_cancelled: u64,
    /// Offers that were filled at least partially (either side of a cross).
    pub offers_touched: u64,
    pub fills_executed: u64,
}

/// The exchange: books keyed by (gets-asset, pays-asset).
#[derive(Debug, Default)]
pub struct Dex {
    /// Offer ids per book, kept sorted by (quality asc, id asc).
    books: HashMap<(Asset, Asset), Vec<OfferId>>,
    offers: FxHashMap<OfferId, Offer>,
    /// Resting offer ids per owner, oldest first.
    by_owner: FxHashMap<AccountId, BTreeSet<OfferId>>,
    next_id: u64,
    pub stats: DexStats,
}

/// Outcome of an OfferCreate.
#[derive(Debug)]
pub struct CreateOutcome {
    pub fills: Vec<Fill>,
    /// Id of the remainder placed in the book, if any.
    pub resting: Option<OfferId>,
    /// True if the taker's demand was fully satisfied by crossing.
    pub fully_crossed: bool,
}

impl Dex {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn offer(&self, id: OfferId) -> Option<&Offer> {
        self.offers.get(&id)
    }

    pub fn book_depth(&self, gets: Asset, pays: Asset) -> usize {
        self.books.get(&(gets, pays)).map(|b| b.len()).unwrap_or(0)
    }

    fn insert_sorted(&mut self, offer: Offer) {
        let key = (offer.gets.asset, offer.pays.asset);
        let q = offer.quality();
        let id = offer.id;
        let book = self.books.entry(key).or_default();
        let pos = book
            .binary_search_by(|other| {
                let oq = self.offers[other].quality();
                oq.partial_cmp(&q).expect("no NaN qualities").then(other.cmp(&id))
            })
            .unwrap_or_else(|p| p);
        book.insert(pos, id);
        self.by_owner.entry(offer.owner).or_default().insert(id);
        self.offers.insert(id, offer);
    }

    /// `OfferCreate`: cross against the opposing book, then rest the
    /// remainder. `available(owner, asset)` reports spendable funds, used
    /// for the taker's funding check and to skip/remove unfunded makers.
    pub fn create_offer<F>(
        &mut self,
        owner: AccountId,
        gets: Amount,
        pays: Amount,
        available: F,
    ) -> Result<CreateOutcome, DexError>
    where
        F: Fn(AccountId, Asset) -> i128,
    {
        if gets.value <= 0 || pays.value <= 0 || gets.asset == pays.asset {
            return Err(DexError::BadOffer);
        }
        if available(owner, gets.asset) <= 0 {
            return Err(DexError::Unfunded { owner, asset: gets.asset });
        }
        self.stats.offers_created += 1;

        let mut taker_gets_rem = gets.value; // stated give, remaining
        let mut taker_pays_rem = pays.value; // stated want, remaining
        let mut fills = Vec::new();
        // Funds consumed by fills within this crossing, per (account, asset).
        let mut consumed: HashMap<(AccountId, Asset), i128> = HashMap::new();
        let avail = |consumed: &HashMap<(AccountId, Asset), i128>,
                     a: AccountId,
                     asset: Asset,
                     f: &F| { f(a, asset) - consumed.get(&(a, asset)).copied().unwrap_or(0) };

        let opposite = (pays.asset, gets.asset);
        let mut removed: Vec<OfferId> = Vec::new();
        // The book is only read here (removals wait for the loop to end)
        // while offers shrink: disjoint fields, no copy of the book.
        for maker_id in self.books.get(&opposite).into_iter().flatten() {
            if taker_pays_rem <= 0 || taker_gets_rem <= 0 {
                break;
            }
            let Some(m) = self.offers.get_mut(maker_id) else { continue };
            // Price compatibility at *stated* qualities (funding never
            // changes an offer's price, only how much can execute):
            // cross while maker.pays/maker.gets <= gets/pays.
            let lhs = m.pays.value as f64 * pays.value as f64;
            let rhs = gets.value as f64 * m.gets.value as f64;
            if lhs > rhs {
                break; // book is sorted; nothing further can cross
            }
            // Maker funding: remove stale unfunded offers on contact.
            let maker_funds = avail(&consumed, m.owner, m.gets.asset, &available);
            if maker_funds <= 0 {
                removed.push(*maker_id);
                continue;
            }
            // Taker funding caps execution of its gets-asset.
            let taker_funds = avail(&consumed, owner, gets.asset, &available);
            if taker_funds <= 0 {
                break;
            }
            // Fill at the maker's rate.
            let mut fill_gives = m.gets.value.min(taker_pays_rem).min(maker_funds);
            let mut fill_receives = ceil_mul_div(fill_gives, m.pays.value, m.gets.value);
            // Cap by what the taker can still give (stated + funded).
            let taker_cap = taker_gets_rem.min(taker_funds);
            if fill_receives > taker_cap {
                fill_receives = taker_cap;
                fill_gives = mul_div(fill_receives, m.gets.value, m.pays.value);
            }
            if fill_gives <= 0 || fill_receives <= 0 {
                break;
            }
            *consumed.entry((m.owner, m.gets.asset)).or_insert(0) += fill_gives;
            *consumed.entry((owner, m.pays.asset)).or_insert(0) += fill_receives;
            fills.push(Fill {
                maker_offer: *maker_id,
                maker: m.owner,
                maker_gives: Amount { asset: m.gets.asset, value: fill_gives },
                maker_receives: Amount { asset: m.pays.asset, value: fill_receives },
            });
            self.stats.fills_executed += 1;
            if m.touch() {
                self.stats.offers_touched += 1;
            }
            taker_pays_rem -= fill_gives;
            taker_gets_rem -= fill_receives;
            // Shrink or consume the maker offer.
            m.gets.value -= fill_gives;
            m.pays.value -= fill_receives.min(m.pays.value);
            if m.gets.value <= 0 || m.pays.value <= 0 {
                removed.push(*maker_id);
            }
        }
        for id in removed {
            self.remove_from_book(id);
        }

        let id = OfferId(self.next_id);
        self.next_id += 1;
        // The taker counts as touched at creation; a resting remainder
        // carries the flag so a later fill does not count it again.
        let touched = !fills.is_empty();
        if touched {
            self.stats.offers_touched += 1;
        }
        let fully_crossed = taker_pays_rem <= 0 || taker_gets_rem <= 0;
        let resting = if !fully_crossed {
            let offer = Offer {
                id,
                owner,
                gets: Amount { asset: gets.asset, value: taker_gets_rem },
                pays: Amount { asset: pays.asset, value: taker_pays_rem },
                original_gets: gets.value,
                touched,
            };
            self.insert_sorted(offer);
            Some(id)
        } else {
            None
        };
        Ok(CreateOutcome { fills, resting, fully_crossed })
    }

    /// Plan a market-style cross for a *payment through the order book*:
    /// acquire exactly `want` paying at most `budget`, taking liquidity at
    /// any resting price (payments, unlike offers, have no limit price —
    /// only a spend cap). Read-only: returns `None` when the book cannot
    /// deliver in full (tecPATH_DRY), so failed payments never mutate books.
    pub fn plan_market<F>(
        &self,
        taker: AccountId,
        want: Amount,
        budget: Amount,
        available: F,
    ) -> Option<Vec<Fill>>
    where
        F: Fn(AccountId, Asset) -> i128,
    {
        if want.value <= 0 || budget.value <= 0 || want.asset == budget.asset {
            return None;
        }
        let book = self.books.get(&(want.asset, budget.asset))?;
        let mut need = want.value;
        let mut budget_rem = budget.value.min(available(taker, budget.asset));
        let mut consumed: HashMap<(AccountId, Asset), i128> = HashMap::new();
        let mut fills = Vec::new();
        for maker_id in book {
            if need <= 0 {
                break;
            }
            let maker = self.offers.get(maker_id)?;
            let maker_funds = available(maker.owner, maker.gets.asset)
                - consumed.get(&(maker.owner, maker.gets.asset)).copied().unwrap_or(0);
            if maker_funds <= 0 {
                continue;
            }
            let mut fill_gives = maker.gets.value.min(need).min(maker_funds);
            let mut fill_receives = ceil_mul_div(fill_gives, maker.pays.value, maker.gets.value);
            if fill_receives > budget_rem {
                fill_receives = budget_rem;
                fill_gives = mul_div(fill_receives, maker.gets.value, maker.pays.value);
            }
            if fill_gives <= 0 || fill_receives <= 0 {
                break; // budget exhausted
            }
            *consumed.entry((maker.owner, maker.gets.asset)).or_insert(0) += fill_gives;
            budget_rem -= fill_receives;
            need -= fill_gives;
            fills.push(Fill {
                maker_offer: *maker_id,
                maker: maker.owner,
                maker_gives: Amount { asset: maker.gets.asset, value: fill_gives },
                maker_receives: Amount { asset: maker.pays.asset, value: fill_receives },
            });
        }
        if need > 0 {
            return None; // cannot deliver in full: path is dry
        }
        Some(fills)
    }

    /// Apply a plan produced by [`Dex::plan_market`]: shrink or remove the
    /// maker offers and update fulfillment statistics.
    pub fn execute_plan(&mut self, fills: &[Fill]) {
        let mut removed = Vec::new();
        for f in fills {
            self.stats.fills_executed += 1;
            if let Some(m) = self.offers.get_mut(&f.maker_offer) {
                if m.touch() {
                    self.stats.offers_touched += 1;
                }
                m.gets.value -= f.maker_gives.value;
                m.pays.value -= f.maker_receives.value.min(m.pays.value);
                if m.gets.value <= 0 || m.pays.value <= 0 {
                    removed.push(f.maker_offer);
                }
            }
        }
        for id in removed {
            self.remove_from_book(id);
        }
    }

    fn remove_from_book(&mut self, id: OfferId) {
        let Some(offer) = self.offers.remove(&id) else { return };
        if let Some(book) = self.books.get_mut(&(offer.gets.asset, offer.pays.asset)) {
            if let Some(pos) = book.iter().position(|x| *x == id) {
                book.remove(pos);
            }
        }
        if let Some(ids) = self.by_owner.get_mut(&offer.owner) {
            ids.remove(&id);
            if ids.is_empty() {
                self.by_owner.remove(&offer.owner);
            }
        }
    }

    /// `OfferCancel`.
    pub fn cancel(&mut self, account: AccountId, id: OfferId) -> Result<(), DexError> {
        let offer = self.offers.get(&id).ok_or(DexError::UnknownOffer(id))?;
        if offer.owner != account {
            return Err(DexError::NotOwner { offer: id, account });
        }
        self.remove_from_book(id);
        self.stats.offers_cancelled += 1;
        Ok(())
    }

    /// The oldest resting offer of an account, if it has any.
    pub fn oldest_offer_of(&self, account: AccountId) -> Option<OfferId> {
        self.by_owner.get(&account)?.first().copied()
    }

    /// All resting offers of an account, oldest first (for reserve
    /// accounting/tests).
    pub fn offers_of(&self, account: AccountId) -> Vec<OfferId> {
        self.by_owner.get(&account).map_or_else(Vec::new, |ids| ids.iter().copied().collect())
    }

    /// Verify the owner index against the offer table: every indexed id
    /// rests and belongs to that owner, every resting offer is indexed, no
    /// owner keeps an empty entry.
    pub fn check_index(&self) -> Result<(), String> {
        let mut indexed = 0;
        for (owner, ids) in &self.by_owner {
            if ids.is_empty() {
                return Err(format!("empty index entry for {owner}"));
            }
            for id in ids {
                match self.offers.get(id) {
                    Some(o) if o.owner == *owner => indexed += 1,
                    Some(o) => return Err(format!("{id:?} of {} indexed under {owner}", o.owner)),
                    None => return Err(format!("dangling offer {id:?} indexed under {owner}")),
                }
            }
        }
        // Ids are unique per set and each sits under its one owner, so equal
        // counts mean nothing resting is missing from the index.
        if indexed != self.offers.len() {
            return Err(format!("{} offers rest but {indexed} are indexed", self.offers.len()));
        }
        Ok(())
    }

    /// Verify book-order invariant: every book sorted by quality ascending.
    pub fn check_books_sorted(&self) -> Result<(), String> {
        for (key, book) in &self.books {
            let mut prev = f64::MIN;
            for id in book {
                let q = self
                    .offers
                    .get(id)
                    .ok_or_else(|| format!("dangling offer {id:?} in {key:?}"))?
                    .quality();
                if q < prev {
                    return Err(format!("book {key:?} out of order"));
                }
                prev = q;
            }
        }
        Ok(())
    }
}

/// floor(a * b / c) with i128 intermediates.
fn mul_div(a: i128, b: i128, c: i128) -> i128 {
    debug_assert!(c > 0);
    a.checked_mul(b).map(|p| p / c).unwrap_or_else(|| {
        // Fall back through f64 for extreme magnitudes (beyond workload range).
        (a as f64 * b as f64 / c as f64) as i128
    })
}

/// ceil(a * b / c).
fn ceil_mul_div(a: i128, b: i128, c: i128) -> i128 {
    debug_assert!(c > 0);
    a.checked_mul(b).map(|p| (p + c - 1) / c).unwrap_or_else(|| {
        (a as f64 * b as f64 / c as f64).ceil() as i128
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::IssuedCurrency;
    use std::collections::HashMap;

    fn usd() -> Asset {
        Asset::Iou(IssuedCurrency::new("USD", AccountId(1)))
    }

    /// A wallet view for tests.
    struct Funds(HashMap<(AccountId, Asset), i128>);
    impl Funds {
        fn new(entries: &[(AccountId, Asset, i128)]) -> Self {
            Funds(entries.iter().map(|(a, s, v)| ((*a, *s), *v)).collect())
        }
        fn view(&self) -> impl Fn(AccountId, Asset) -> i128 + '_ {
            move |a, s| self.0.get(&(a, s)).copied().unwrap_or(0)
        }
    }

    #[test]
    fn resting_offer_then_full_cross() {
        let mut dex = Dex::new();
        let (maker, taker) = (AccountId(10), AccountId(11));
        let funds = Funds::new(&[(maker, usd(), 1_000_000_000), (taker, Asset::Xrp, 1_000_000_000)]);
        // Maker sells 100 USD for 500 XRP (5 XRP per USD).
        let out = dex
            .create_offer(
                maker,
                Amount { asset: usd(), value: 100 },
                Amount { asset: Asset::Xrp, value: 500 },
                funds.view(),
            )
            .unwrap();
        assert!(out.fills.is_empty());
        assert!(out.resting.is_some());
        assert_eq!(dex.book_depth(usd(), Asset::Xrp), 1);

        // Taker buys 100 USD paying up to 500 XRP → fully crossed.
        let out = dex
            .create_offer(
                taker,
                Amount { asset: Asset::Xrp, value: 500 },
                Amount { asset: usd(), value: 100 },
                funds.view(),
            )
            .unwrap();
        assert_eq!(out.fills.len(), 1);
        assert!(out.fully_crossed);
        assert!(out.resting.is_none());
        let f = &out.fills[0];
        assert_eq!(f.maker_gives.value, 100);
        assert_eq!(f.maker_receives.value, 500);
        assert_eq!(dex.book_depth(usd(), Asset::Xrp), 0);
        assert_eq!(dex.stats.offers_created, 2);
        assert_eq!(dex.stats.offers_touched, 2);
        dex.check_books_sorted().unwrap();
    }

    #[test]
    fn partial_fill_rests_remainder() {
        let mut dex = Dex::new();
        let (maker, taker) = (AccountId(10), AccountId(11));
        let funds = Funds::new(&[(maker, usd(), 10_000), (taker, Asset::Xrp, 10_000)]);
        dex.create_offer(
            maker,
            Amount { asset: usd(), value: 50 },
            Amount { asset: Asset::Xrp, value: 250 },
            funds.view(),
        )
        .unwrap();
        // Taker wants 100 USD but book only has 50.
        let out = dex
            .create_offer(
                taker,
                Amount { asset: Asset::Xrp, value: 500 },
                Amount { asset: usd(), value: 100 },
                funds.view(),
            )
            .unwrap();
        assert_eq!(out.fills.len(), 1);
        assert!(!out.fully_crossed);
        let rest = dex.offer(out.resting.unwrap()).unwrap();
        assert_eq!(rest.pays.value, 50, "still wants 50 USD");
        assert_eq!(rest.gets.value, 250, "still gives 250 XRP");
    }

    #[test]
    fn price_time_priority() {
        let mut dex = Dex::new();
        let funds = Funds::new(&[
            (AccountId(10), usd(), 1000),
            (AccountId(11), usd(), 1000),
            (AccountId(12), Asset::Xrp, 100_000),
        ]);
        // Two makers: 10 sells at 6 XRP/USD, 11 at 5 XRP/USD (better).
        dex.create_offer(
            AccountId(10),
            Amount { asset: usd(), value: 100 },
            Amount { asset: Asset::Xrp, value: 600 },
            funds.view(),
        )
        .unwrap();
        dex.create_offer(
            AccountId(11),
            Amount { asset: usd(), value: 100 },
            Amount { asset: Asset::Xrp, value: 500 },
            funds.view(),
        )
        .unwrap();
        // Taker buys 100 USD at up to 6 XRP/USD → should hit the 5 first.
        let out = dex
            .create_offer(
                AccountId(12),
                Amount { asset: Asset::Xrp, value: 600 },
                Amount { asset: usd(), value: 100 },
                funds.view(),
            )
            .unwrap();
        assert_eq!(out.fills.len(), 1);
        assert_eq!(out.fills[0].maker, AccountId(11), "best price first");
        assert_eq!(out.fills[0].maker_receives.value, 500);
    }

    #[test]
    fn unfunded_creator_rejected_and_unfunded_maker_removed() {
        let mut dex = Dex::new();
        let funds = Funds::new(&[(AccountId(10), usd(), 100), (AccountId(12), Asset::Xrp, 10_000)]);
        // Creator with zero funds → tecUNFUNDED_OFFER.
        assert!(matches!(
            dex.create_offer(
                AccountId(99),
                Amount { asset: usd(), value: 10 },
                Amount { asset: Asset::Xrp, value: 50 },
                funds.view(),
            ),
            Err(DexError::Unfunded { .. })
        ));
        // Maker rests, then loses funding; taker contact removes it.
        dex.create_offer(
            AccountId(10),
            Amount { asset: usd(), value: 10 },
            Amount { asset: Asset::Xrp, value: 50 },
            funds.view(),
        )
        .unwrap();
        let empty = Funds::new(&[(AccountId(12), Asset::Xrp, 10_000)]);
        let out = dex
            .create_offer(
                AccountId(12),
                Amount { asset: Asset::Xrp, value: 50 },
                Amount { asset: usd(), value: 10 },
                empty.view(),
            )
            .unwrap();
        assert!(out.fills.is_empty());
        assert_eq!(dex.book_depth(usd(), Asset::Xrp), 0, "stale offer removed");
        assert_eq!(dex.offers_of(AccountId(10)), vec![], "and gone from its owner's index");
        dex.check_index().unwrap();
    }

    #[test]
    fn incompatible_prices_do_not_cross() {
        let mut dex = Dex::new();
        let funds = Funds::new(&[(AccountId(10), usd(), 1000), (AccountId(12), Asset::Xrp, 100_000)]);
        // Maker demands 10 XRP/USD.
        dex.create_offer(
            AccountId(10),
            Amount { asset: usd(), value: 100 },
            Amount { asset: Asset::Xrp, value: 1000 },
            funds.view(),
        )
        .unwrap();
        // Taker only willing to pay 5 XRP/USD.
        let out = dex
            .create_offer(
                AccountId(12),
                Amount { asset: Asset::Xrp, value: 500 },
                Amount { asset: usd(), value: 100 },
                funds.view(),
            )
            .unwrap();
        assert!(out.fills.is_empty());
        assert_eq!(dex.book_depth(usd(), Asset::Xrp), 1);
        assert_eq!(dex.book_depth(Asset::Xrp, usd()), 1);
    }

    #[test]
    fn cancel_rules() {
        let mut dex = Dex::new();
        let funds = Funds::new(&[(AccountId(10), usd(), 1000)]);
        let out = dex
            .create_offer(
                AccountId(10),
                Amount { asset: usd(), value: 10 },
                Amount { asset: Asset::Xrp, value: 50 },
                funds.view(),
            )
            .unwrap();
        let id = out.resting.unwrap();
        assert!(matches!(
            dex.cancel(AccountId(11), id),
            Err(DexError::NotOwner { .. })
        ));
        dex.cancel(AccountId(10), id).unwrap();
        assert!(matches!(dex.cancel(AccountId(10), id), Err(DexError::UnknownOffer(_))));
        assert_eq!(dex.stats.offers_cancelled, 1);
    }

    #[test]
    fn bad_offers_rejected() {
        let mut dex = Dex::new();
        let funds = Funds::new(&[(AccountId(10), usd(), 1000)]);
        assert_eq!(
            dex.create_offer(
                AccountId(10),
                Amount { asset: usd(), value: 0 },
                Amount { asset: Asset::Xrp, value: 50 },
                funds.view(),
            )
            .unwrap_err(),
            DexError::BadOffer
        );
        assert_eq!(
            dex.create_offer(
                AccountId(10),
                Amount { asset: usd(), value: 5 },
                Amount { asset: usd(), value: 5 },
                funds.view(),
            )
            .unwrap_err(),
            DexError::BadOffer
        );
    }

    #[test]
    fn plan_market_full_or_nothing() {
        let mut dex = Dex::new();
        let funds = Funds::new(&[
            (AccountId(10), usd(), 1000),
            (AccountId(50), Asset::Xrp, 1_000_000),
        ]);
        dex.create_offer(
            AccountId(10),
            Amount { asset: usd(), value: 40 },
            Amount { asset: Asset::Xrp, value: 200 },
            funds.view(),
        )
        .unwrap();
        // Wanting 50 USD when only 40 rest → dry, and nothing mutates.
        assert!(dex
            .plan_market(
                AccountId(50),
                Amount { asset: usd(), value: 50 },
                Amount { asset: Asset::Xrp, value: 10_000 },
                funds.view(),
            )
            .is_none());
        assert_eq!(dex.offer(OfferId(0)).unwrap().gets.value, 40, "book untouched");
        // Wanting 30 USD succeeds; executing shrinks the maker.
        let plan = dex
            .plan_market(
                AccountId(50),
                Amount { asset: usd(), value: 30 },
                Amount { asset: Asset::Xrp, value: 10_000 },
                funds.view(),
            )
            .unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].maker_gives.value, 30);
        assert_eq!(plan[0].maker_receives.value, 150);
        dex.execute_plan(&plan);
        assert_eq!(dex.offer(OfferId(0)).unwrap().gets.value, 10);
        dex.check_books_sorted().unwrap();
    }

    #[test]
    fn plan_market_respects_budget() {
        let mut dex = Dex::new();
        let funds = Funds::new(&[
            (AccountId(10), usd(), 1000),
            (AccountId(50), Asset::Xrp, 1_000_000),
        ]);
        // 10 USD at 10 XRP each.
        dex.create_offer(
            AccountId(10),
            Amount { asset: usd(), value: 10 },
            Amount { asset: Asset::Xrp, value: 100 },
            funds.view(),
        )
        .unwrap();
        // Budget of 50 XRP can't buy 10 USD.
        assert!(dex
            .plan_market(
                AccountId(50),
                Amount { asset: usd(), value: 10 },
                Amount { asset: Asset::Xrp, value: 50 },
                funds.view(),
            )
            .is_none());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Price-time priority (this module's doc), seen from the taker:
            /// it never pays worse than its quoted price — every fill executes at the maker's rate, which is at
            /// least as good as the taker's stated gets/pays ratio (up to
            /// one unit of integer rounding per fill).
            #[test]
            fn taker_never_pays_worse_than_quoted(
                makers in proptest::collection::vec((1i128..500, 1i128..500), 1..20),
                taker_gets in 1i128..100_000,
                taker_pays in 1i128..100_000,
            ) {
                let usd = Asset::Iou(IssuedCurrency::new("USD", AccountId(1)));
                let funds = |_a: AccountId, _s: Asset| 10_000_000i128;
                let mut dex = Dex::new();
                for (i, (g, p)) in makers.iter().enumerate() {
                    dex.create_offer(
                        AccountId(100 + i as u64),
                        Amount { asset: usd, value: *g },
                        Amount { asset: Asset::Xrp, value: *p },
                        funds,
                    ).expect("maker placed");
                }
                let out = dex.create_offer(
                    AccountId(5),
                    Amount { asset: Asset::Xrp, value: taker_gets },
                    Amount { asset: usd, value: taker_pays },
                    funds,
                ).expect("taker processed");
                for fill in &out.fills {
                    // Taker pays fill.maker_receives XRP for fill.maker_gives
                    // USD; its stated worst price is taker_gets/taker_pays
                    // XRP per USD. Cross-multiplied with rounding slack:
                    prop_assert!(
                        fill.maker_receives.value * taker_pays
                            <= taker_gets * fill.maker_gives.value + taker_gets,
                        "fill {:?} worse than quote {}/{}",
                        fill, taker_gets, taker_pays
                    );
                    prop_assert!(fill.maker_gives.value > 0 && fill.maker_receives.value > 0);
                }
                dex.check_books_sorted().map_err(TestCaseError::fail)?;
            }

            /// Books stay sorted, the owner index stays exact and the stats
            /// stay consistent under random offer/cancel streams — partial
            /// fills, cancels of the oldest offer and makers that lose their
            /// funding (removed on contact) in the mix.
            #[test]
            fn books_stay_sorted_under_churn(
                ops in proptest::collection::vec((0u64..6, 1i128..300, 1i128..300, 0u8..8), 1..60)
            ) {
                let usd = Asset::Iou(IssuedCurrency::new("USD", AccountId(1)));
                let mut broke: Vec<AccountId> = Vec::new();
                let mut dex = Dex::new();
                // Recount of `offers_touched` from the outcomes alone: every
                // offer id seen filled, plus the takers that crossed fully
                // (they never get an id the test could see again).
                let mut touched_ids = std::collections::BTreeSet::new();
                let (mut touched_unseen, mut fills) = (0u64, 0u64);
                for (owner, a, b, kind) in ops {
                    let acct = AccountId(10 + owner);
                    match kind {
                        0 | 1 => {
                            let mine = dex.offers_of(acct);
                            prop_assert_eq!(mine.first().copied(), dex.oldest_offer_of(acct));
                            prop_assert!(mine.windows(2).all(|w| w[0] < w[1]), "oldest first");
                            if let Some(id) = mine.first().copied() {
                                dex.cancel(acct, id).expect("own offer");
                                prop_assert!(!dex.offers_of(acct).contains(&id));
                            }
                        }
                        2 => match broke.iter().position(|x| *x == acct) {
                            Some(i) => {
                                broke.remove(i);
                            }
                            None => broke.push(acct),
                        },
                        _ => {
                            let (gets, pays) = if owner % 2 == 0 {
                                (Amount { asset: usd, value: a }, Amount { asset: Asset::Xrp, value: b })
                            } else {
                                (Amount { asset: Asset::Xrp, value: a }, Amount { asset: usd, value: b })
                            };
                            let funds = |a: AccountId, _s: Asset| if broke.contains(&a) { 0 } else { 1_000_000i128 };
                            match dex.create_offer(acct, gets, pays, funds) {
                                Ok(out) => {
                                    fills += out.fills.len() as u64;
                                    touched_ids.extend(out.fills.iter().map(|f| f.maker_offer));
                                    match out.resting {
                                        _ if out.fills.is_empty() => {}
                                        Some(id) => {
                                            touched_ids.insert(id);
                                        }
                                        None => touched_unseen += 1,
                                    }
                                    prop_assert_eq!(out.resting.is_some(), !out.fully_crossed);
                                }
                                Err(e) => prop_assert_eq!(e, DexError::Unfunded { owner: acct, asset: gets.asset }),
                            }
                        }
                    }
                    dex.check_books_sorted().map_err(TestCaseError::fail)?;
                    dex.check_index().map_err(TestCaseError::fail)?;
                    prop_assert_eq!(dex.stats.offers_touched, touched_ids.len() as u64 + touched_unseen);
                    prop_assert_eq!(dex.stats.fills_executed, fills);
                }
                prop_assert!(dex.stats.offers_touched <= dex.stats.offers_created);
            }
        }
    }

    #[test]
    fn multi_maker_sweep() {
        let mut dex = Dex::new();
        let mut entries = vec![(AccountId(50), Asset::Xrp, 1_000_000)];
        for i in 0..5u64 {
            entries.push((AccountId(10 + i), usd(), 1_000));
        }
        let funds = Funds::new(&entries);
        // Five makers each sell 10 USD at increasing prices 5,6,7,8,9.
        for i in 0..5u64 {
            dex.create_offer(
                AccountId(10 + i),
                Amount { asset: usd(), value: 10 },
                Amount { asset: Asset::Xrp, value: (50 + 10 * i) as i128 },
                funds.view(),
            )
            .unwrap();
            dex.check_index().unwrap();
        }
        // Taker sweeps 35 USD paying up to 9 XRP/USD average budget.
        let out = dex
            .create_offer(
                AccountId(50),
                Amount { asset: Asset::Xrp, value: 315 },
                Amount { asset: usd(), value: 35 },
                funds.view(),
            )
            .unwrap();
        // Crosses 10@5, 10@6, 10@7 fully and 5@8 partially.
        assert_eq!(out.fills.len(), 4);
        let total_usd: i128 = out.fills.iter().map(|f| f.maker_gives.value).sum();
        assert_eq!(total_usd, 35);
        assert!(out.fully_crossed);
        dex.check_books_sorted().unwrap();
        dex.check_index().unwrap();
        // The three consumed makers left the index with their offers; the
        // partially filled one and the untouched one still rest.
        for (i, resting) in [0, 0, 0, 1, 1].into_iter().enumerate() {
            assert_eq!(dex.offers_of(AccountId(10 + i as u64)).len(), resting, "maker {i}");
        }
        assert_eq!(dex.stats.offers_touched, 5, "four makers and the taker");
        // A payment through the book takes the rest of the partial maker
        // and part of the last: the plan path keeps the index exact too.
        let plan = dex
            .plan_market(
                AccountId(50),
                Amount { asset: usd(), value: 8 },
                Amount { asset: Asset::Xrp, value: 1_000 },
                funds.view(),
            )
            .unwrap();
        dex.execute_plan(&plan);
        dex.check_books_sorted().unwrap();
        dex.check_index().unwrap();
        assert_eq!(dex.oldest_offer_of(AccountId(13)), None);
        assert_eq!(dex.offers_of(AccountId(14)).len(), 1);
        assert_eq!(dex.stats.offers_touched, 6, "the last maker is new to fills");
    }
}
