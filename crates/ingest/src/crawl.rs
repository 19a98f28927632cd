//! Crawl-time exchange rates for the §3.1 XRP crawl.
//!
//! The XRP fetch resolves exchange rates *during* the crawl: before a
//! ledger is folded, every issued currency it references is ensured in the
//! shared [`RateCache`] ([`RateCache::resolve`]: one `exchange_rates`
//! query per new token, the paper's Data-API usage). The fold can
//! therefore value payments at observe time, and the final oracle
//! ([`RateCache::oracle`]) holds every rated token the crawl saw.

use std::sync::{Mutex, PoisonError};
use txstat_crawler::{fetch_exchange_rate, ClientConfig, CrawlError, RotatingPool};
use txstat_types::time::ChainTime;
use txstat_xrp::amount::{Asset, IssuedCurrency};
use txstat_xrp::rates::RateOracle;
use txstat_xrp::tx::TxPayload;

/// Shared issued-currency → rate map, filled lazily during the XRP crawl.
///
/// `ensure` is idempotent: concurrent workers may race on a fresh token,
/// but the endpoint's answer for a `(currency, issuer, date)` triple is
/// deterministic, so duplicate fetches insert the same value.
pub struct RateCache {
    /// `None` means the token was queried and has never traded.
    rates: Mutex<std::collections::HashMap<IssuedCurrency, Option<f64>>>,
    /// The paper's query date (the observation-window end).
    pub date: ChainTime,
}

impl RateCache {
    pub fn new(date: ChainTime) -> Self {
        RateCache {
            rates: Mutex::new(std::collections::HashMap::new()),
            date,
        }
    }

    fn lock(
        &self,
    ) -> std::sync::MutexGuard<'_, std::collections::HashMap<IssuedCurrency, Option<f64>>> {
        self.rates.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetch-and-insert the rate for `ic` if unseen.
    pub(crate) fn ensure(
        &self,
        pool: &RotatingPool,
        cfg: &ClientConfig,
        ic: IssuedCurrency,
    ) -> Result<(), CrawlError> {
        if self.lock().contains_key(&ic) {
            return Ok(());
        }
        let rate = fetch_exchange_rate(pool, cfg, ic.currency.as_str(), ic.issuer, self.date)?;
        self.lock().insert(ic, rate);
        Ok(())
    }

    /// `Self::ensure` every token `ledger` references — what the XRP
    /// fetch does before the ledger reaches a consumer, so observe-time
    /// valuation never misses.
    pub fn resolve(
        &self,
        pool: &RotatingPool,
        cfg: &ClientConfig,
        ledger: &txstat_xrp::LedgerBlock,
    ) -> Result<(), CrawlError> {
        for ic in ledger_ious(ledger).collect::<std::collections::HashSet<_>>() {
            self.ensure(pool, cfg, ic)?;
        }
        Ok(())
    }

    /// The cached rate: `None` = never queried, `Some(None)` = unrated.
    pub fn lookup(&self, ic: IssuedCurrency) -> Option<Option<f64>> {
        self.lock().get(&ic).copied()
    }

    /// Every token queried so far, sorted.
    pub fn currencies(&self) -> Vec<IssuedCurrency> {
        let mut out: Vec<IssuedCurrency> = self.lock().keys().copied().collect();
        out.sort();
        out
    }

    /// Build the final oracle from every rated token.
    pub fn oracle(&self) -> RateOracle {
        RateOracle::from_rates(
            self.lock()
                .iter()
                .filter_map(|(ic, r)| r.map(|rate| (*ic, rate))),
        )
    }
}

/// The issued currencies a ledger references: payment amounts and offer
/// legs.
pub fn ledger_ious(b: &txstat_xrp::LedgerBlock) -> impl Iterator<Item = IssuedCurrency> + '_ {
    b.transactions.iter().flat_map(|tx| {
        let mut out: [Option<IssuedCurrency>; 2] = [None, None];
        match &tx.tx.payload {
            TxPayload::Payment { amount, .. } => {
                if let Asset::Iou(ic) = amount.asset {
                    out[0] = Some(ic);
                }
            }
            TxPayload::OfferCreate { gets, pays } => {
                for (slot, a) in out.iter_mut().zip([gets, pays]) {
                    if let Asset::Iou(ic) = a.asset {
                        *slot = Some(ic);
                    }
                }
            }
            _ => {}
        }
        out.into_iter().flatten()
    })
}
