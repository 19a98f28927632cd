//! The streaming crawl: the §3.1 reverse-chronological block fetch,
//! emitting into a bounded [`Sink`] instead of materializing `Vec<Block>`.
//!
//! [`crawl_into`] runs the worker pool of `txstat_crawler::chains::crawl_*`
//! ([`txstat_crawler::crawl_range`]: `concurrency` fetch workers against
//! the shortlisted endpoint pool) with [`Sink::send`] as its emit step, so
//! every decoded block goes straight to the sharded sweep workers. The chain
//! is the caller's `fetch`. The [`CrawlStats`] accounting (wire bytes,
//! index-keyed compression sampling, per-block transaction counts) is the
//! driver's, so Figure 2 renders bit-for-bit the same numbers from either
//! path.
//!
//! Backpressure: a fetch worker that cannot `send` (all shard channels
//! full) parks before issuing its next RPC, so a slow consumer stalls the
//! crawler — and, transitively, the loopback endpoints — instead of growing
//! a buffer. The driver drops its emit step with its last worker, which is
//! what closes the stream.
//!
//! The XRP fetch additionally resolves exchange rates *during* the crawl:
//! before a ledger is emitted, every issued currency it references is
//! ensured in the shared [`RateCache`] ([`RateCache::resolve`]: one
//! `exchange_rates` query per new token, the paper's Data-API usage).
//! Consumers can therefore value payments at observe time — the final
//! oracle equals the one the materializing pipeline fetches after its
//! crawl.

use crate::shard::Sink;
use crate::IngestError;
use std::future::Future;
use std::sync::{Arc, Mutex, PoisonError};
use txstat_crawler::chains::Fetched;
use txstat_crawler::{
    crawl_range, fetch_exchange_rate, ClientConfig, CrawlError, CrawlStats, RotatingPool,
};
use txstat_types::time::ChainTime;
use txstat_xrp::amount::{Asset, IssuedCurrency};
use txstat_xrp::rates::RateOracle;
use txstat_xrp::tx::TxPayload;

/// Crawl `[low, high]` in reverse order with `concurrency` workers, one
/// `fetch(index)` per block, sending every block into `sink`; the sink
/// closes when the last worker finishes. Returns the crawl accounting.
pub async fn crawl_into<B, F, Fut>(
    sink: Sink<B>,
    high: u64,
    low: u64,
    concurrency: usize,
    fetch: F,
) -> Result<CrawlStats, IngestError>
where
    B: Send + 'static,
    F: Fn(u64) -> Fut + Send + Sync + Clone + 'static,
    Fut: Future<Output = Result<Fetched<B>, CrawlError>> + Send,
{
    let sink = Arc::new(sink);
    crawl_range(high, low, concurrency, fetch, move |n, block| {
        let sink = sink.clone();
        async move { sink.send(n, block).await.map_err(|_| IngestError::SinkClosed) }
    })
    .await
}

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
        RateCache { rates: Mutex::new(std::collections::HashMap::new()), date }
    }

    fn lock(
        &self,
    ) -> std::sync::MutexGuard<'_, std::collections::HashMap<IssuedCurrency, Option<f64>>> {
        self.rates.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetch-and-insert the rate for `ic` if unseen.
    pub async fn ensure(
        &self,
        pool: &Arc<RotatingPool>,
        cfg: &ClientConfig,
        ic: IssuedCurrency,
    ) -> Result<(), CrawlError> {
        if self.lock().contains_key(&ic) {
            return Ok(());
        }
        let rate = fetch_exchange_rate(pool, cfg, ic.currency.as_str(), ic.issuer, self.date).await?;
        self.lock().insert(ic, rate);
        Ok(())
    }

    /// [`Self::ensure`] every token `ledger` references — what the XRP
    /// fetch does before the ledger reaches a consumer, so observe-time
    /// valuation never misses.
    pub async fn resolve(
        &self,
        pool: &Arc<RotatingPool>,
        cfg: &ClientConfig,
        ledger: &txstat_xrp::LedgerBlock,
    ) -> Result<(), CrawlError> {
        for ic in ledger_ious(ledger).collect::<std::collections::HashSet<_>>() {
            self.ensure(pool, cfg, ic).await?;
        }
        Ok(())
    }

    /// The cached rate: `None` = never queried, `Some(None)` = unrated.
    pub fn lookup(&self, ic: IssuedCurrency) -> Option<Option<f64>> {
        self.lock().get(&ic).copied()
    }

    /// Every token queried so far, sorted (the legacy pipeline's `iou_list`).
    pub fn currencies(&self) -> Vec<IssuedCurrency> {
        let mut out: Vec<IssuedCurrency> = self.lock().keys().copied().collect();
        out.sort();
        out
    }

    /// Build the final oracle from every rated token.
    pub fn oracle(&self) -> RateOracle {
        RateOracle::from_rates(
            self.lock().iter().filter_map(|(ic, r)| r.map(|rate| (*ic, rate))),
        )
    }
}

/// The issued currencies a ledger references, exactly as the materializing
/// pipeline collects them (payment amounts and offer legs).
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
