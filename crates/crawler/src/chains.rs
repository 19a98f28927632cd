//! Per-chain crawlers: reverse-chronological block fetch over the
//! shortlisted endpoint pool, with bounded concurrency (§3.1: "We collect
//! our data in reverse chronological order, starting from the most recent
//! block").

use crate::client::{http_with_retries, ndjson_with_retries, ClientConfig, CrawlError};
use crate::pool::RotatingPool;
use crate::stats::CrawlStats;
use serde_json::{json, Value};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use txstat_netsim::http::HttpRequest;

/// A crawled chain: decoded blocks (ascending) plus accounting.
pub struct Crawl<B> {
    pub blocks: Vec<B>,
    pub stats: CrawlStats,
}

/// What one `fetch(index)` yields: the decoded block, its wire payload
/// (Figure 2's byte accounting and compression sampling) and the number of
/// transactions it carries.
pub type Fetched<B> = (B, Vec<u8>, u64);

/// The reverse-order range driver, shared by the materializing crawlers
/// below and `txstat_reports::generate_with_crawl`: descend from `high` to
/// `low` inclusive with `concurrency` scoped workers, one `fetch(index)`
/// per block, account it, then hand it to `emit(index, block)` on the same
/// worker before it takes its next index. The first `fetch` or `emit`
/// error stops the hand-out of indices; every worker is joined before that
/// error is returned, so no crawl keeps running behind an `Err`. A worker
/// that panics is joined too, and reported as a [`CrawlError::Protocol`].
/// Returns the merged accounting.
pub fn crawl_range<B, Err: From<CrawlError> + Send>(
    high: u64,
    low: u64,
    concurrency: usize,
    fetch: impl Fn(u64) -> Result<Fetched<B>, CrawlError> + Sync,
    emit: impl Fn(u64, B) -> Result<(), Err> + Sync,
) -> Result<CrawlStats, Err> {
    let started = Instant::now();
    let next = AtomicI64::new(high as i64);
    let stats = Mutex::new(CrawlStats::default());
    let failure: Mutex<Option<Err>> = Mutex::new(None);
    let worker = || loop {
        let n = next.fetch_sub(1, Ordering::SeqCst);
        if n < low as i64 {
            return;
        }
        let n = n as u64;
        let step = || {
            let (block, payload, txs) = fetch(n)?;
            {
                let mut s = stats.lock().unwrap_or_else(PoisonError::into_inner);
                s.record_payload(n, &payload);
                s.blocks += 1;
                s.transactions += txs;
            }
            emit(n, block)
        };
        if let Err(e) = step() {
            // Hand out no further index: every other worker finishes the
            // block it holds and exits.
            next.store(low as i64 - 1, Ordering::SeqCst);
            failure
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(e);
            return;
        }
    };
    let panicked = std::thread::scope(|s| {
        let workers: Vec<_> = (0..concurrency.max(1)).map(|_| s.spawn(worker)).collect();
        let mut panicked = None;
        for w in workers {
            if let Err(panic) = w.join() {
                panicked.get_or_insert(panic);
            }
        }
        panicked
    });
    if let Some(e) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }
    if let Some(panic) = panicked {
        let message = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("panic");
        return Err(CrawlError::Protocol(format!("worker panicked: {message}")).into());
    }
    let mut stats = stats.into_inner().unwrap_or_else(PoisonError::into_inner);
    stats.elapsed = started.elapsed();
    Ok(stats)
}

/// Materializing crawl: collect what [`crawl_range`] emits, ascending.
fn collect_range<B: Send>(
    high: u64,
    low: u64,
    concurrency: usize,
    fetch: impl Fn(u64) -> Result<Fetched<B>, CrawlError> + Sync,
) -> Result<Crawl<B>, CrawlError> {
    let out = Mutex::new(Vec::new());
    let stats = crawl_range(high, low, concurrency, fetch, |n, block| {
        out.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((n, block));
        Ok::<(), CrawlError>(())
    })?;
    let mut blocks = out.into_inner().unwrap_or_else(PoisonError::into_inner);
    blocks.sort_by_key(|(n, _)| *n);
    Ok(Crawl {
        blocks: blocks.into_iter().map(|(_, b)| b).collect(),
        stats,
    })
}

// ---- EOS ---------------------------------------------------------------------

/// Head block number via `get_info`.
pub fn eos_head(pool: &RotatingPool, cfg: &ClientConfig) -> Result<u64, CrawlError> {
    let req = HttpRequest::post("/v1/chain/get_info", b"{}".to_vec());
    let (resp, _) = http_with_retries(pool, cfg, &req)?;
    let v: Value =
        serde_json::from_slice(&resp.body).map_err(|e| CrawlError::Protocol(e.to_string()))?;
    v.get("head_block_num")
        .and_then(Value::as_u64)
        .ok_or_else(|| CrawlError::Protocol("missing head_block_num".into()))
}

/// Fetch and decode one EOS block, returning it with its wire payload and
/// transaction count. Shared by `crawl_eos` and the folding crawl —
/// Figure 2's byte accounting depends on both using the identical wire path.
pub fn fetch_eos_block(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    n: u64,
) -> Result<Fetched<txstat_eos::Block>, CrawlError> {
    let body = serde_json::to_vec(&json!({ "block_num_or_id": n })).expect("serializable");
    let req = HttpRequest::post("/v1/chain/get_block", body);
    let (resp, _) = http_with_retries(pool, cfg, &req)?;
    let block = txstat_eos::rpc_model::block_parse(&resp.body).map_err(CrawlError::Protocol)?;
    let txs = block.transactions.len() as u64;
    Ok((block, resp.body, txs))
}

/// Crawl EOS blocks `[low, high]` in reverse order.
pub fn crawl_eos(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    low: u64,
    high: u64,
    concurrency: usize,
) -> Result<Crawl<txstat_eos::Block>, CrawlError> {
    collect_range(high, low, concurrency, |n| fetch_eos_block(pool, cfg, n))
}

// ---- Tezos -------------------------------------------------------------------

/// Head level via `/chains/main/blocks/head`.
pub fn tezos_head(pool: &RotatingPool, cfg: &ClientConfig) -> Result<u64, CrawlError> {
    let req = HttpRequest::get("/chains/main/blocks/head");
    let (resp, _) = http_with_retries(pool, cfg, &req)?;
    let v: Value =
        serde_json::from_slice(&resp.body).map_err(|e| CrawlError::Protocol(e.to_string()))?;
    v.pointer("/header/level")
        .and_then(Value::as_u64)
        .ok_or_else(|| CrawlError::Protocol("missing header.level".into()))
}

/// Fetch and decode one Tezos block, returning it with its wire payload
/// and operation count (shared by `crawl_tezos` and the folding crawl).
pub fn fetch_tezos_block(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    n: u64,
) -> Result<Fetched<txstat_tezos::TezosBlock>, CrawlError> {
    let req = HttpRequest::get(&format!("/chains/main/blocks/{n}"));
    let (resp, _) = http_with_retries(pool, cfg, &req)?;
    let block = txstat_tezos::rpc_model::block_parse(&resp.body).map_err(CrawlError::Protocol)?;
    let txs = block.operations.len() as u64;
    Ok((block, resp.body, txs))
}

/// Crawl Tezos blocks `[low, high]` in reverse order.
#[cfg(test)]
pub(crate) fn crawl_tezos(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    low: u64,
    high: u64,
    concurrency: usize,
) -> Result<Crawl<txstat_tezos::TezosBlock>, CrawlError> {
    collect_range(high, low, concurrency, |n| fetch_tezos_block(pool, cfg, n))
}

// ---- XRP ---------------------------------------------------------------------

/// Head ledger index via `server_info`.
pub fn xrp_head(pool: &RotatingPool, cfg: &ClientConfig) -> Result<u64, CrawlError> {
    let (v, _) = ndjson_with_retries(pool, cfg, &json!({"id": 0, "command": "server_info"}))?;
    v.pointer("/result/info/validated_ledger/seq")
        .and_then(Value::as_u64)
        .ok_or_else(|| CrawlError::Protocol("missing validated_ledger.seq".into()))
}

/// Fetch and decode one XRP ledger, returning it with its wire frame and
/// transaction count (shared by `crawl_xrp` and the folding crawl).
pub fn fetch_xrp_ledger(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    n: u64,
) -> Result<Fetched<txstat_xrp::LedgerBlock>, CrawlError> {
    let req = json!({
        "id": n, "command": "ledger", "ledger_index": n,
        "transactions": true, "expand": true,
    });
    let (v, size) = ndjson_with_retries(pool, cfg, &req)?;
    let result = v
        .get("result")
        .ok_or_else(|| CrawlError::Protocol("missing result".into()))?;
    let block = txstat_xrp::rpc_model::ledger_from_json(result)
        .map_err(|e| CrawlError::Protocol(e.to_string()))?;
    // Account the full frame size.
    let payload = serde_json::to_vec(&v).expect("serializable");
    debug_assert!(payload.len() <= size + 1);
    let txs = block.transactions.len() as u64;
    Ok((block, payload, txs))
}

/// Crawl XRP ledgers `[low, high]` in reverse order.
#[cfg(test)]
pub(crate) fn crawl_xrp(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    low: u64,
    high: u64,
    concurrency: usize,
) -> Result<Crawl<txstat_xrp::LedgerBlock>, CrawlError> {
    collect_range(high, low, concurrency, |n| fetch_xrp_ledger(pool, cfg, n))
}

/// Account metadata from the XRP-Scan-equivalent command: username and
/// parent (§3.1: used to identify and cluster exchange accounts).
#[derive(Debug, Clone)]
pub struct AccountMeta {
    pub account: txstat_xrp::AccountId,
    pub username: Option<String>,
    pub parent: Option<txstat_xrp::AccountId>,
}

/// Fetch metadata for a set of accounts.
pub fn fetch_account_meta(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    accounts: &[txstat_xrp::AccountId],
) -> Result<Vec<AccountMeta>, CrawlError> {
    let mut out = Vec::with_capacity(accounts.len());
    for (i, a) in accounts.iter().enumerate() {
        let req = json!({"id": i, "command": "account_info", "account": a.to_string()});
        match ndjson_with_retries(pool, cfg, &req) {
            Ok((v, _)) => {
                let username = v
                    .pointer("/result/username")
                    .and_then(Value::as_str)
                    .map(str::to_owned);
                let parent = v
                    .pointer("/result/parent")
                    .and_then(Value::as_str)
                    .and_then(|s| s.parse().ok());
                out.push(AccountMeta {
                    account: *a,
                    username,
                    parent,
                });
            }
            // Unknown accounts simply have no metadata.
            Err(CrawlError::Protocol(e)) if e == "actNotFound" => {
                out.push(AccountMeta {
                    account: *a,
                    username: None,
                    parent: None,
                });
            }
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Fetch the individual exchange events of one issued currency (the
/// Data-API `exchanges` equivalent; Figure 11b's source).
pub fn fetch_exchanges(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    currency: &str,
    issuer: txstat_xrp::AccountId,
) -> Result<Vec<txstat_xrp::TradeRecord>, CrawlError> {
    let req = json!({
        "id": 0, "command": "exchanges",
        "currency": currency, "issuer": issuer.to_string(),
    });
    let (v, _) = ndjson_with_retries(pool, cfg, &req)?;
    let events = v
        .pointer("/result/exchanges")
        .and_then(Value::as_array)
        .ok_or_else(|| CrawlError::Protocol("missing exchanges".into()))?;
    let ic = txstat_xrp::IssuedCurrency::new(currency, issuer);
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        let time = e
            .get("time")
            .and_then(Value::as_str)
            .and_then(txstat_types::time::ChainTime::parse_iso)
            .ok_or_else(|| CrawlError::Protocol("bad exchange time".into()))?;
        let maker = e
            .get("maker")
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CrawlError::Protocol("bad exchange maker".into()))?;
        let iou_value: i128 = e
            .get("iou_value")
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CrawlError::Protocol("bad exchange iou_value".into()))?;
        let drops: i64 = e
            .get("drops")
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CrawlError::Protocol("bad exchange drops".into()))?;
        out.push(txstat_xrp::TradeRecord {
            time,
            currency: ic,
            iou_value,
            drops,
            maker,
        });
    }
    Ok(out)
}

/// Fetch a 30-day exchange rate from the Data-API-equivalent command.
pub fn fetch_exchange_rate(
    pool: &RotatingPool,
    cfg: &ClientConfig,
    currency: &str,
    issuer: txstat_xrp::AccountId,
    date: txstat_types::time::ChainTime,
) -> Result<Option<f64>, CrawlError> {
    let req = json!({
        "id": 0, "command": "exchange_rates",
        "currency": currency, "issuer": issuer.to_string(),
        "date": date.iso_string(),
    });
    let (v, _) = ndjson_with_retries(pool, cfg, &req)?;
    let traded = v
        .pointer("/result/traded")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    if !traded {
        return Ok(None);
    }
    Ok(v.pointer("/result/rate").and_then(Value::as_f64))
}
