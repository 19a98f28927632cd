//! Per-chain crawlers: reverse-chronological block fetch over the
//! shortlisted endpoint pool, with bounded concurrency (§3.1: "We collect
//! our data in reverse chronological order, starting from the most recent
//! block").

use crate::client::{http_with_retries, ndjson_with_retries, ClientConfig, CrawlError};
use crate::pool::RotatingPool;
use crate::stats::CrawlStats;
use parking_lot::Mutex;
use serde_json::{json, Value};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
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
/// below and the streaming `txstat_ingest::crawl_into`: descend from `high`
/// to `low` inclusive with `concurrency` workers, one `fetch(index)` per
/// block, account it, then hand it to `emit(index, block)` before the
/// worker takes its next index — an `emit` that parks is the backpressure
/// point. `fetch` and `emit` are dropped when the last worker finishes
/// (what closes a sink `emit` owns). Returns the merged accounting.
pub async fn crawl_range<B, Err, F, Fut, E, EFut>(
    high: u64,
    low: u64,
    concurrency: usize,
    fetch: F,
    emit: E,
) -> Result<CrawlStats, Err>
where
    B: Send + 'static,
    Err: From<CrawlError> + Send + 'static,
    F: Fn(u64) -> Fut + Send + Sync + Clone + 'static,
    Fut: std::future::Future<Output = Result<Fetched<B>, CrawlError>> + Send,
    E: Fn(u64, B) -> EFut + Send + Sync + Clone + 'static,
    EFut: std::future::Future<Output = Result<(), Err>> + Send,
{
    let started = Instant::now();
    let counter = Arc::new(AtomicI64::new(high as i64));
    let stats = Arc::new(Mutex::new(CrawlStats::default()));
    let mut workers = Vec::new();
    for _ in 0..concurrency.max(1) {
        let counter = counter.clone();
        let stats = stats.clone();
        let fetch = fetch.clone();
        let emit = emit.clone();
        workers.push(tokio::spawn(async move {
            loop {
                let n = counter.fetch_sub(1, Ordering::SeqCst);
                if n < low as i64 {
                    return Ok::<(), Err>(());
                }
                let n = n as u64;
                let (block, payload, txs) = fetch(n).await?;
                {
                    let mut s = stats.lock();
                    s.record_payload(n, &payload);
                    s.blocks += 1;
                    s.transactions += txs;
                }
                emit(n, block).await?;
            }
        }));
    }
    drop((fetch, emit));
    for w in workers {
        w.await.map_err(|e| CrawlError::Protocol(format!("worker panicked: {e}")))??;
    }
    let mut stats = stats.lock().clone();
    stats.elapsed = started.elapsed();
    Ok(stats)
}

/// Materializing crawl: collect what [`crawl_range`] emits, ascending.
async fn collect_range<B, F, Fut>(
    high: u64,
    low: u64,
    concurrency: usize,
    fetch: F,
) -> Result<Crawl<B>, CrawlError>
where
    B: Send + 'static,
    F: Fn(u64) -> Fut + Send + Sync + Clone + 'static,
    Fut: std::future::Future<Output = Result<Fetched<B>, CrawlError>> + Send,
{
    let out: Arc<Mutex<Vec<(u64, B)>>> = Arc::new(Mutex::new(Vec::new()));
    let collected = out.clone();
    let stats = crawl_range(high, low, concurrency, fetch, move |n, block| {
        let collected = collected.clone();
        async move {
            collected.lock().push((n, block));
            Ok::<(), CrawlError>(())
        }
    })
    .await?;
    let mut blocks = std::mem::take(&mut *out.lock());
    blocks.sort_by_key(|(n, _)| *n);
    Ok(Crawl { blocks: blocks.into_iter().map(|(_, b)| b).collect(), stats })
}

// ---- EOS ---------------------------------------------------------------------

/// Head block number via `get_info`.
pub async fn eos_head(pool: &Arc<RotatingPool>, cfg: &ClientConfig) -> Result<u64, CrawlError> {
    let req = HttpRequest::post("/v1/chain/get_info", b"{}".to_vec());
    let (resp, _) = http_with_retries(pool, cfg, &req).await?;
    let v: Value =
        serde_json::from_slice(&resp.body).map_err(|e| CrawlError::Protocol(e.to_string()))?;
    v.get("head_block_num")
        .and_then(Value::as_u64)
        .ok_or_else(|| CrawlError::Protocol("missing head_block_num".into()))
}

/// Fetch and decode one EOS block, returning it with its wire payload and
/// transaction count. Shared by the materializing and streaming crawlers —
/// Figure 2's byte accounting depends on both using the identical wire path.
pub async fn fetch_eos_block(
    pool: &Arc<RotatingPool>,
    cfg: &ClientConfig,
    n: u64,
) -> Result<Fetched<txstat_eos::Block>, CrawlError> {
    let body = serde_json::to_vec(&json!({ "block_num_or_id": n })).expect("serializable");
    let req = HttpRequest::post("/v1/chain/get_block", body);
    let (resp, _) = http_with_retries(pool, cfg, &req).await?;
    let wire: txstat_eos::rpc_model::BlockJson = serde_json::from_slice(&resp.body)
        .map_err(|e| CrawlError::Protocol(e.to_string()))?;
    let block = txstat_eos::rpc_model::block_from_json(&wire)
        .map_err(|e| CrawlError::Protocol(e.to_string()))?;
    let txs = block.transactions.len() as u64;
    Ok((block, resp.body, txs))
}

/// Crawl EOS blocks `[low, high]` in reverse order.
pub async fn crawl_eos(
    pool: Arc<RotatingPool>,
    cfg: ClientConfig,
    low: u64,
    high: u64,
    concurrency: usize,
) -> Result<Crawl<txstat_eos::Block>, CrawlError> {
    collect_range(high, low, concurrency, move |n| {
        let pool = pool.clone();
        let cfg = cfg.clone();
        async move { fetch_eos_block(&pool, &cfg, n).await }
    })
    .await
}

// ---- Tezos -------------------------------------------------------------------

/// Head level via `/chains/main/blocks/head`.
pub async fn tezos_head(pool: &Arc<RotatingPool>, cfg: &ClientConfig) -> Result<u64, CrawlError> {
    let req = HttpRequest::get("/chains/main/blocks/head");
    let (resp, _) = http_with_retries(pool, cfg, &req).await?;
    let v: Value =
        serde_json::from_slice(&resp.body).map_err(|e| CrawlError::Protocol(e.to_string()))?;
    v.pointer("/header/level")
        .and_then(Value::as_u64)
        .ok_or_else(|| CrawlError::Protocol("missing header.level".into()))
}

/// Fetch and decode one Tezos block, returning it with its wire payload
/// and operation count (shared by the materializing and streaming crawlers).
pub async fn fetch_tezos_block(
    pool: &Arc<RotatingPool>,
    cfg: &ClientConfig,
    n: u64,
) -> Result<Fetched<txstat_tezos::TezosBlock>, CrawlError> {
    let req = HttpRequest::get(&format!("/chains/main/blocks/{n}"));
    let (resp, _) = http_with_retries(pool, cfg, &req).await?;
    let wire: txstat_tezos::rpc_model::BlockJson = serde_json::from_slice(&resp.body)
        .map_err(|e| CrawlError::Protocol(e.to_string()))?;
    let block = txstat_tezos::rpc_model::block_from_json(&wire)
        .map_err(|e| CrawlError::Protocol(e.to_string()))?;
    let txs = block.operations.len() as u64;
    Ok((block, resp.body, txs))
}

/// Crawl Tezos blocks `[low, high]` in reverse order.
pub async fn crawl_tezos(
    pool: Arc<RotatingPool>,
    cfg: ClientConfig,
    low: u64,
    high: u64,
    concurrency: usize,
) -> Result<Crawl<txstat_tezos::TezosBlock>, CrawlError> {
    collect_range(high, low, concurrency, move |n| {
        let pool = pool.clone();
        let cfg = cfg.clone();
        async move { fetch_tezos_block(&pool, &cfg, n).await }
    })
    .await
}

// ---- XRP ---------------------------------------------------------------------

/// Head ledger index via `server_info`.
pub async fn xrp_head(pool: &Arc<RotatingPool>, cfg: &ClientConfig) -> Result<u64, CrawlError> {
    let (v, _) =
        ndjson_with_retries(pool, cfg, &json!({"id": 0, "command": "server_info"})).await?;
    v.pointer("/result/info/validated_ledger/seq")
        .and_then(Value::as_u64)
        .ok_or_else(|| CrawlError::Protocol("missing validated_ledger.seq".into()))
}

/// Fetch and decode one XRP ledger, returning it with its wire frame and
/// transaction count (shared by the materializing and streaming crawlers).
pub async fn fetch_xrp_ledger(
    pool: &Arc<RotatingPool>,
    cfg: &ClientConfig,
    n: u64,
) -> Result<Fetched<txstat_xrp::LedgerBlock>, CrawlError> {
    let req = json!({
        "id": n, "command": "ledger", "ledger_index": n,
        "transactions": true, "expand": true,
    });
    let (v, size) = ndjson_with_retries(pool, cfg, &req).await?;
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
pub async fn crawl_xrp(
    pool: Arc<RotatingPool>,
    cfg: ClientConfig,
    low: u64,
    high: u64,
    concurrency: usize,
) -> Result<Crawl<txstat_xrp::LedgerBlock>, CrawlError> {
    collect_range(high, low, concurrency, move |n| {
        let pool = pool.clone();
        let cfg = cfg.clone();
        async move { fetch_xrp_ledger(&pool, &cfg, n).await }
    })
    .await
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
pub async fn fetch_account_meta(
    pool: &Arc<RotatingPool>,
    cfg: &ClientConfig,
    accounts: &[txstat_xrp::AccountId],
) -> Result<Vec<AccountMeta>, CrawlError> {
    let mut out = Vec::with_capacity(accounts.len());
    for (i, a) in accounts.iter().enumerate() {
        let req = json!({"id": i, "command": "account_info", "account": a.to_string()});
        match ndjson_with_retries(pool, cfg, &req).await {
            Ok((v, _)) => {
                let username = v
                    .pointer("/result/username")
                    .and_then(Value::as_str)
                    .map(str::to_owned);
                let parent = v
                    .pointer("/result/parent")
                    .and_then(Value::as_str)
                    .and_then(|s| s.parse().ok());
                out.push(AccountMeta { account: *a, username, parent });
            }
            // Unknown accounts simply have no metadata.
            Err(CrawlError::Protocol(e)) if e == "actNotFound" => {
                out.push(AccountMeta { account: *a, username: None, parent: None });
            }
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Fetch the individual exchange events of one issued currency (the
/// Data-API `exchanges` equivalent; Figure 11b's source).
pub async fn fetch_exchanges(
    pool: &Arc<RotatingPool>,
    cfg: &ClientConfig,
    currency: &str,
    issuer: txstat_xrp::AccountId,
) -> Result<Vec<txstat_xrp::TradeRecord>, CrawlError> {
    let req = json!({
        "id": 0, "command": "exchanges",
        "currency": currency, "issuer": issuer.to_string(),
    });
    let (v, _) = ndjson_with_retries(pool, cfg, &req).await?;
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
        out.push(txstat_xrp::TradeRecord { time, currency: ic, iou_value, drops, maker });
    }
    Ok(out)
}

/// Fetch a 30-day exchange rate from the Data-API-equivalent command.
pub async fn fetch_exchange_rate(
    pool: &Arc<RotatingPool>,
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
    let (v, _) = ndjson_with_retries(pool, cfg, &req).await?;
    let traded = v.pointer("/result/traded").and_then(Value::as_bool).unwrap_or(false);
    if !traded {
        return Ok(None);
    }
    Ok(v.pointer("/result/rate").and_then(Value::as_f64))
}
