//! # txstat-crawler — the measurement pipeline's data-collection stage
//!
//! Reproduces §3.1 of the paper: benchmark the advertised RPC endpoints,
//! shortlist the generous ones, then fetch every block of the observation
//! window in reverse chronological order with bounded concurrency, retries
//! and endpoint rotation — accounting raw and (LZSS-)compressed bytes for
//! the Figure 2 dataset table.
//!
//! Each thing is said once: [`client::exchange`] is the one request/reply
//! (either framing of `txstat_netsim::framing`), one retry-rotate-backoff
//! loop wraps it ([`client`]), [`chains::crawl_range`] is the one
//! reverse-order range driver under the materializing `crawl_*` and the
//! fold-as-fetched `txstat_reports::generate_with_crawl`, and [`pool`] the
//! one endpoint rotation.

pub mod chains;
pub mod client;
pub mod pool;
pub mod stats;

pub use chains::{
    crawl_eos, crawl_range, eos_head, fetch_account_meta, fetch_eos_block, fetch_exchange_rate,
    fetch_exchanges, fetch_tezos_block, fetch_xrp_ledger, tezos_head, xrp_head, Crawl,
};
pub use client::{exchange, ClientConfig, CrawlError};
pub use pool::{benchmark_endpoints, shortlist, Advertised, RotatingPool};
pub use stats::CrawlStats;

#[cfg(test)]
mod tests {
    use super::chains::{crawl_tezos, crawl_xrp};
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;
    use txstat_netsim::handlers::{EosRpcHandler, TezosRpcHandler, XrpRpcHandler};
    use txstat_netsim::http::HttpRequest;
    use txstat_netsim::Http;
    use txstat_netsim::server::{spawn_http, spawn_ndjson};
    use txstat_netsim::EndpointProfile;
    use txstat_types::time::{ChainTime, Period};
    use txstat_workload::Scenario;

    fn tiny_scenario() -> Scenario {
        // Seed chosen so the 3-day window contains USD@Bitstamp trades
        // (the metadata test depends on at least one).
        let mut sc = Scenario::small(6);
        sc.period = Period::new(
            ChainTime::from_ymd(2019, 10, 30),
            ChainTime::from_ymd(2019, 11, 2),
        );
        sc
    }

    #[tokio::test]
    async fn eos_crawl_roundtrips_every_block() {
        let sc = tiny_scenario();
        let chain = Arc::new(txstat_workload::eos::build_eos(&sc));
        let handler = Arc::new(EosRpcHandler::new(chain.clone()));
        // Three endpoints: two generous, one stingy — shortlist must pick
        // the generous ones (the paper's 6-of-32 selection).
        let mut handles = Vec::new();
        for profile in [
            EndpointProfile::generous("bp-one", 1),
            EndpointProfile::stingy("bp-lame", 2),
            EndpointProfile::generous("bp-two", 3),
        ] {
            handles.push(spawn_http(handler.clone(), profile).await.unwrap());
        }
        let advertised: Vec<Advertised> = handles
            .iter()
            .map(|h| Advertised { name: h.name.clone(), addr: h.addr })
            .collect();

        // Benchmark with a cheap get_info probe.
        let cfg = ClientConfig { request_timeout: Duration::from_secs(2), ..Default::default() };
        let reports = benchmark_endpoints(&advertised, 3, |addr| async move {
            let started = std::time::Instant::now();
            let probe = HttpRequest::post("/v1/chain/get_info", b"{}".to_vec());
            match exchange::<Http>(addr, &probe, Duration::from_millis(500)).await {
                Ok((r, _)) if r.is_ok() => Ok(started.elapsed()),
                _ => Err(()),
            }
        })
        .await;
        let keep = shortlist(&reports, 2);
        assert_eq!(keep.len(), 2);
        assert!(
            keep.iter().all(|e| e.name != "bp-lame"),
            "shortlist avoids the stingy endpoint: {:?}",
            keep.iter().map(|e| &e.name).collect::<Vec<_>>()
        );

        let pool = Arc::new(RotatingPool::new(keep));
        let head = eos_head(&pool, &cfg).await.unwrap();
        assert_eq!(head, chain.head_block_num());
        let low = chain.config.start_block_num;
        let crawl = crawl_eos(pool, cfg, low, head, 4).await.unwrap();
        assert_eq!(crawl.blocks.len(), chain.blocks().len());
        assert_eq!(crawl.stats.blocks, chain.blocks().len() as u64);
        // Every block decodes identically to the source chain.
        for (got, want) in crawl.blocks.iter().zip(chain.blocks()) {
            assert_eq!(got, want);
        }
        assert!(crawl.stats.wire_bytes > 1000);
        assert!(crawl.stats.compressed_bytes_estimate() > 0);
        assert!(
            crawl.stats.compression_ratio() > 2.0,
            "JSON compresses: ratio {}",
            crawl.stats.compression_ratio()
        );
    }

    #[tokio::test]
    async fn tezos_crawl_roundtrips() {
        let mut sc = tiny_scenario();
        sc.tezos_genesis = ChainTime::from_ymd(2019, 10, 29);
        sc.governance_replay = false;
        let chain = Arc::new(txstat_workload::tezos::build_tezos(&sc));
        let handler = Arc::new(TezosRpcHandler::new(chain.clone()));
        let h = spawn_http(handler, EndpointProfile::generous("self-node", 1)).await.unwrap();
        let pool = Arc::new(RotatingPool::new(vec![Advertised {
            name: h.name.clone(),
            addr: h.addr,
        }]));
        let cfg = ClientConfig::default();
        let head = tezos_head(&pool, &cfg).await.unwrap();
        assert_eq!(head, chain.head_level());
        let low = chain.config.start_level;
        let crawl = crawl_tezos(pool, cfg, low, head, 3).await.unwrap();
        assert_eq!(crawl.blocks.len(), chain.blocks().len());
        // Operation multisets survive the wire (pass grouping may reorder).
        for (got, want) in crawl.blocks.iter().zip(chain.blocks()) {
            assert_eq!(got.level, want.level);
            assert_eq!(got.operations.len(), want.operations.len());
        }
        assert_eq!(crawl.stats.transactions, chain.op_count());
    }

    #[tokio::test]
    async fn xrp_crawl_roundtrips_with_metadata() {
        let sc = tiny_scenario();
        let ledger = Arc::new(txstat_workload::xrp::build_xrp(&sc));
        let names: HashMap<_, _> = txstat_workload::xrp::known_usernames()
            .into_iter()
            .map(|(a, n)| (a, n.to_owned()))
            .collect();
        let handler = Arc::new(XrpRpcHandler::new(ledger.clone(), names));
        let h = spawn_ndjson(handler, EndpointProfile::generous("xrp-cluster", 1)).await.unwrap();
        let pool = Arc::new(RotatingPool::new(vec![Advertised {
            name: h.name.clone(),
            addr: h.addr,
        }]));
        let cfg = ClientConfig::default();
        let head = xrp_head(&pool, &cfg).await.unwrap();
        assert_eq!(head, ledger.head_index());
        let low = ledger.config.start_index;
        let crawl = crawl_xrp(pool.clone(), cfg.clone(), low, head, 4).await.unwrap();
        assert_eq!(crawl.blocks.len(), ledger.closed_ledgers().len());
        for (got, want) in crawl.blocks.iter().zip(ledger.closed_ledgers()) {
            assert_eq!(got.index, want.index);
            assert_eq!(got.transactions, want.transactions);
        }

        // Account metadata (XRP Scan substitute).
        let accounts = vec![
            txstat_workload::xrp::BINANCE,
            txstat_xrp::AccountId(txstat_workload::xrp::BOT_BASE),
        ];
        let meta = fetch_account_meta(&pool, &cfg, &accounts).await.unwrap();
        assert_eq!(meta[0].username.as_deref(), Some("Binance"));
        assert_eq!(meta[1].username, None);
        assert_eq!(meta[1].parent, Some(txstat_workload::xrp::HUOBI));

        // Exchange rates (Data API substitute).
        let rate = fetch_exchange_rate(
            &pool,
            &cfg,
            "USD",
            txstat_workload::xrp::BITSTAMP,
            ChainTime::from_ymd(2019, 11, 2),
        )
        .await
        .unwrap();
        assert!(rate.is_some(), "USD@Bitstamp has traded");
        let none = fetch_exchange_rate(
            &pool,
            &cfg,
            "USD",
            txstat_workload::xrp::SHADOW_USD,
            ChainTime::from_ymd(2019, 11, 2),
        )
        .await
        .unwrap();
        assert!(none.is_none(), "shadow issuer never trades");
    }

    #[tokio::test]
    async fn crawl_survives_flaky_endpoints() {
        let sc = tiny_scenario();
        let chain = Arc::new(txstat_workload::eos::build_eos(&sc));
        let handler = Arc::new(EosRpcHandler::new(chain.clone()));
        // One endpoint drops 20% of requests; retries must still complete
        // the crawl.
        let mut p = EndpointProfile::generous("flaky", 9);
        p.fault_rate = 0.2;
        let flaky = spawn_http(handler.clone(), p).await.unwrap();
        let good = spawn_http(handler.clone(), EndpointProfile::generous("good", 10))
            .await
            .unwrap();
        let pool = Arc::new(RotatingPool::new(vec![
            Advertised { name: flaky.name.clone(), addr: flaky.addr },
            Advertised { name: good.name.clone(), addr: good.addr },
        ]));
        let cfg = ClientConfig::default();
        let head = eos_head(&pool, &cfg).await.unwrap();
        let low = head.saturating_sub(30);
        let crawl = crawl_eos(pool, cfg, low, head, 3).await.unwrap();
        assert_eq!(crawl.blocks.len(), 31);
    }

    #[tokio::test]
    async fn ndjson_retry_on_slowdown() {
        // A very tight NDJSON endpoint: bursts pass, then slowDown; the
        // retry loop must still finish a short crawl.
        let sc = tiny_scenario();
        let ledger = Arc::new(txstat_workload::xrp::build_xrp(&sc));
        let handler = Arc::new(XrpRpcHandler::new(ledger.clone(), HashMap::new()));
        let mut p = EndpointProfile::generous("tight", 11);
        p.rate_limit_per_sec = 50.0;
        p.burst = 5.0;
        let h = spawn_ndjson(handler, p).await.unwrap();
        let pool = Arc::new(RotatingPool::new(vec![Advertised {
            name: h.name.clone(),
            addr: h.addr,
        }]));
        let cfg = ClientConfig {
            max_retries: 20,
            backoff: Duration::from_millis(25),
            ..Default::default()
        };
        let head = xrp_head(&pool, &cfg).await.unwrap();
        let crawl = crawl_xrp(pool, cfg, head.saturating_sub(9), head, 2).await.unwrap();
        assert_eq!(crawl.blocks.len(), 10);
    }
}
