//! The full RPC measurement path must observe exactly what the chains
//! contain: `generate_with_crawl` keeping its blocks (serve → benchmark →
//! shortlist → crawl and fold → fetch metadata) produces the same analytics
//! dataset as reading the chains directly. Either path counts one
//! generation pass.

use txstat::reports::{generate, generate_with_crawl, CrawlOptions};
use txstat::telemetry::registry;
use txstat::types::time::{ChainTime, Period};
use txstat::workload::Scenario;

/// `txstat_pipeline_generate_total` as the process-global registry
/// exposes it (this test is the only one in its binary).
fn generations() -> u64 {
    let text = registry().render_prometheus();
    text.lines()
        .find_map(|l| l.strip_prefix("txstat_pipeline_generate_total "))
        .map_or(0, |v| v.parse().expect("a count"))
}

#[test]
fn crawl_pipeline_matches_direct_pipeline() {
    let mut sc = Scenario::small(77);
    sc.period = Period::new(ChainTime::from_ymd(2019, 10, 30), ChainTime::from_ymd(2019, 11, 3));
    let before = generations();
    let direct = generate(&sc);
    assert_eq!(generations(), before + 1, "generate counts its pass");
    let crawled = generate_with_crawl(&sc, &CrawlOptions::default(), true).expect("crawl pipeline");
    assert_eq!(generations(), before + 2, "the crawl's serving side builds the chains too");

    // Same blocks, same transactions.
    assert_eq!(direct.eos_blocks.len(), crawled.eos_blocks.len());
    assert_eq!(direct.eos_blocks, crawled.eos_blocks);
    assert_eq!(direct.tezos_blocks.len(), crawled.tezos_blocks.len());
    for (d, c) in direct.tezos_blocks.iter().zip(crawled.tezos_blocks.iter()) {
        assert_eq!(d.level, c.level);
        assert_eq!(d.operations.len(), c.operations.len());
    }
    assert_eq!(direct.xrp_blocks.len(), crawled.xrp_blocks.len());
    for (d, c) in direct.xrp_blocks.iter().zip(crawled.xrp_blocks.iter()) {
        assert_eq!(d.index, c.index);
        assert_eq!(d.transactions, c.transactions);
    }

    // The Figure 7 funnel is identical through either oracle path
    // (from_trades locally, from_rates over RPC).
    let f_direct = direct.sweeps().xrp.funnel();
    let f_crawled = crawled.sweeps().xrp.funnel();
    assert_eq!(f_direct.total, f_crawled.total);
    assert_eq!(f_direct.failed, f_crawled.failed);
    assert_eq!(f_direct.payments_with_value, f_crawled.payments_with_value);
    assert_eq!(f_direct.offers_exchanged, f_crawled.offers_exchanged);

    // Entity clustering from crawled metadata matches the ledger truth.
    assert_eq!(
        direct.cluster.entity(txstat::workload::xrp::BINANCE),
        crawled.cluster.entity(txstat::workload::xrp::BINANCE)
    );
    let bot = txstat::xrp::AccountId(txstat::workload::xrp::BOT_BASE);
    assert_eq!(direct.cluster.entity(bot), crawled.cluster.entity(bot));

    // The bytes the crawler counted off the loopback socket are the wire
    // lengths Figure 2 accounts locally, to the byte. XRP cannot match: its
    // payload is the whole JSON-RPC response envelope (`id`, `status`,
    // `type` around `result`, `XrpRpcHandler::reply` in `netsim::handlers`),
    // not the bare ledger bytes.
    let crawl = crawled.crawl.expect("crawl stats recorded");
    let (eos, tezos, xrp) = direct.storage_stats();
    assert_eq!(crawl.eos.blocks, direct.eos_blocks.len() as u64);
    assert_eq!(crawl.eos.wire_bytes, eos.wire_bytes, "eos");
    assert_eq!(crawl.tezos.wire_bytes, tezos.wire_bytes, "tezos");
    assert!(crawl.xrp.wire_bytes > xrp.wire_bytes, "xrp payloads carry the envelope");
    assert!(crawl.eos.compression_ratio() > 1.5);
}
