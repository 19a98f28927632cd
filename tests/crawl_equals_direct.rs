//! The full RPC measurement path must observe exactly what the chains
//! contain: `generate_with_crawl` (serve → benchmark → shortlist → crawl →
//! fetch rates/metadata) produces the same analytics dataset as reading the
//! chains directly.

use txstat::reports::{generate, generate_with_crawl, CrawlOptions};
use txstat::types::time::{ChainTime, Period};
use txstat::workload::Scenario;

#[tokio::test]
async fn crawl_pipeline_matches_direct_pipeline() {
    let mut sc = Scenario::small(77);
    sc.period = Period::new(ChainTime::from_ymd(2019, 10, 30), ChainTime::from_ymd(2019, 11, 3));
    let direct = generate(&sc);
    let crawled = generate_with_crawl(&sc, &CrawlOptions::default())
        .await
        .expect("crawl pipeline");

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

    // Crawl accounting exists and is plausible.
    let crawl = crawled.crawl.expect("crawl stats recorded");
    assert_eq!(crawl.eos.blocks, direct.eos_blocks.len() as u64);
    assert!(crawl.eos.wire_bytes > 0);
    assert!(crawl.eos.compression_ratio() > 1.5);
}
