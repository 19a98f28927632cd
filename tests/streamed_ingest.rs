//! The streamed crawl pipeline (crawler → bounded channels → sharded
//! sweeps) must produce the *same report* as the materializing crawl
//! pipeline, while provably never holding a full chain in memory on the
//! measurement side.

use txstat::core::{ChainSweeps, EosSweep, TezosSweep, XrpSweep};
use txstat::reports::{
    generate, generate_with_crawl, generate_with_crawl_streamed, render_report, CrawlOptions,
};
use txstat::types::time::{ChainTime, Period};
use txstat::workload::Scenario;

/// The columnar sweep engine (interned accounts, batched classification,
/// two-level sharded counters) must render the *full report* bit-identically
/// to the scalar reference fold (`*Sweep::compute`) over the same blocks.
#[test]
fn columnar_report_is_bit_identical_to_scalar_sweeps() {
    let mut sc = Scenario::small(17);
    sc.period = Period::new(ChainTime::from_ymd(2019, 10, 28), ChainTime::from_ymd(2019, 11, 3));

    // Same dataset twice: one renders through the default (columnar)
    // engine, the other gets the reference fold installed first.
    let columnar = generate(&sc);
    let scalar = generate(&sc);
    let reference = ChainSweeps {
        eos: EosSweep::compute(&scalar.eos_blocks, sc.period),
        tezos: TezosSweep::compute(&scalar.tezos_blocks, sc.period, &scalar.governance_periods),
        xrp: XrpSweep::compute(&scalar.xrp_blocks, sc.period, &scalar.oracle),
    };
    assert!(scalar.install_sweeps(reference), "sweeps must not be computed yet");

    assert_eq!(render_report(&columnar), render_report(&scalar));

    let c_rows = txstat::reports::comparison(&columnar);
    let s_rows = txstat::reports::comparison(&scalar);
    assert_eq!(c_rows.len(), s_rows.len());
    for (c, s) in c_rows.iter().zip(&s_rows) {
        assert_eq!(&c.measured, &s.measured, "{}", c.metric);
        assert_eq!(c.within_band, s.within_band, "{}", c.metric);
    }
}

#[tokio::test]
async fn streamed_crawl_matches_materializing_crawl() {
    let mut sc = Scenario::small(91);
    sc.period = Period::new(ChainTime::from_ymd(2019, 10, 30), ChainTime::from_ymd(2019, 11, 2));
    let opts = CrawlOptions {
        // A capacity far below every chain's block count: the pipeline can
        // only finish by streaming.
        channel_capacity: 8,
        shards: 3,
        ..CrawlOptions::default()
    };

    let streamed = generate_with_crawl_streamed(&sc, &opts).await.expect("streamed pipeline");
    let legacy = generate_with_crawl(&sc, &opts).await.expect("materializing pipeline");

    // The streamed path holds no measurement-side chain copy…
    assert!(streamed.eos_blocks.is_empty());
    assert!(streamed.tezos_blocks.is_empty());
    assert!(streamed.xrp_blocks.is_empty());

    // …and its channels stayed within their bound the whole way through.
    let s = streamed.stream.as_ref().expect("stream summary recorded");
    for (chain, info) in [("eos", &s.eos), ("tezos", &s.tezos), ("xrp", &s.xrp)] {
        assert!(info.streamed_blocks > 0, "{chain}: nothing streamed");
        assert!(
            info.peak_buffered <= opts.channel_capacity as u64,
            "{chain}: buffered {} > capacity {}",
            info.peak_buffered,
            opts.channel_capacity
        );
        // Even all shard channels together could not have materialized the
        // chain.
        assert!(
            ((opts.channel_capacity * info.shards) as u64) < info.streamed_blocks,
            "{chain}: scenario too small to prove streaming"
        );
    }

    // Crawl accounting is identical: same blocks, transactions, wire bytes
    // and compression samples from either path.
    let scrawl = streamed.crawl.as_ref().expect("streamed crawl stats");
    let lcrawl = legacy.crawl.as_ref().expect("legacy crawl stats");
    for (a, b) in [
        (&scrawl.eos, &lcrawl.eos),
        (&scrawl.tezos, &lcrawl.tezos),
        (&scrawl.xrp, &lcrawl.xrp),
    ] {
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.transactions, b.transactions);
        assert_eq!(a.wire_bytes, b.wire_bytes);
        assert_eq!(a.sampled_bytes, b.sampled_bytes);
        assert_eq!(a.sampled_compressed_bytes, b.sampled_compressed_bytes);
    }

    // The rendered report — every figure, table, case study and the
    // paper-vs-measured comparison — is bit-identical.
    assert_eq!(render_report(&streamed), render_report(&legacy));
    let sc_rows = txstat::reports::comparison(&streamed);
    let lc_rows = txstat::reports::comparison(&legacy);
    assert_eq!(sc_rows.len(), lc_rows.len());
    for (a, b) in sc_rows.iter().zip(&lc_rows) {
        assert_eq!(&a.measured, &b.measured, "{}", a.metric);
        assert_eq!(a.within_band, b.within_band, "{}", a.metric);
    }
}
