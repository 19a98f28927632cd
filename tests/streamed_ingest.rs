//! The crawl folds each block into its chain's sweep as it is fetched, and
//! keeps the blocks only when asked: either way it must produce the *same
//! report*, and the columnar engine must render it bit-identically to the
//! scalar reference fold.

use std::time::Duration;
use txstat::core::{ChainSweeps, EosSweep, TezosSweep, XrpSweep};
use txstat::crawler::CrawlStats;
use txstat::reports::{generate, generate_with_crawl, render_report, CrawlOptions};
use txstat::types::time::{ChainTime, Period};
use txstat::workload::Scenario;

/// The columnar sweep engine (interned accounts, batched classification,
/// two-level sharded counters) must render the *full report* bit-identically
/// to the scalar reference fold (`*Sweep::compute`) over the same blocks.
#[test]
fn columnar_report_is_bit_identical_to_scalar_sweeps() {
    let mut sc = Scenario::small(17);
    sc.period = Period::new(
        ChainTime::from_ymd(2019, 10, 28),
        ChainTime::from_ymd(2019, 11, 3),
    );

    // Same dataset twice: one renders through the default (columnar)
    // engine, the other gets the reference fold installed first.
    let columnar = generate(&sc);
    let scalar = generate(&sc);
    let reference = ChainSweeps {
        eos: EosSweep::compute(&scalar.eos_blocks, sc.period),
        tezos: TezosSweep::compute(&scalar.tezos_blocks, sc.period, &scalar.governance_periods),
        xrp: XrpSweep::compute(&scalar.xrp_blocks, sc.period, &scalar.oracle),
    };
    assert!(
        scalar.install_sweeps(reference),
        "sweeps must not be computed yet"
    );

    assert_eq!(render_report(&columnar), render_report(&scalar));

    let c_rows = txstat::reports::comparison(&columnar);
    let s_rows = txstat::reports::comparison(&scalar);
    assert_eq!(c_rows.len(), s_rows.len());
    for (c, s) in c_rows.iter().zip(&s_rows) {
        assert_eq!(&c.measured, &s.measured, "{}", c.metric);
        assert_eq!(c.within_band, s.within_band, "{}", c.metric);
    }
}

/// The one crawl pipeline folds every block as it is fetched, whether or
/// not it also keeps the blocks: both runs must render the same report
/// from the same crawl accounting. The run that keeps no block holds no
/// measurement-side chain; the one that keeps them holds the chains
/// `generate` builds, in position order.
#[test]
fn streamed_crawl_matches_materializing_crawl() {
    let mut sc = Scenario::small(91);
    sc.period = Period::new(
        ChainTime::from_ymd(2019, 10, 30),
        ChainTime::from_ymd(2019, 11, 2),
    );
    let opts = CrawlOptions::default();

    let streamed = generate_with_crawl(&sc, &opts, false).expect("crawl keeping no block");
    let kept = generate_with_crawl(&sc, &opts, true).expect("crawl keeping its blocks");

    assert!(streamed.eos_blocks.is_empty());
    assert!(streamed.tezos_blocks.is_empty());
    assert!(streamed.xrp_blocks.is_empty());
    assert_eq!(kept.eos_blocks, generate(&sc).eos_blocks);

    // Crawl accounting is identical: same blocks, transactions, wire bytes
    // and compression samples (the wall time aside).
    let timeless = |s: &CrawlStats| CrawlStats {
        elapsed: Duration::ZERO,
        ..s.clone()
    };
    let scrawl = streamed.crawl.as_ref().expect("crawl stats recorded");
    let kcrawl = kept.crawl.as_ref().expect("crawl stats recorded");
    for (chain, a, b) in [
        ("eos", &scrawl.eos, &kcrawl.eos),
        ("tezos", &scrawl.tezos, &kcrawl.tezos),
        ("xrp", &scrawl.xrp, &kcrawl.xrp),
    ] {
        assert!(a.blocks > 0, "{chain}: nothing crawled");
        assert_eq!(timeless(a), timeless(b), "{chain}");
    }

    // The rendered report — every figure, table, case study and the
    // paper-vs-measured comparison — is bit-identical.
    assert_eq!(render_report(&streamed), render_report(&kept));
    let s_rows = txstat::reports::comparison(&streamed);
    let k_rows = txstat::reports::comparison(&kept);
    assert_eq!(s_rows.len(), k_rows.len());
    for (a, b) in s_rows.iter().zip(&k_rows) {
        assert_eq!(&a.measured, &b.measured, "{}", a.metric);
        assert_eq!(a.within_band, b.within_band, "{}", a.metric);
    }
}
