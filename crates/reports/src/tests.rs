//! Reports-crate tests: exhibit rendering, pipeline assembly, comparison
//! coverage — on a compact scenario.

use crate::pipeline::generate;
use crate::{comparison, exhibits, render_comparison};
use txstat_types::time::{ChainTime, Period};
use txstat_workload::Scenario;

fn tiny() -> crate::PipelineData {
    let mut sc = Scenario::small(99);
    sc.period = Period::new(
        ChainTime::from_ymd(2019, 10, 28),
        ChainTime::from_ymd(2019, 11, 3),
    );
    generate(&sc)
}

#[test]
fn every_exhibit_renders_nonempty() {
    let data = tiny();
    for (name, text) in [
        ("fig1", exhibits::fig1(&data)),
        ("fig2", exhibits::fig2(&data)),
        ("fig3", exhibits::fig3(&data)),
        ("fig4", exhibits::fig4(&data)),
        ("fig5", exhibits::fig5(&data)),
        ("fig6", exhibits::fig6(&data)),
        ("fig7", exhibits::fig7(&data)),
        ("fig8", exhibits::fig8(&data)),
        ("fig9", exhibits::fig9(&data)),
        ("fig11", exhibits::fig11(&data)),
        ("fig12", exhibits::fig12(&data)),
        ("headline", exhibits::headline(&data)),
        ("case_studies", exhibits::case_studies(&data)),
    ] {
        assert!(text.len() > 80, "{name} renders substantively ({} bytes)", text.len());
        assert!(!text.contains("NaN"), "{name} has no NaN artifacts");
    }
}

#[test]
fn fig1_percentages_sum_to_about_100() {
    let data = tiny();
    let text = exhibits::fig1(&data);
    // Every chain's table ends with a Total row at 100.0.
    assert_eq!(text.matches("100.0").count(), 3, "{text}");
}

#[test]
fn fig6_flags_the_contract_sender() {
    let data = tiny();
    let text = exhibits::fig6(&data);
    assert!(text.contains("implicit"), "{text}");
    // The KT1 faucet is among the top senders in most seeds; when present
    // it must be flagged as a contract.
    if text.contains("KT1") {
        assert!(text.contains("contract"), "{text}");
    }
}

#[test]
fn comparison_covers_every_exhibit_family() {
    let data = tiny();
    let rows = comparison(&data);
    for family in ["Fig 1", "Fig 3a", "Fig 7", "Fig 8", "Fig 11", "Fig 12", "§1", "§3.3", "§4.1", "§4.3"] {
        assert!(
            rows.iter().any(|r| r.exhibit.starts_with(family)),
            "comparison covers {family}"
        );
    }
    let rendered = render_comparison(&rows);
    assert!(rendered.contains("Paper vs measured"));
    assert_eq!(rendered.matches('\n').count(), rows.len() + 3, "one line per row");
}

#[test]
fn local_storage_accounting_is_plausible() {
    let data = tiny();
    let (eos, tezos, xrp) = data.storage_stats();
    assert_eq!(eos.blocks, data.eos_blocks.len() as u64);
    assert_eq!(tezos.blocks, data.tezos_blocks.len() as u64);
    assert_eq!(xrp.blocks, data.xrp_blocks.len() as u64);
    for (name, s) in [("eos", &eos), ("tezos", &tezos), ("xrp", &xrp)] {
        assert!(s.wire_bytes > 0, "{name} bytes");
        assert!(
            s.compression_ratio() > 1.5,
            "{name} JSON compresses: {}",
            s.compression_ratio()
        );
        assert!(s.compressed_bytes_estimate() < s.wire_bytes);
    }
}

#[test]
fn governance_periods_are_contiguous() {
    let data = tiny();
    assert!(!data.governance_periods.is_empty());
    for pair in data.governance_periods.windows(2) {
        assert_eq!(pair[0].1.end, pair[1].1.start, "period windows tile");
    }
    // The first period is the Babylon proposal period opening Jul 17.
    assert_eq!(data.governance_periods[0].1.start, ChainTime::from_ymd(2019, 7, 17));
}

#[test]
fn pipeline_data_is_internally_consistent() {
    let data = tiny();
    // Oracle rates exist for the currencies with DEX trades.
    assert!(data
        .oracle
        .rate(txstat_xrp::IssuedCurrency::new("USD", txstat_workload::xrp::BITSTAMP))
        .is_some());
    // Cluster resolves the cast.
    assert_eq!(
        data.cluster.entity(txstat_workload::xrp::BINANCE).as_deref(),
        Some("Binance")
    );
    // CPU price history aligns with blocks.
    assert_eq!(data.eos_cpu_price.len(), data.eos_blocks.len());
}

#[test]
fn scenario_meta_round_trips_presets_and_rejects_drift() {
    use crate::pipeline::{scenario_from_meta, scenario_meta};
    let sc = txstat_workload::Scenario::small(7);
    let (back, mode) = scenario_from_meta(&scenario_meta(&sc, "small")).expect("preset meta");
    assert_eq!(mode, "small");
    assert_eq!((back.seed, back.period), (sc.seed, sc.period));

    // A customized scenario's meta no longer matches the preset rebuild:
    // reducing its frames against preset chains must be refused.
    let mut custom = txstat_workload::Scenario::small(7);
    custom.xrp_divisor = 2.0;
    let err = scenario_from_meta(&scenario_meta(&custom, "small"));
    assert!(err.is_err(), "customized scenario meta must not reduce as a preset");
}

/// Golden pin for Figure 2 (recorded at the commit before the streaming
/// writers and the array-chain LZSS matcher landed): any drift in the wire
/// serializers or the compressor changes one of these integers.
#[test]
fn figure2_storage_stats_are_pinned_for_small_seed_42() {
    let data = generate(&Scenario::small(42));
    let (eos, tezos, xrp) = data.storage_stats();
    let row = |s: &txstat_crawler::CrawlStats| {
        (s.blocks, s.transactions, s.wire_bytes, s.sampled_bytes, s.sampled_compressed_bytes)
    };
    assert_eq!(row(eos), (576, 2413, 2_204_102, 227_707, 40_958), "eos");
    assert_eq!(row(tezos), (2712, 59_647, 4_992_190, 622_878, 157_592), "tezos");
    assert_eq!(row(xrp), (146, 1557, 415_021, 49_158, 12_939), "xrp");
}
