//! Paper-vs-measured comparison: the scale-invariant metrics of every
//! exhibit, with the paper's published value next to our reproduction.
//! Rendered as the tail of every report — that table is the experiments
//! record (root README, "Figure 2 methodology").

use crate::pipeline::PipelineData;
use txstat_core::eos_analysis as eos;
use txstat_types::table::{Align, TextTable};
use txstat_xrp::amount::IssuedCurrency;

/// One comparison row.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    pub exhibit: &'static str,
    pub metric: &'static str,
    pub paper: String,
    pub measured: String,
    /// Whether the measured value lands inside the acceptance band used by
    /// the integration tests (shape reproduction, not exact numerics).
    pub within_band: bool,
}

fn row(
    exhibit: &'static str,
    metric: &'static str,
    paper: impl std::fmt::Display,
    measured: impl std::fmt::Display,
    within_band: bool,
) -> ComparisonRow {
    ComparisonRow {
        exhibit,
        metric,
        paper: paper.to_string(),
        measured: measured.to_string(),
        within_band,
    }
}

/// Compute every comparison row.
pub fn comparison(data: &PipelineData) -> Vec<ComparisonRow> {
    let period = data.scenario.period;
    let sweeps = data.sweeps();
    let mut rows = Vec::new();

    // --- Figure 1 shares ----------------------------------------------------
    let (eos_rows, eos_total) = sweeps.eos.action_distribution();
    let transfer_share = eos_rows
        .iter()
        .filter(|r| r.class == eos::EosActionClass::P2pTransaction)
        .map(|r| r.count)
        .sum::<u64>() as f64
        * 100.0
        / eos_total.max(1) as f64;
    rows.push(row(
        "Fig 1 (EOS)",
        "token transfers, % of actions",
        "91.6%",
        format!("{transfer_share:.1}%"),
        (80.0..=97.0).contains(&transfer_share),
    ));

    let (tz_rows, tz_total) = sweeps.tezos.op_distribution();
    let endorse_share = tz_rows
        .iter()
        .find(|r| r.kind == txstat_tezos::OperationKind::Endorsement)
        .map(|r| r.count)
        .unwrap_or(0) as f64
        * 100.0
        / tz_total.max(1) as f64;
    rows.push(row(
        "Fig 1 (Tezos)",
        "endorsements, % of operations",
        "81.7%",
        format!("{endorse_share:.1}%"),
        (65.0..=92.0).contains(&endorse_share),
    ));

    let (x_rows, x_total) = sweeps.xrp.tx_distribution();
    let share_of = |t: txstat_xrp::TxType| {
        x_rows
            .iter()
            .find(|r| r.tx_type == t)
            .map(|r| r.count)
            .unwrap_or(0) as f64
            * 100.0
            / x_total.max(1) as f64
    };
    let offer_share = share_of(txstat_xrp::TxType::OfferCreate);
    let payment_share = share_of(txstat_xrp::TxType::Payment);
    rows.push(row(
        "Fig 1 (XRP)",
        "OfferCreate, % of transactions",
        "50.4%",
        format!("{offer_share:.1}%"),
        (35.0..=65.0).contains(&offer_share),
    ));
    rows.push(row(
        "Fig 1 (XRP)",
        "Payment, % of transactions",
        "46.2%",
        format!("{payment_share:.1}%"),
        (30.0..=60.0).contains(&payment_share),
    ));

    // --- Headline TPS (normalized back to mainnet scale) ---------------------
    let eos_tps = sweeps.eos.tps() * data.scenario.eos_divisor;
    rows.push(row(
        "§1",
        "EOS TPS (divisor-normalized)",
        "~47 avg (20 'current')",
        format!("{eos_tps:.0}"),
        (20.0..=80.0).contains(&eos_tps),
    ));
    let tz_tps = sweeps.tezos.tps() * data.scenario.tezos_divisor;
    rows.push(row(
        "§1",
        "Tezos payment TPS (normalized)",
        "0.08",
        format!("{tz_tps:.3}"),
        (0.04..=0.16).contains(&tz_tps),
    ));
    let x_tps = sweeps.xrp.tps() * data.scenario.xrp_divisor;
    rows.push(row(
        "§1",
        "XRP TPS (normalized)",
        "19",
        format!("{x_tps:.0}"),
        (10.0..=30.0).contains(&x_tps),
    ));

    // --- Figure 3a spike ------------------------------------------------------
    let launch = txstat_workload::eidos_launch();
    if period.contains(launch) {
        let curated = eos::EosLabels::curated();
        let labels = sweeps.eos.labels(100, &|n| curated.get(n));
        let series = sweeps.eos.throughput_series(&labels);
        let launch_bucket = launch
            .bucket_index(period.start, txstat_types::SIX_HOURS)
            .max(0) as usize;
        let tokens = txstat_eos::AppCategory::Tokens;
        let pre: u64 = (0..launch_bucket.min(series.bucket_count()))
            .map(|i| series.get(i, &tokens))
            .sum();
        let post: u64 = (launch_bucket..series.bucket_count())
            .map(|i| series.get(i, &tokens))
            .sum();
        let pre_rate = pre as f64 / launch_bucket.max(1) as f64;
        let post_rate = post as f64 / (series.bucket_count() - launch_bucket).max(1) as f64;
        let spike = post_rate / pre_rate.max(1e-9);
        rows.push(row(
            "Fig 3a",
            "token-category spike after Nov 1",
            ">10×",
            format!("{spike:.1}×"),
            spike >= 6.0,
        ));
    }

    // --- Figure 7 --------------------------------------------------------------
    let f = sweeps.xrp.funnel();
    rows.push(row(
        "Fig 7",
        "failed transactions, % of total",
        "10.7%",
        format!("{:.1}%", f.pct(f.failed)),
        (5.0..=18.0).contains(&f.pct(f.failed)),
    ));
    rows.push(row(
        "Fig 7",
        "payments with value, % of total",
        "2.1%",
        format!("{:.1}%", f.pct(f.payments_with_value)),
        (0.8..=6.0).contains(&f.pct(f.payments_with_value)),
    ));
    rows.push(row(
        "Fig 7",
        "economic value share of throughput",
        "2.3%",
        format!("{:.1}%", f.economic_share_pct()),
        (0.9..=7.0).contains(&f.economic_share_pct()),
    ));
    rows.push(row(
        "Fig 7 / §3.2",
        "1 valuable payment in N successful",
        "19",
        format!("{:.0}", f.valuable_payment_ratio()),
        (8.0..=40.0).contains(&f.valuable_payment_ratio()),
    ));
    rows.push(row(
        "Fig 7 / §3.2",
        "offers ever fulfilled, % of offers",
        "0.2%",
        format!("{:.2}%", f.offer_fulfillment_pct()),
        (0.02..=1.5).contains(&f.offer_fulfillment_pct()),
    ));

    // --- Figure 8 ----------------------------------------------------------------
    let active = sweeps.xrp.most_active(10, &data.cluster);
    if let Some(top) = active.first() {
        let offer_dom = top.offer_creates as f64 * 100.0 / top.total.max(1) as f64;
        rows.push(row(
            "Fig 8",
            "top account OfferCreate dominance",
            ">98%",
            format!("{offer_dom:.1}%"),
            offer_dom >= 90.0,
        ));
        let top10_share: f64 = active.iter().map(|a| a.share_pct).sum();
        rows.push(row(
            "Fig 8",
            "top-10 accounts, % of throughput",
            "~44%",
            format!("{top10_share:.1}%"),
            (25.0..=60.0).contains(&top10_share),
        ));
        let huobi_desc = active
            .iter()
            .filter(|a| {
                a.entity
                    .as_deref()
                    .map(|e| e.contains("Huobi"))
                    .unwrap_or(false)
            })
            .count();
        rows.push(row(
            "Fig 8 / §3.3",
            "top accounts tied to Huobi",
            "9 of 10",
            format!("{huobi_desc} of {}", active.len()),
            huobi_desc >= 5,
        ));
    }

    // --- §3.3 concentration -------------------------------------------------------
    let conc = sweeps.xrp.concentration();
    rows.push(row(
        "§3.3",
        "accounts carrying half the XRP traffic",
        "18",
        conc.half_traffic_accounts,
        conc.half_traffic_accounts <= 120,
    ));

    // --- Figure 9 -----------------------------------------------------------------
    let curves = sweeps.tezos.governance_curves(&data.tezos_rolls);
    if let Some(exploration) = curves
        .iter()
        .find(|c| c.kind == txstat_tezos::PeriodKind::Exploration && !c.curves.is_empty())
    {
        rows.push(row(
            "Fig 9b",
            "exploration participation (rolls)",
            ">81%",
            format!("{:.1}%", exploration.participation_pct),
            exploration.participation_pct >= 75.0,
        ));
        let nay = exploration
            .curves
            .iter()
            .find(|c| c.label == "nay")
            .map(|c| c.total())
            .unwrap_or(0);
        rows.push(row("Fig 9b", "exploration nay votes", "0", nay, nay == 0));
    }
    if let Some(promotion) = curves
        .iter()
        .find(|c| c.kind == txstat_tezos::PeriodKind::Promotion && !c.curves.is_empty())
    {
        let yay = promotion
            .curves
            .iter()
            .find(|c| c.label == "yay")
            .map(|c| c.total())
            .unwrap_or(0);
        let nay = promotion
            .curves
            .iter()
            .find(|c| c.label == "nay")
            .map(|c| c.total())
            .unwrap_or(0);
        let nay_share = nay as f64 * 100.0 / (yay + nay).max(1) as f64;
        rows.push(row(
            "Fig 9c",
            "promotion nay share of cast votes",
            "15%",
            format!("{nay_share:.1}%"),
            (5.0..=25.0).contains(&nay_share),
        ));
    }

    // --- Figure 11a ------------------------------------------------------------------
    let btc_bitstamp = data
        .oracle
        .rate(IssuedCurrency::new("BTC", txstat_workload::xrp::BITSTAMP));
    rows.push(row(
        "Fig 11a",
        "BTC IOU rate, Bitstamp (XRP)",
        "36,050",
        btc_bitstamp
            .map(|r| format!("{r:.0}"))
            .unwrap_or_else(|| "untraded".into()),
        btc_bitstamp
            .map(|r| (30_000.0..=42_000.0).contains(&r))
            .unwrap_or(false),
    ));
    let btc_spam = data
        .oracle
        .rate(IssuedCurrency::new("BTC", txstat_workload::xrp::SPAMMER));
    rows.push(row(
        "Fig 11a",
        "BTC IOU rate, spam issuer",
        "0",
        btc_spam
            .map(|r| format!("{r:.1}"))
            .unwrap_or_else(|| "untraded (no value)".into()),
        btc_spam.unwrap_or(0.0) == 0.0,
    ));

    // --- Figure 12 -----------------------------------------------------------------------
    let flow = sweeps.xrp.value_flow(&data.cluster);
    let xrp_vol_normalized = flow.xrp_payment_volume * data.scenario.xrp_divisor / 1e9;
    rows.push(row(
        "Fig 12",
        "XRP payment volume (normalized, B)",
        "43",
        format!("{xrp_vol_normalized:.1}"),
        (25.0..=65.0).contains(&xrp_vol_normalized),
    ));
    let binance_sent = flow
        .top_senders
        .iter()
        .find(|(e, _)| e == "Binance")
        .map(|(_, v)| v * data.scenario.xrp_divisor / 1e9)
        .unwrap_or(0.0);
    rows.push(row(
        "Fig 12",
        "Binance sent volume (normalized, B XRP)",
        "5.2",
        format!("{binance_sent:.2}"),
        (3.0..=8.0).contains(&binance_sent),
    ));

    // --- Case studies -----------------------------------------------------------------------
    let wash = sweeps.eos.wash_trading_report();
    rows.push(row(
        "§4.1",
        "trades involving top-5 accounts",
        ">70%",
        format!("{:.0}%", wash.top5_participation * 100.0),
        wash.top5_participation >= 0.55,
    ));
    if !wash.top_accounts.is_empty() {
        // Aggregate self-trade share across the top-5 accounts (stable
        // against count ties at small scales).
        let (selfs, trades): (f64, f64) = wash
            .top_accounts
            .iter()
            .fold((0.0, 0.0), |(s, t), (_, c, share)| {
                (s + share * *c as f64, t + *c as f64)
            });
        let share = selfs / trades.max(1.0);
        rows.push(row(
            "§4.1",
            "top-5 accounts' self-trade share",
            ">85%",
            format!("{:.0}%", share * 100.0),
            share >= 0.55,
        ));
    }
    let boomerang = sweeps.eos.boomerang_report();
    rows.push(row(
        "§4.1 / §6",
        "EIDOS share of transfer actions",
        "95%",
        format!("{:.0}%", boomerang.transfer_share * 100.0),
        boomerang.transfer_share >= 0.75,
    ));
    let gov_ops = sweeps.tezos.governance_op_count() as f64 * data.scenario.tezos_divisor;
    rows.push(row(
        "§4.2",
        "governance ops in window (normalized)",
        "245",
        format!("{gov_ops:.0}"),
        (60.0..=700.0).contains(&gov_ops),
    ));
    let spam_children = data.cluster.children_of(txstat_workload::xrp::SPAMMER) as f64;
    let target = txstat_workload::xrp::spam_children(data.scenario.xrp_divisor) as f64;
    rows.push(row(
        "§4.3",
        "spam children activated (soft-scaled)",
        "5,020 at full scale",
        format!("{spam_children:.0} (design target {target:.0})"),
        (0.8 * target..=1.2 * target).contains(&spam_children) && spam_children >= 24.0,
    ));

    rows
}

/// Render the comparison as a table.
pub(crate) fn render_comparison(rows: &[ComparisonRow]) -> String {
    let mut t = TextTable::new(&["Exhibit", "Metric", "Paper", "Measured", "Band"])
        .with_title("Paper vs measured (shape reproduction at scenario scale)")
        .with_aligns(&[
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Left,
        ]);
    for r in rows {
        t.add_row(vec![
            r.exhibit.to_owned(),
            r.metric.to_owned(),
            r.paper.clone(),
            r.measured.clone(),
            if r.within_band {
                "ok".into()
            } else {
                "MISS".into()
            },
        ]);
    }
    t.render()
}
