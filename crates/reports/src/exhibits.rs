//! One renderer per paper exhibit. Every function takes the assembled
//! [`crate::pipeline::PipelineData`] and returns the
//! regenerated table/series as plain text (plus typed rows where callers
//! need them — the paper-vs-measured comparison uses those).
//!
//! Each renderer is a thin adapter over [`PipelineData::sweeps`]: the fused
//! per-chain accumulators computed in one parallel sweep per chain and
//! shared by every figure, so rendering the full report never re-scans the
//! block vectors.

use crate::pipeline::PipelineData;
use txstat_core::eos_analysis as eos;
use txstat_core::xrp_analysis as xrp;
use txstat_telemetry::Span;
use txstat_types::amount::{fmt_pct, fmt_thousands};
use txstat_types::table::{render_series, Align, TextTable};
use txstat_types::time::ChainTime;
use txstat_xrp::amount::IssuedCurrency;
use txstat_xrp::AccountId;

/// Figure 1: distribution of transaction types per blockchain.
pub fn fig1(data: &PipelineData) -> String {
    let mut out = String::from("Figure 1 — Distribution of transaction types per blockchain\n\n");

    let (eos_rows, eos_total) = data.sweeps().eos.action_distribution();
    let mut t = TextTable::new(&["Category", "Action name", "#", "%"])
        .with_title("EOS (actions)")
        .with_aligns(&[Align::Left, Align::Left, Align::Right, Align::Right]);
    for r in &eos_rows {
        t.add_row(vec![
            r.class.label().to_owned(),
            r.action.clone(),
            fmt_thousands(r.count as u128),
            fmt_pct(r.count as u128, eos_total as u128),
        ]);
    }
    t.add_row(vec!["Total".into(), "".into(), fmt_thousands(eos_total as u128), "100.0".into()]);
    out.push_str(&t.render());
    out.push('\n');

    let (tz_rows, tz_total) = data.sweeps().tezos.op_distribution();
    let mut t = TextTable::new(&["Category", "Operation kind", "#", "%"])
        .with_title("Tezos (operations)")
        .with_aligns(&[Align::Left, Align::Left, Align::Right, Align::Right]);
    for r in &tz_rows {
        t.add_row(vec![
            r.class.label().to_owned(),
            r.kind.label().to_owned(),
            fmt_thousands(r.count as u128),
            fmt_pct(r.count as u128, tz_total as u128),
        ]);
    }
    t.add_row(vec!["Total".into(), "".into(), fmt_thousands(tz_total as u128), "100.0".into()]);
    out.push_str(&t.render());
    out.push('\n');

    let (x_rows, x_total) = data.sweeps().xrp.tx_distribution();
    let mut t = TextTable::new(&["Category", "Transaction type", "#", "%"])
        .with_title("XRP (transactions)")
        .with_aligns(&[Align::Left, Align::Left, Align::Right, Align::Right]);
    for r in &x_rows {
        t.add_row(vec![
            r.class.label().to_owned(),
            r.tx_type.wire().to_owned(),
            fmt_thousands(r.count as u128),
            fmt_pct(r.count as u128, x_total as u128),
        ]);
    }
    t.add_row(vec!["Total".into(), "".into(), fmt_thousands(x_total as u128), "100.0".into()]);
    out.push_str(&t.render());
    out
}

fn gb(bytes: u64) -> String {
    format!("{:.3}", bytes as f64 / 1e9)
}

/// Figure 2: dataset characteristics.
pub fn fig2(data: &PipelineData) -> String {
    let (e, t, x) = match &data.crawl {
        Some(c) => (&c.eos, &c.tezos, &c.xrp),
        None => {
            // Memoized: the serialize + LZSS sweep runs once per dataset
            // family, shared across serve-path forks and epoch swaps.
            let s = data.storage_stats();
            (&s.0, &s.1, &s.2)
        }
    };
    let span = |first: Option<ChainTime>, last: Option<ChainTime>| {
        format!(
            "{} .. {}",
            first.map(|t| t.date_string()).unwrap_or_default(),
            last.map(|t| t.date_string()).unwrap_or_default()
        )
    };
    let mut table = TextTable::new(&[
        "Chain", "Sample period", "Block index", "Blocks", "Transactions", "Storage est. (GB, lzss)",
    ])
    .with_title("Figure 2 — Characterizing the datasets (scenario scale)")
    .with_aligns(&[
        Align::Left,
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    // Bounds come through the accessors so the streamed pipeline (which
    // never materializes the block vectors) renders identically.
    let (eos_first, eos_last) = data.eos_bounds();
    let (tz_first, tz_last) = data.tezos_bounds();
    let (x_first, x_last) = data.xrp_bounds();
    table.add_row(vec![
        "EOS".into(),
        span(eos_first.map(|(_, t)| t), eos_last.map(|(_, t)| t)),
        format!(
            "{} .. {}",
            eos_first.map(|(n, _)| n).unwrap_or(0),
            eos_last.map(|(n, _)| n).unwrap_or(0)
        ),
        fmt_thousands(e.blocks as u128),
        fmt_thousands(e.transactions as u128),
        gb(e.compressed_bytes_estimate()),
    ]);
    table.add_row(vec![
        "Tezos".into(),
        span(tz_first.map(|(_, t)| t), tz_last.map(|(_, t)| t)),
        format!(
            "{} .. {}",
            tz_first.map(|(n, _)| n).unwrap_or(0),
            tz_last.map(|(n, _)| n).unwrap_or(0)
        ),
        fmt_thousands(t.blocks as u128),
        fmt_thousands(t.transactions as u128),
        gb(t.compressed_bytes_estimate()),
    ]);
    table.add_row(vec![
        "XRP".into(),
        span(x_first.map(|(_, t)| t), x_last.map(|(_, t)| t)),
        format!(
            "{} .. {}",
            x_first.map(|(n, _)| n).unwrap_or(0),
            x_last.map(|(n, _)| n).unwrap_or(0)
        ),
        fmt_thousands(x.blocks as u128),
        fmt_thousands(x.transactions as u128),
        gb(x.compressed_bytes_estimate()),
    ]);
    let mut out = table.render();
    if let Some(c) = &data.crawl {
        out.push_str(&format!(
            "\nEOS endpoints: {} advertised, {} shortlisted (paper: 32/6). Compression sampled every {} blocks.\n",
            c.eos_advertised,
            c.eos_shortlisted,
            txstat_crawler::stats::COMPRESSION_SAMPLE_EVERY,
        ));
    }
    out
}

/// Figure 3: throughput across time (three sub-figures).
pub fn fig3(data: &PipelineData) -> String {
    let mut out = String::from("Figure 3 — Throughput across time (per 6-hour bucket)\n\n");

    let curated = eos::EosLabels::curated();
    let labels = data.sweeps().eos.labels(100, &|n| curated.get(n));
    let series = data.sweeps().eos.throughput_series(&labels);
    out.push_str("(a) EOS transactions by category\n");
    for cat in series.categories_sorted() {
        let pts: Vec<(String, f64)> = series
            .series_for(&cat)
            .into_iter()
            .map(|(t, c)| (t.date_string(), c as f64))
            .collect();
        out.push_str(&render_series(
            &format!("  {} (total {})", cat.label(), fmt_thousands(series.category_total(&cat) as u128)),
            &pts,
        ));
    }

    let series = data.sweeps().tezos.throughput_series();
    out.push_str("\n(b) Tezos operations by category\n");
    for cat in series.categories_sorted() {
        let pts: Vec<(String, f64)> = series
            .series_for(&cat)
            .into_iter()
            .map(|(t, c)| (t.date_string(), c as f64))
            .collect();
        out.push_str(&render_series(
            &format!("  {} (total {})", cat.label(), fmt_thousands(series.category_total(&cat) as u128)),
            &pts,
        ));
    }

    let series = data.sweeps().xrp.throughput_series();
    out.push_str("\n(c) XRP transactions by category\n");
    for cat in series.categories_sorted() {
        let pts: Vec<(String, f64)> = series
            .series_for(&cat)
            .into_iter()
            .map(|(t, c)| (t.date_string(), c as f64))
            .collect();
        out.push_str(&render_series(
            &format!("  {} (total {})", cat.label(), fmt_thousands(series.category_total(&cat) as u128)),
            &pts,
        ));
    }
    out
}

/// Figure 4: EOS top applications by received transactions.
pub fn fig4(data: &PipelineData) -> String {
    let rows = data.sweeps().eos.top_received(5);
    let mut t = TextTable::new(&["Name", "Tx count", "Top actions (name share%)"])
        .with_title("Figure 4 — EOS top applications by received transactions")
        .with_aligns(&[Align::Left, Align::Right, Align::Left]);
    for r in &rows {
        let total: u64 = r.actions.iter().map(|(_, c)| *c).sum();
        let mix = r
            .actions
            .iter()
            .take(5)
            .map(|(n, c)| format!("{n} {:.1}%", *c as f64 * 100.0 / total.max(1) as f64))
            .collect::<Vec<_>>()
            .join(", ");
        t.add_row(vec![r.account.to_string_repr(), fmt_thousands(r.tx_count as u128), mix]);
    }
    t.render()
}

/// Figure 5: EOS account pairs with the most sent transactions.
pub fn fig5(data: &PipelineData) -> String {
    let rows = data.sweeps().eos.top_senders(5);
    let mut t = TextTable::new(&["Sender", "Sent", "Uniq recv", "Top receivers (share%)"])
        .with_title("Figure 5 — EOS top senders and their receivers")
        .with_aligns(&[Align::Left, Align::Right, Align::Right, Align::Left]);
    let mut cluster_heavy = 0;
    for r in &rows {
        let mix = r
            .receivers
            .iter()
            .take(4)
            .map(|(n, _, share)| format!("{} {:.1}%", n.to_string_repr(), share * 100.0))
            .collect::<Vec<_>>()
            .join(", ");
        // §3.3: "Three out of five of the top senders send a vast majority
        // of their transactions to another of their account" — detect by
        // shared name-prefix entity (betdice*, bluebet*, …).
        let sender_name = r.sender.to_string_repr();
        let prefix: String = sender_name.chars().take(7).collect();
        let cluster_share: f64 = r
            .receivers
            .iter()
            .filter(|(n, ..)| n.to_string_repr().starts_with(&prefix))
            .map(|(_, _, share)| *share)
            .sum();
        if cluster_share > 0.5 {
            cluster_heavy += 1;
        }
        t.add_row(vec![
            r.sender.to_string_repr(),
            fmt_thousands(r.sent_count as u128),
            r.unique_receivers.to_string(),
            mix,
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "{cluster_heavy} of {} top senders direct most actions to their own account cluster\n\
         (on-chain 'RPC calls', §3.3; paper: 3 of 5)\n",
        rows.len()
    ));
    out
}

/// Figure 6: Tezos top senders with receiver-dispersion statistics.
pub fn fig6(data: &PipelineData) -> String {
    let rows = data.sweeps().tezos.top_senders(5);
    let mut t = TextTable::new(&["Sender", "Kind", "Sent", "Uniq recv", "Avg/recv", "Stdev/recv"])
        .with_title("Figure 6 — Tezos accounts with the most sent transactions")
        .with_aligns(&[
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    let mut implicit = 0;
    for r in &rows {
        // §3.3: "4 out of 5 of these accounts are not contracts but regular
        // accounts, which mean that the transactions are most likely
        // automated by an off-chain program."
        let kind = if r.sender.is_implicit() {
            implicit += 1;
            "implicit"
        } else {
            "contract"
        };
        t.add_row(vec![
            r.sender.to_string(),
            kind.to_owned(),
            fmt_thousands(r.sent_count as u128),
            r.unique_receivers.to_string(),
            format!("{:.2}", r.mean_per_receiver),
            format!("{:.2}", r.stdev_per_receiver),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "{} of {} top senders are regular (implicit) accounts — off-chain bots (paper: 4 of 5)\n",
        implicit,
        rows.len()
    ));
    out
}

/// Figure 7: the XRP value funnel.
pub fn fig7(data: &PipelineData) -> String {
    let f = data.sweeps().xrp.funnel();
    let mut out = String::from("Figure 7 — XRP throughput value funnel\n");
    out.push_str(&format!("Total transactions: {}\n", fmt_thousands(f.total as u128)));
    out.push_str(&format!(
        "├─ Failed        {:>6.1}%  ({})\n",
        f.pct(f.failed),
        fmt_thousands(f.failed as u128)
    ));
    out.push_str(&format!("└─ Successful    {:>6.1}%\n", f.pct(f.successful)));
    out.push_str(&format!(
        "   ├─ Payments      {:>6.1}%   with value {:>5.1}%  /  no value {:>5.1}%\n",
        f.pct(f.payments),
        f.pct(f.payments_with_value),
        f.pct(f.payments_no_value)
    ));
    out.push_str(&format!(
        "   ├─ Offers        {:>6.1}%   exchanged  {:>5.2}%  /  no exchange {:>5.1}%\n",
        f.pct(f.offers),
        f.pct(f.offers_exchanged),
        f.pct(f.offers_no_exchange)
    ));
    out.push_str(&format!("   └─ Others        {:>6.1}%\n", f.pct(f.others)));
    out.push_str(&format!(
        "Economic value share: {:.1}%  |  1 in {:.0} successful payments valuable  |  {:.2}% of offers fulfilled\n",
        f.economic_share_pct(),
        f.valuable_payment_ratio(),
        f.offer_fulfillment_pct()
    ));
    out
}

/// Figure 8: most active XRP accounts.
pub fn fig8(data: &PipelineData) -> String {
    let rows = data.sweeps().xrp.most_active(10, &data.cluster);
    let mut t = TextTable::new(&[
        "Account", "Entity", "OfferCreate", "Payment", "Others", "Total", "% of total", "Top tag",
    ])
    .with_title("Figure 8 — Most active accounts on the XRP ledger")
    .with_aligns(&[
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &rows {
        t.add_row(vec![
            r.account.to_string(),
            r.entity.clone().unwrap_or_else(|| "—".into()),
            fmt_thousands(r.offer_creates as u128),
            fmt_thousands(r.payments as u128),
            fmt_thousands(r.others as u128),
            fmt_thousands(r.total as u128),
            format!("{:.1}%", r.share_pct),
            r.top_tag.map(|(tag, _)| tag.to_string()).unwrap_or_else(|| "—".into()),
        ]);
    }
    t.render()
}

/// Figure 9: the Babylon governance vote curves.
pub fn fig9(data: &PipelineData) -> String {
    let curves = data.sweeps().tezos.governance_curves(&data.tezos_rolls);
    let mut out = String::from("Figure 9 — Tezos Babylon on-chain amendment voting\n");
    for pc in &curves {
        if pc.curves.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "\n({}) {} period  {} .. {}  participation {:.1}% of rolls\n",
            pc.kind.label().chars().next().unwrap_or('?'),
            pc.kind.label(),
            pc.window.start.date_string(),
            pc.window.end.date_string(),
            pc.participation_pct
        ));
        for c in &pc.curves {
            let pts: Vec<(String, f64)> = c
                .points
                .iter()
                .map(|(t, v)| (t.date_string(), *v as f64))
                .collect();
            out.push_str(&render_series(
                &format!("  {} (final {} rolls)", c.label, fmt_thousands(c.total() as u128)),
                &pts,
            ));
        }
    }
    let gov_ops = data.sweeps().tezos.governance_op_count();
    out.push_str(&format!(
        "\nGovernance operations inside the observation window: {gov_ops}\n"
    ));
    out
}

/// Figure 11: BTC IOU rates by issuer, and the Myrone rate collapse.
pub fn fig11(data: &PipelineData) -> String {
    let mut out = String::from("Figure 11 — Rates (in XRP) of BTC IOUs\n\n");
    // (a) 30-day average rate per issuer, as of the window end.
    let issuers: Vec<AccountId> = {
        use std::collections::BTreeSet;
        let mut s: BTreeSet<AccountId> = data
            .trades
            .iter()
            .filter(|t| t.currency.currency.as_str() == "BTC")
            .map(|t| t.currency.issuer)
            .collect();
        // Issuers that never traded still appear in the paper's table (rate 0).
        s.insert(txstat_workload::xrp::SPAMMER);
        s.into_iter().collect()
    };
    let rows = xrp::rates_by_issuer(&data.oracle, "BTC", &issuers);
    let mut t = TextTable::new(&["Issuer account", "Entity", "Rate (XRP)"])
        .with_title("(a) Average BTC IOU rate by issuer (30-day window)")
        .with_aligns(&[Align::Left, Align::Left, Align::Right]);
    for (issuer, rate) in &rows {
        t.add_row(vec![
            issuer.to_string(),
            data.cluster.entity_or(*issuer, "not registered"),
            rate.map(|r| format!("{r:.1}")).unwrap_or_else(|| "0".into()),
        ]);
    }
    out.push_str(&t.render());

    // (b) The same-issuer collapse (Myrone's self-dealt exchanges).
    let myrone = IssuedCurrency::new("BTC", txstat_workload::xrp::MYRONE_ISSUER);
    let events = xrp::trade_events(&data.trades, myrone);
    let mut t = TextTable::new(&["Date", "Seller account", "Rate (XRP)"])
        .with_title("\n(b) BTC IOU of one issuer traded at collapsing rates")
        .with_aligns(&[Align::Left, Align::Left, Align::Right]);
    for (time, maker, rate) in &events {
        t.add_row(vec![time.date_string(), maker.to_string(), format!("{rate:.1}")]);
    }
    out.push_str(&t.render());
    out
}

/// Figure 12: value flows on the XRP ledger.
pub fn fig12(data: &PipelineData) -> String {
    let flow = data.sweeps().xrp.value_flow(&data.cluster);
    let mut out = String::from("Figure 12 — Value flow on the XRP ledger (XRP-denominated)\n");
    out.push_str(&format!(
        "Total XRP moved by payments: {} XRP\n\n",
        fmt_thousands(flow.xrp_payment_volume as u128)
    ));
    let mut t = TextTable::new(&["Sender entity", "Volume (XRP)", "Share"])
        .with_title("Top senders")
        .with_aligns(&[Align::Left, Align::Right, Align::Right]);
    let total: f64 = flow.top_senders.iter().map(|(_, v)| v).sum();
    for (e, v) in flow.top_senders.iter().take(11) {
        t.add_row(vec![
            e.clone(),
            fmt_thousands(*v as u128),
            format!("{:.1}%", v * 100.0 / total.max(1.0)),
        ]);
    }
    out.push_str(&t.render());
    let mut t = TextTable::new(&["Receiver entity", "Volume (XRP)", "Share"])
        .with_title("\nTop receivers")
        .with_aligns(&[Align::Left, Align::Right, Align::Right]);
    let rtotal: f64 = flow.top_receivers.iter().map(|(_, v)| v).sum();
    for (e, v) in flow.top_receivers.iter().take(11) {
        t.add_row(vec![
            e.clone(),
            fmt_thousands(*v as u128),
            format!("{:.1}%", v * 100.0 / rtotal.max(1.0)),
        ]);
    }
    out.push_str(&t.render());
    let mut t = TextTable::new(&["Currency", "Nominal moved", "Valuable nominal", "Valuable (XRP)"])
        .with_title("\nCurrencies")
        .with_aligns(&[Align::Left, Align::Right, Align::Right, Align::Right]);
    for (cur, nominal, valuable, xrp_vol) in flow.currencies.iter().take(8) {
        t.add_row(vec![
            cur.clone(),
            fmt_thousands(*nominal as u128),
            fmt_thousands(*valuable as u128),
            fmt_thousands(*xrp_vol as u128),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// The headline findings (abstract/§1): TPS and the three percentages.
pub fn headline(data: &PipelineData) -> String {
    let sweeps = data.sweeps();
    let eos_tps = sweeps.eos.tps();
    let tz_tps = sweeps.tezos.tps();
    let x_tps = sweeps.xrp.tps();
    let boomerang = sweeps.eos.boomerang_report();
    let (tz_rows, tz_total) = sweeps.tezos.op_distribution();
    let endorse = tz_rows
        .iter()
        .find(|r| r.kind == txstat_tezos::OperationKind::Endorsement)
        .map(|r| r.count)
        .unwrap_or(0);
    let funnel = sweeps.xrp.funnel();

    let mut out = String::from("Headline findings (scenario scale; ×divisor ≈ mainnet)\n");
    out.push_str(&format!(
        "TPS: EOS {:.2} (×{} ≈ {:.0} mainnet-equivalent), Tezos {:.4} (×{} ≈ {:.2}), XRP {:.2} (×{} ≈ {:.0})\n",
        eos_tps,
        data.scenario.eos_divisor,
        eos_tps * data.scenario.eos_divisor,
        tz_tps,
        data.scenario.tezos_divisor,
        tz_tps * data.scenario.tezos_divisor,
        x_tps,
        data.scenario.xrp_divisor,
        x_tps * data.scenario.xrp_divisor,
    ));
    out.push_str(&format!(
        "EIDOS boomerang transfers: {:.1}% of transfer actions ({} boomerangs; hub {})\n",
        boomerang.transfer_share * 100.0,
        fmt_thousands(boomerang.boomerangs as u128),
        boomerang.hub.map(|h| h.to_string_repr()).unwrap_or_default()
    ));
    out.push_str(&format!(
        "Tezos endorsements: {} of all operations (paper: 81.7%)\n",
        fmt_pct(endorse as u128, tz_total as u128)
    ));
    out.push_str(&format!(
        "XRP economic value share: {:.1}% of throughput (paper: 2.3%)\n",
        funnel.economic_share_pct()
    ));
    out.push_str(&format!(
        "EOS transactions dropped by congestion control: {}\n",
        fmt_thousands(data.eos_dropped_txs as u128)
    ));
    out
}

/// §4.1 / §4.3 case studies.
pub fn case_studies(data: &PipelineData) -> String {
    let sweeps = data.sweeps();
    let mut out = String::from("Case studies\n\n");

    // WhaleEx wash trading.
    let wash = sweeps.eos.wash_trading_report();
    out.push_str(&format!(
        "§4.1 WhaleEx wash trading: {} trades; top-5 accounts in {:.0}% of trades (paper: >70%)\n",
        fmt_thousands(wash.total_trades as u128),
        wash.top5_participation * 100.0,
    ));
    for (account, trades, self_share) in &wash.top_accounts {
        out.push_str(&format!(
            "    {} — {} trades, {:.0}% self-trades\n",
            account.to_string_repr(),
            fmt_thousands(*trades as u128),
            self_share * 100.0
        ));
    }

    // EIDOS congestion.
    let (before, after) = data.eos_cpu_peaks();
    out.push_str(&format!(
        "\n§4.1 EIDOS congestion: CPU price index peak {:.0}× pre-launch vs {:.0}× post-launch (paper: ~10,000% spike)\n",
        before, after
    ));

    // XRP spam.
    let spikes = sweeps.xrp.payment_spike_buckets(3.0);
    out.push_str(&format!(
        "\n§4.3 XRP payment-spam waves: {} six-hour buckets above 3× the median payment rate\n",
        spikes.len()
    ));
    let spammer = txstat_workload::xrp::SPAMMER;
    out.push_str(&format!(
        "    the spam account {} activated {} child accounts (paper: 5,020 at full scale)\n",
        spammer,
        data.cluster.children_of(spammer)
    ));

    // §3.3 concentration: "the 18 most active accounts are responsible for
    // half of the total traffic".
    let conc = sweeps.xrp.concentration();
    out.push_str(&format!(
        "\n§3.3 XRP account concentration: {} accounts, {:.1} tx each on average;\n\
         \x20   {:.0}% transacted exactly once (paper: ~33%); the {} most active\n\
         \x20   accounts carry half the traffic (paper: 18); Gini {:.2}\n",
        fmt_thousands(conc.accounts as u128),
        conc.mean_txs_per_account,
        conc.single_tx_accounts as f64 * 100.0 / conc.accounts.max(1) as f64,
        conc.half_traffic_accounts,
        conc.gini,
    ));

    // §5-style transaction-graph metrics (Ron & Shamir / Kondor et al. lens).
    let eos_graph = sweeps.eos.graph().report(3);
    let xrp_graph = sweeps.xrp.graph().report(3);
    out.push_str(&format!(
        "\n§5 transfer-graph metrics:\n\
         \x20   EOS: {} nodes, {} transfer edges, out-degree Gini {:.2}; top sink {}\n\
         \x20   XRP: {} nodes, {} payment edges, out-degree Gini {:.2}; {} fan-out outlier(s)\n",
        fmt_thousands(eos_graph.nodes as u128),
        fmt_thousands(eos_graph.unique_edges as u128),
        eos_graph.out_degree_gini,
        eos_graph
            .top_sinks
            .first()
            .map(|(n, _)| n.to_string_repr())
            .unwrap_or_default(),
        fmt_thousands(xrp_graph.nodes as u128),
        fmt_thousands(xrp_graph.unique_edges as u128),
        xrp_graph.out_degree_gini,
        xrp_graph.fanout_outliers.len(),
    ));
    out
}

/// The separator between report sections.
pub const SECTION_BREAK: &str = "\n================================================================\n\n";

/// Renderer signature shared by every row of [`SECTIONS`].
pub type SectionFn = fn(&PipelineData) -> String;

/// Every exhibit section of the report, in render order: `(name, render)`.
/// The names double as the serve path's `/exhibit/<name>` routes, and the
/// report is the concatenation of exactly these strings (each followed by
/// [`SECTION_BREAK`]) — which is what makes a served section byte-identical
/// to the one-shot report by construction.
pub const SECTIONS: &[(&str, SectionFn)] = &[
    ("headline", headline),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig11", fig11),
    ("fig12", fig12),
    ("case_studies", case_studies),
];

/// Render every exhibit section: `(name, text)` in report order.
pub fn report_sections(data: &PipelineData) -> Vec<(&'static str, String)> {
    SECTIONS
        .iter()
        .map(|(name, render)| {
            // Nests whatever the section computes on first use (`sweep`,
            // `fig2_storage`); the trace's depth tells them apart.
            let _span = Span::enter("render", name);
            (*name, render(data))
        })
        .collect()
}

/// Render every exhibit.
pub fn render_all(data: &PipelineData) -> String {
    let mut out = String::new();
    for (_, section) in report_sections(data) {
        out.push_str(&section);
        out.push_str(SECTION_BREAK);
    }
    out
}

/// The paper-vs-measured comparison plus the acceptance-band tally — the
/// report's tail after the exhibit sections. Exposed as its own section so
/// the serve path can answer `/exhibit/comparison` byte-identically.
pub fn comparison_section(data: &PipelineData) -> String {
    let rows = crate::paper::comparison(data);
    let mut out = crate::paper::render_comparison(&rows);
    out.push('\n');
    let misses = rows.iter().filter(|r| !r.within_band).count();
    out.push_str(&format!(
        "{} of {} comparison metrics inside their acceptance bands\n",
        rows.len() - misses,
        rows.len()
    ));
    out
}

/// Render the full report text — shared verbatim by the `report`, `reduce`,
/// `follow`, and `serve` paths, which is what makes their outputs
/// byte-comparable.
pub fn render_report(data: &PipelineData) -> String {
    let mut output = render_all(data);
    output.push_str(&comparison_section(data));
    output
}
