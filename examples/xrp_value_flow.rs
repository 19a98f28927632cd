//! The §4.3 / Figure 7+12 XRP value analysis: how much of the ledger's
//! throughput actually moves value, who moves it, and how IOU rates can be
//! manufactured (the Myrone pump).
//!
//! ```sh
//! cargo run --release --example xrp_value_flow
//! ```

use txstat::core::xrp_analysis;
use txstat::types::time::{ChainTime, Period};
use txstat::workload::Scenario;

fn main() {
    // December window: covers the second spam wave and the Myrone trades.
    let mut scenario = Scenario::small(11);
    scenario.period = Period::new(
        ChainTime::from_ymd(2019, 11, 20),
        ChainTime::from_ymd(2019, 12, 31),
    );
    scenario.xrp_divisor = 4_000.0;
    println!(
        "Generating XRP ledger traffic {} .. {} …",
        scenario.period.start.date_string(),
        scenario.period.end.date_string()
    );
    let data = txstat::reports::generate(&scenario);
    let sweep = &data.sweeps().xrp;

    // Figure 7: the value funnel.
    let funnel = sweep.funnel();
    println!("\nValue funnel over {} transactions:", funnel.total);
    println!("  failed:             {:>5.1}%", funnel.pct(funnel.failed));
    println!("  payments w/ value:  {:>5.1}%", funnel.pct(funnel.payments_with_value));
    println!("  payments no value:  {:>5.1}%", funnel.pct(funnel.payments_no_value));
    println!("  offers exchanged:   {:>5.2}%", funnel.pct(funnel.offers_exchanged));
    println!("  economic share:     {:>5.1}%  (paper: 2.3%)", funnel.economic_share_pct());

    // Figure 12: who moves the value.
    let flow = sweep.value_flow(&data.cluster);
    println!("\nTop value senders (XRP-denominated):");
    for (entity, volume) in flow.top_senders.iter().take(6) {
        println!("  {entity:<28} {volume:>14.0} XRP");
    }

    // Figure 11b: the Myrone BTC IOU rate collapse.
    let myrone = txstat::xrp::IssuedCurrency::new("BTC", txstat::workload::xrp::MYRONE_ISSUER);
    let events = xrp_analysis::trade_events(&data.trades, myrone);
    println!("\nSelf-dealt BTC IOU exchanges (one issuer, §4.3):");
    for (time, seller, rate) in &events {
        println!("  {}  seller {}  rate {:>9.1} XRP", time.date_string(), seller, rate);
    }
    println!(
        "\nA token's 'value' is whatever its owner trades it at with himself —\n\
         which is why the paper only counts tokens with real on-ledger rates."
    );
}
