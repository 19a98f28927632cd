//! The §4.1 EIDOS case study, reproduced end to end: boomerang
//! transactions flood the chain from Nov 1, CPU prices spike, and the
//! network flips into congestion mode — squeezing out thinly-staked users.
//!
//! ```sh
//! cargo run --release --example eos_eidos_airdrop
//! ```

use txstat::core::EosColumnar;
use txstat::types::time::{ChainTime, Period};
use txstat::workload::{eidos_launch, eos::build_eos, Scenario};

fn main() {
    let mut scenario = Scenario::small(7);
    scenario.period = Period::new(
        ChainTime::from_ymd(2019, 10, 28),
        ChainTime::from_ymd(2019, 11, 6),
    );
    println!(
        "Simulating the EIDOS launch window ({} blocks of {}s)…",
        scenario.block_count(scenario.eos_block_secs),
        scenario.eos_block_secs
    );
    let chain = build_eos(&scenario);

    // Daily throughput around the launch.
    let launch = eidos_launch();
    println!("\nTransactions per block (daily means):");
    let mut day_counts: Vec<(String, u64, u64)> = Vec::new();
    for block in chain.blocks() {
        let day = block.time.date_string();
        match day_counts.last_mut() {
            Some((d, txs, blocks)) if *d == day => {
                *txs += block.transactions.len() as u64;
                *blocks += 1;
            }
            _ => day_counts.push((day, block.transactions.len() as u64, 1)),
        }
    }
    for (day, txs, blocks) in &day_counts {
        let marker = if ChainTime::parse_iso(&format!("{day}T00:00:00")).expect("valid") >= launch {
            " ← EIDOS live"
        } else {
            ""
        };
        println!(
            "  {day}: {:>6.1} tx/block{marker}",
            *txs as f64 / *blocks as f64
        );
    }

    // The boomerang detector (measurement side).
    let report = EosColumnar::compute(chain.blocks(), scenario.period).boomerang_report();
    println!(
        "\nBoomerang detector: {} mining transactions, {} boomerangs, hub = {}",
        report.boomerang_txs,
        report.boomerangs,
        report.hub.map(|h| h.to_string_repr()).unwrap_or_default()
    );
    println!(
        "  {:.0}% of all transfer actions are airdrop legs (paper: 95%)",
        report.transfer_share * 100.0
    );

    // The congestion flip: CPU price index before/after.
    let pre_peak = chain
        .cpu_price_history
        .iter()
        .zip(chain.blocks())
        .filter(|(_, b)| b.time < launch)
        .map(|((_, p), _)| *p)
        .fold(0.0f64, f64::max);
    let post_peak = chain
        .cpu_price_history
        .iter()
        .map(|(_, p)| *p)
        .fold(0.0f64, f64::max);
    println!(
        "\nCPU price index: {:.1}× before launch → {:.0}× at peak (paper: ~10,000% spike)",
        pre_peak.max(1.0),
        post_peak
    );
    println!(
        "Congestion mode now: {}; transactions dropped by resource limits: {}",
        chain.state.resources.congested(),
        chain.dropped_txs
    );
}
