//! The §4.2 / Figure 9 Tezos governance case study: replaying the Babylon
//! amendment through all four voting periods and rebuilding the paper's
//! vote curves from on-chain operations.
//!
//! ```sh
//! cargo run --release --example tezos_governance
//! ```

use std::collections::HashMap;
use txstat::core::TezosColumnar;
use txstat::types::time::{ChainTime, Period};
use txstat::workload::{tezos::build_tezos, Scenario};

fn main() {
    let mut scenario = Scenario::small(5);
    // Cover the whole governance saga (Jul 17 – Oct 17) plus the window.
    scenario.period = Period::new(
        ChainTime::from_ymd(2019, 10, 1),
        ChainTime::from_ymd(2019, 10, 20),
    );
    println!("Replaying the Babylon amendment (proposal opened Jul 17, 2019)…");
    let chain = build_tezos(&scenario);

    let rolls: HashMap<_, _> = chain
        .bakers()
        .iter()
        .map(|b| (b.address, b.staked_mutez / chain.config.roll_size_mutez))
        .collect();
    // Period windows from the chain's governance history.
    let plen = chain.config.governance.period_blocks as i64 * chain.config.block_interval_secs;
    let mut start = chain.config.genesis_time;
    let mut periods = Vec::new();
    for result in &chain.governance.history {
        periods.push((result.kind, Period::new(start, start + plen)));
        start += plen;
    }

    // The vote curves depend on the governance windows alone; the sweep's
    // observation window only bounds its other statistics.
    let curves = TezosColumnar::compute(chain.blocks(), scenario.period, &periods)
        .governance_curves(&rolls);
    for pc in &curves {
        if pc.curves.is_empty() {
            continue;
        }
        println!(
            "\n{} period ({} .. {}), participation {:.1}% of rolls:",
            pc.kind.label(),
            pc.window.start.date_string(),
            pc.window.end.date_string(),
            pc.participation_pct
        );
        for curve in &pc.curves {
            println!("  {:<14} {:>8} rolls", curve.label, curve.total());
        }
    }

    println!("\nProtocols activated: {:?}", chain.governance.activated);
    println!(
        "Governance operations are {:.2}% of all operations — rare, but they\n\
         steer the whole protocol (the paper: 245 ops in three months).",
        100.0 * chain
            .blocks()
            .iter()
            .flat_map(|b| &b.operations)
            .filter(|o| matches!(
                o.kind(),
                txstat::tezos::OperationKind::Ballot | txstat::tezos::OperationKind::Proposals
            ))
            .count() as f64
            / chain.op_count().max(1) as f64
    );
}
