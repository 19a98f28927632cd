//! Quickstart: generate a small scenario, run the paper's headline
//! analytics, and print the key findings.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use txstat::reports::{generate, PipelineData};
use txstat::workload::Scenario;

fn main() {
    // A 12-day window straddling the EIDOS launch, heavily scaled down.
    let scenario = Scenario::small(42);
    println!(
        "Generating EOS, Tezos and XRP traffic for {} .. {} …",
        scenario.period.start.date_string(),
        scenario.period.end.date_string()
    );
    let data: PipelineData = generate(&scenario);
    // One columnar sweep per chain, computed on first use; every exhibit
    // reads its accessors.
    let sweeps = data.sweeps();

    // Headline 1: most EOS throughput is EIDOS boomerang mining.
    let boomerang = sweeps.eos.boomerang_report();
    println!(
        "EOS: {} boomerang mining transactions; {:.0}% of transfer actions are airdrop legs (paper: 95%)",
        boomerang.boomerang_txs,
        boomerang.transfer_share * 100.0
    );

    // Headline 2: most Tezos throughput is consensus upkeep.
    let (rows, total) = sweeps.tezos.op_distribution();
    let endorsements = rows
        .iter()
        .find(|r| r.kind == txstat::tezos::OperationKind::Endorsement)
        .map(|r| r.count)
        .unwrap_or(0);
    println!(
        "Tezos: {:.0}% of operations are endorsements (paper: 82%)",
        endorsements as f64 * 100.0 / total.max(1) as f64
    );

    // Headline 3: almost no XRP throughput carries value.
    let funnel = sweeps.xrp.funnel();
    println!(
        "XRP: {:.1}% of throughput carries economic value (paper: 2.3%); {:.1}% of transactions failed (paper: 10.7%)",
        funnel.economic_share_pct(),
        funnel.pct(funnel.failed)
    );
}
