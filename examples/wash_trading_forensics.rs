//! The §4.1 WhaleEx forensics, step by step: find the DEX's trade-report
//! actions, measure account concentration, expose the buyer==seller
//! pattern, and confirm that the "trades" never move tokens.
//!
//! ```sh
//! cargo run --release --example wash_trading_forensics
//! ```

use std::collections::HashMap;
use txstat::core::EosColumnar;
use txstat::eos::{ActionData, Name};
use txstat::types::time::{ChainTime, Period};
use txstat::workload::Scenario;

fn main() {
    let mut scenario = Scenario::small(21);
    scenario.period = Period::new(
        ChainTime::from_ymd(2019, 10, 10),
        ChainTime::from_ymd(2019, 10, 24),
    );
    scenario.eos_divisor = 2_000.0;
    println!("Generating two weeks of EOS traffic (WhaleEx active)…");
    let chain = txstat::workload::eos::build_eos(&scenario);

    // Step 1: the detector's aggregate view.
    let report = EosColumnar::compute(chain.blocks(), scenario.period).wash_trading_report();
    println!(
        "\n{} verifytrade2-style trades; {} ({:.0}%) have buyer == seller",
        report.total_trades,
        report.self_trades,
        report.self_trades as f64 * 100.0 / report.total_trades.max(1) as f64
    );
    println!(
        "Top-5 accounts participate in {:.0}% of all trades (paper: >70%):",
        report.top5_participation * 100.0
    );
    for (account, trades, self_share) in &report.top_accounts {
        println!(
            "  {:<12} {:>6} trades  {:>3.0}% self-trades",
            account.to_string_repr(),
            trades,
            self_share * 100.0
        );
    }

    // Step 2: the paper's balance-change check — wash trades move nothing.
    // Net EOS transferred by the top trader vs its reported trade volume.
    let top = report.top_accounts.first().expect("trades exist").0;
    let mut traded_quote: i64 = 0;
    let mut net_transferred: i64 = 0;
    for block in chain.blocks() {
        for tx in &block.transactions {
            for action in &tx.actions {
                match &action.data {
                    ActionData::Trade { buyer, seller, quote_amount, .. }
                        if *buyer == top || *seller == top =>
                    {
                        traded_quote += quote_amount;
                    }
                    ActionData::Transfer { from, to, amount, .. } => {
                        if *from == top {
                            net_transferred -= amount;
                        }
                        if *to == top {
                            net_transferred += amount;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    println!(
        "\nBalance-change check for {}:",
        top.to_string_repr()
    );
    println!("  reported trade volume : {:.4} EOS", traded_quote as f64 / 10_000.0);
    println!("  net tokens transferred: {:.4} EOS", net_transferred as f64 / 10_000.0);
    println!(
        "  → the 'trades' are bookkeeping signals: no assets move (the paper:\n\
         \x20   \"such a transaction is achieving absolutely nothing else than\n\
         \x20   artificially increasing the service statistics, i.e. wash-trading\")"
    );

    // Step 3: the exchange's action mix (Figure 4's whaleextrust row).
    let mut mix: HashMap<Name, u64> = HashMap::new();
    for block in chain.blocks() {
        for tx in &block.transactions {
            for action in &tx.actions {
                if action.contract == Name::new("whaleextrust") {
                    *mix.entry(action.name).or_insert(0) += 1;
                }
            }
        }
    }
    let total: u64 = mix.values().sum();
    let mut rows: Vec<(Name, u64)> = mix.into_iter().collect();
    rows.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    println!("\nwhaleextrust action mix (paper Figure 4):");
    for (name, count) in rows.iter().take(5) {
        println!(
            "  {:<14} {:>5.1}%",
            name.to_string_repr(),
            *count as f64 * 100.0 / total as f64
        );
    }
}
