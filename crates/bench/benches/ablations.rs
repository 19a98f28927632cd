//! Ablation benches on the substrates' design choices: LZSS storage
//! accounting (root README, "Figure 2 methodology"), order-book matching
//! (`txstat_xrp::dex`), resource accounting (`txstat_eos::resources`), name
//! codec, classification throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use txstat_eos::name::Name;
use txstat_eos::types::ActionData;
use txstat_types::amount::SymCode;
use txstat_types::lzss;
use txstat_xrp::amount::{Amount, Asset, IssuedCurrency};
use txstat_xrp::dex::Dex;
use txstat_xrp::AccountId;

fn synthetic_json(len: usize) -> Vec<u8> {
    let mut s = String::with_capacity(len + 128);
    let mut i = 0;
    while s.len() < len {
        s.push_str(&format!(
            r#"{{"block_num":{i},"producer":"eosbp{}","transactions":[{{"account":"eosio.token","name":"transfer","data":{{"from":"usr{}","to":"eidosonecoin","quantity":"0.1000 EOS"}}}}]}}"#,
            i % 21,
            i % 997
        ));
        i += 1;
    }
    s.truncate(len);
    s.into_bytes()
}

fn lzss_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("lzss");
    let payload = synthetic_json(64 * 1024);
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("compress_64k_json", |b| b.iter(|| black_box(lzss::compress(&payload))));
    let compressed = lzss::compress(&payload);
    g.bench_function("decompress_64k_json", |b| {
        b.iter(|| black_box(lzss::decompress(&compressed, payload.len()).expect("valid stream")))
    });
    g.finish();
}

fn name_codec(c: &mut Criterion) {
    let names: Vec<String> = (0..1000)
        .map(|i| txstat_workload::eos::idx_name("bench", i).to_string_repr())
        .collect();
    let mut g = c.benchmark_group("eos_name_codec");
    g.throughput(Throughput::Elements(names.len() as u64));
    g.bench_function("parse_and_render_1k", |b| {
        b.iter(|| {
            for n in &names {
                let parsed = Name::parse(n).expect("valid");
                black_box(parsed.to_string_repr());
            }
        })
    });
    g.finish();
}

fn orderbook_matching(c: &mut Criterion) {
    let usd = Asset::Iou(IssuedCurrency::new("USD", AccountId(1)));
    let funds = |_a: AccountId, _s: Asset| 1_000_000_000i128;
    let mut g = c.benchmark_group("xrp_dex");
    g.throughput(Throughput::Elements(1_000));
    // Resting book of 1,000 offers, then a sweep that crosses 100 of them.
    g.bench_function("build_1k_book_and_sweep", |b| {
        b.iter(|| {
            let mut dex = Dex::new();
            for i in 0..1_000u64 {
                dex.create_offer(
                    AccountId(10 + i),
                    Amount { asset: usd, value: 100 },
                    Amount { asset: Asset::Xrp, value: 500 + (i % 400) as i128 },
                    funds,
                )
                .expect("offer placed");
            }
            let out = dex
                .create_offer(
                    AccountId(5),
                    Amount { asset: Asset::Xrp, value: 100 * 510 },
                    Amount { asset: usd, value: 100 * 100 },
                    funds,
                )
                .expect("sweep");
            black_box(out.fills.len())
        })
    });
    g.finish();
}

fn eos_resource_accounting(c: &mut Criterion) {
    use txstat_eos::resources::{ResourceConfig, ResourceState};
    let mut g = c.benchmark_group("eos_resources");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("charge_cpu_10k", |b| {
        b.iter(|| {
            let mut r = ResourceState::new(ResourceConfig::default());
            let account = Name::new("bencher");
            r.delegate(account, 0, 1_000_000).expect("stake");
            let now = txstat_types::time::ChainTime::from_ymd(2019, 10, 1);
            for i in 0..10_000u64 {
                let _ = r.charge_cpu(account, 50, now + i as i64);
            }
            black_box(r.cpu_used_us(account, now + 10_000))
        })
    });
    g.finish();
}

fn classification_throughput(c: &mut Criterion) {
    use txstat_core::eos_analysis::classify_action;
    let actions: Vec<(Name, ActionData)> = (0..10_000)
        .map(|i| {
            let name = match i % 5 {
                0 => "transfer",
                1 => "bidname",
                2 => "delegatebw",
                3 => "removetask",
                _ => "verifytrade2",
            };
            let data = if i % 5 == 0 {
                ActionData::Transfer {
                    from: Name::new("alice"),
                    to: Name::new("bob"),
                    symbol: SymCode::new("EOS"),
                    amount: 1,
                }
            } else {
                ActionData::Generic
            };
            (Name::new(name), data)
        })
        .collect();
    let mut g = c.benchmark_group("classification");
    g.throughput(Throughput::Elements(actions.len() as u64));
    g.bench_function("classify_10k_actions", |b| {
        b.iter(|| {
            for (name, data) in &actions {
                black_box(classify_action(*name, data));
            }
        })
    });
    g.finish();
}

fn congestion_controller(c: &mut Criterion) {
    use txstat_eos::resources::{ResourceConfig, ResourceState};
    let mut g = c.benchmark_group("eos_congestion");
    // Ablation: how many hot blocks until the elastic limit collapses, per
    // contraction ratio — the §4.1 responsiveness knob.
    for ratio in [0.99f64, 0.97, 0.92] {
        g.bench_function(format!("flip_blocks_ratio_{ratio}"), |b| {
            b.iter(|| {
                let cfg = ResourceConfig { contract_ratio: ratio, ..Default::default() };
                let mut r = ResourceState::new(cfg);
                let mut blocks = 0u32;
                while !r.congested() {
                    r.on_block(10_000_000);
                    blocks += 1;
                }
                black_box(blocks)
            })
        });
    }
    g.finish();
}

fn transfer_graph(c: &mut Criterion) {
    use txstat_core::graph::TransferGraph;
    let mut g = c.benchmark_group("transfer_graph");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("build_10k_edges_and_report", |b| {
        b.iter(|| {
            let mut graph: TransferGraph<u64> = TransferGraph::new();
            for i in 0..10_000u64 {
                graph.record(i % 500, (i * 7) % 900);
            }
            black_box(graph.report(10))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    lzss_benches,
    name_codec,
    orderbook_matching,
    eos_resource_accounting,
    classification_throughput,
    congestion_controller,
    transfer_graph
);
criterion_main!(benches);
