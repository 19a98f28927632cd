//! The §3.1 data-collection pipeline, end to end: spin up a population of
//! EOS block-producer endpoints of mixed quality, benchmark them, shortlist
//! the generous ones (the paper's 6-of-32 selection), crawl the chain in
//! reverse chronological order, and report the Figure 2 storage accounting.
//!
//! ```sh
//! cargo run --release --example crawl_pipeline
//! ```

use std::sync::Arc;
use txstat::crawler::{
    benchmark_endpoints, crawl_eos, eos_head, exchange, shortlist, Advertised, ClientConfig,
    RotatingPool,
};
use txstat::netsim::handlers::EosRpcHandler;
use txstat::netsim::server::spawn_http;
use txstat::netsim::{EndpointProfile, Http, HttpRequest};
use txstat::types::time::{ChainTime, Period};
use txstat::workload::Scenario;

fn main() {
    let mut scenario = Scenario::small(3);
    scenario.period = Period::new(
        ChainTime::from_ymd(2019, 10, 29),
        ChainTime::from_ymd(2019, 11, 3),
    );
    println!("Generating a 5-day EOS chain…");
    let chain = Arc::new(txstat::workload::eos::build_eos(&scenario));
    let handler = Arc::new(EosRpcHandler::new(chain.clone()));

    // 8 advertised endpoints: half generous, half stingy.
    println!("Advertising 8 block-producer endpoints (half of them stingy)…");
    let mut handles = Vec::new();
    for i in 0..8u64 {
        let profile = if i % 2 == 0 {
            EndpointProfile::generous(&format!("bp-{i}"), i)
        } else {
            EndpointProfile::stingy(&format!("bp-{i}"), i)
        };
        handles.push(spawn_http(handler.clone(), profile).expect("endpoint"));
    }
    let advertised: Vec<Advertised> = handles
        .iter()
        .map(|h| Advertised {
            name: h.name.clone(),
            addr: h.addr,
        })
        .collect();

    // Benchmark with a cheap get_info probe — one `exchange` (connect,
    // write, read, under a timeout) per probe — then shortlist.
    let reports = benchmark_endpoints(&advertised, 4, |addr| {
        let started = std::time::Instant::now();
        let probe = HttpRequest::post("/v1/chain/get_info", b"{}".to_vec());
        match exchange::<Http>(addr, &probe, std::time::Duration::from_millis(400)) {
            Ok((r, _)) if r.is_ok() => Ok(started.elapsed()),
            _ => Err(()),
        }
    });
    println!("\nEndpoint benchmark (success rate, mean latency):");
    for r in &reports {
        println!(
            "  {:<6} {:>5.0}%  {:>8.1?}",
            r.name,
            r.success_rate() * 100.0,
            r.mean_latency
        );
    }
    let keep = shortlist(&reports, 3);
    println!(
        "Shortlisted: {:?} (paper: 6 of 32)",
        keep.iter().map(|e| e.name.clone()).collect::<Vec<_>>()
    );

    // Reverse-chronological crawl with 6 workers.
    let pool = RotatingPool::new(keep);
    let cfg = ClientConfig::default();
    let head = eos_head(&pool, &cfg).expect("head");
    let started = std::time::Instant::now();
    let crawl = crawl_eos(&pool, &cfg, chain.config.start_block_num, head, 6).expect("crawl");
    println!(
        "\nCrawled {} blocks / {} transactions in {:?} ({:.0} blocks/s)",
        crawl.stats.blocks,
        crawl.stats.transactions,
        started.elapsed(),
        crawl.stats.blocks as f64 / started.elapsed().as_secs_f64()
    );
    println!(
        "Wire bytes: {}  |  LZSS-compressed estimate: {}  (ratio {:.1}×) — the Figure 2 accounting",
        crawl.stats.wire_bytes,
        crawl.stats.compressed_bytes_estimate(),
        crawl.stats.compression_ratio()
    );
    assert_eq!(crawl.blocks.len(), chain.blocks().len(), "complete crawl");
    println!("Every block decoded identically to the source chain.");
}
