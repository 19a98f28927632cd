//! `serve/` benches: the epoch-swapped query service's response path.
//!
//! The criterion arms measure the in-process serving path — cached hit vs
//! uncached render (what an epoch swap costs the first reader of each
//! route) — so the cache win is not drowned in socket noise, plus what the
//! follow loop pays to publish the last (most corpus-laden) epoch of a
//! catch-up. The trailing load section then drives the real HTTP server
//! with a netsim load generator and appends saturation + latency-quantile
//! rows in the same JSON-lines format the criterion shim emits, so
//! `bench_diff` tracks them like any other group.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use txstat_bench::bench_scenario;
use txstat_ingest::EpochCell;
use txstat_netsim::{run_load, spawn_query_server, HttpHandler, LoadPlan, QueryServerConfig};
use txstat_reports::{generate, Follower, ServeSnapshot, StatsService};
use txstat_workload::Scenario;

fn service() -> Arc<StatsService> {
    let data = generate(&bench_scenario());
    let cell = Arc::new(EpochCell::new(Arc::new(ServeSnapshot::new(1, true, data))));
    let service = Arc::new(StatsService::new(cell));
    // Force the sweeps (and the fig2 storage memo) before timing anything.
    black_box(service.respond("GET", "/report"));
    service
}

fn serve(c: &mut Criterion) {
    let service = service();
    let eos_account = {
        let snap = service.snapshot();
        let top = snap.data().sweeps().eos.top_received(1);
        format!("/account/eos/{}", top[0].account.to_string_repr())
    };
    let mut g = c.benchmark_group("serve");
    g.sample_size(20);

    g.bench_function("report_cached", |b| {
        b.iter(|| black_box(service.respond("GET", "/report")))
    });
    g.bench_function("report_uncached", |b| {
        // An epoch swap retires the cache; first reader re-renders.
        b.iter_with_setup(
            || service.snapshot().clear_cache(),
            |_| black_box(service.respond("GET", "/report")),
        )
    });
    g.bench_function("exhibit_fig4_cached", |b| {
        b.iter(|| black_box(service.respond("GET", "/exhibit/fig4")))
    });
    g.bench_function("exhibit_fig4_uncached", |b| {
        b.iter_with_setup(
            || service.snapshot().clear_cache(),
            |_| black_box(service.respond("GET", "/exhibit/fig4")),
        )
    });
    g.bench_function("account_cached", |b| {
        b.iter(|| black_box(service.respond("GET", &eos_account)))
    });
    // One epoch publish with the whole corpus behind it: the last advance
    // of a catch-up in the benchmark's small geometry. The follower lives
    // outside the timed closure so that only `advance` and the drop of the
    // fork it returns are on the clock. The set-up dropped every earlier
    // fork, so this is a reclaimed advance: sweep and finalize the batch,
    // fold the owed delta and the new one into the retired copy — no clone
    // of the state, and dropping the fork frees none (the follower's front
    // shares its sweeps).
    const BATCH: usize = 32;
    let follower = std::cell::RefCell::new(None);
    g.bench_function("epoch_advance_last", |b| {
        b.iter_with_setup(
            || {
                let data = generate(&Scenario::small(42));
                let epochs = data.longest_chain().div_ceil(BATCH);
                let mut f = Follower::new(data, BATCH);
                for _ in 1..epochs {
                    f.advance().expect("catch-up epoch");
                }
                assert!(!f.head(), "one batch must be left");
                *follower.borrow_mut() = Some(f);
            },
            |()| {
                let mut slot = follower.borrow_mut();
                black_box(slot.as_mut().expect("set up").advance().expect("last epoch"))
            },
        )
    });
    g.finish();
}

criterion_group!(benches, serve);

/// Substring filters + `--test`, parsed the same way the criterion shim
/// does, so this section obeys the harness CLI.
fn cli_wants(name: &str) -> bool {
    let mut test_mode = false;
    let mut filters: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" | "--bench" => test_mode = arg == "--test",
            a if a.starts_with('-') => {}
            a => filters.push(a.to_owned()),
        }
    }
    let _ = test_mode;
    filters.is_empty() || filters.iter().any(|f| name.contains(f))
}

fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn append_bench_row(name: &str, ns: f64, samples: u64) {
    println!("bench {name}: {:.1} µs ({samples} samples)", ns / 1_000.0);
    if let Ok(path) = std::env::var("TXSTAT_BENCH_JSON") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            let _ = writeln!(
                f,
                "{{\"name\":\"{name}\",\"median_ns\":{ns:.1},\"min_ns\":{ns:.1},\"mean_ns\":{ns:.1},\"samples\":{samples}}}"
            );
        }
    }
}

/// Drive the real HTTP server to saturation with concurrent keep-alive
/// clients over a mixed query distribution and record throughput + tail
/// latency as bench rows.
fn load_section() {
    if !cli_wants("serve/load") {
        return;
    }
    let service = service();
    let env_usize = |key: &str| std::env::var(key).ok().and_then(|v| v.parse::<usize>().ok());
    let (default_conns, default_reqs) = if test_mode() { (4, 5) } else { (1000, 60) };
    let connections = env_usize("TXSTAT_SERVE_LOAD_CONNS").unwrap_or(default_conns);
    let requests_per_conn = env_usize("TXSTAT_SERVE_LOAD_REQS").unwrap_or(default_reqs);
    let mut paths: Vec<String> = ["headline", "fig1", "fig4", "fig7", "fig8", "comparison"]
        .iter()
        .map(|n| format!("/exhibit/{n}"))
        .collect();
    {
        let snap = service.snapshot();
        let sweeps = snap.data().sweeps();
        let top = sweeps.eos.top_received(1);
        paths.push(format!("/account/eos/{}", top[0].account.to_string_repr()));
        let tz = sweeps.tezos.top_senders(1);
        paths.push(format!("/account/tezos/{}", tz[0].sender));
    }

    let rt = tokio::runtime::Runtime::new().expect("runtime");
    rt.block_on(async move {
        let handler: Arc<dyn HttpHandler> = service.clone();
        let server = spawn_query_server(
            handler,
            QueryServerConfig {
                name: "serve-bench".to_owned(),
                bind: "127.0.0.1:0".to_owned(),
                rate_per_sec: 1_000_000.0,
                burst: 100_000.0,
                max_in_flight: 4096,
            },
        )
        .await
        .expect("spawn server");
        let plan = LoadPlan { connections, requests_per_conn, paths };
        let report = run_load(server.addr, &plan).await;
        assert_eq!(report.errors, 0, "load generator hit transport errors: {report:?}");
        println!(
            "serve load: {} requests over {connections} connections in {:.2?} → {:.0} req/s \
             (ok {}, shed {}; p50 {} µs, p99 {} µs, max {} µs; cache hits {}, misses {})",
            report.sent,
            report.elapsed,
            report.req_per_sec(),
            report.ok,
            report.shed,
            report.p50_us,
            report.p99_us,
            report.max_us,
            service.cache_hits.get(),
            service.cache_misses.get(),
        );
        let done = report.ok + report.shed;
        append_bench_row("serve/load_p50_latency", report.p50_us as f64 * 1_000.0, done);
        append_bench_row("serve/load_p99_latency", report.p99_us as f64 * 1_000.0, done);
        // Saturation throughput, inverted to ns/request so "lower is
        // better" holds for bench_diff like every other row.
        append_bench_row(
            "serve/saturation_ns_per_req",
            1e9 / report.req_per_sec().max(1.0),
            done,
        );
    });
}

fn main() {
    benches();
    load_section();
}
