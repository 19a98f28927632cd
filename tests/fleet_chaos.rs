//! Fault-tolerance properties of the socket shard fleet and the
//! reorg-safe follower.
//!
//! - A k-worker fleet reduced **through fault-injecting chaos proxies**
//!   (connection resets, truncated streams, single bit-flips) either
//!   converges to the byte-identical report or fails with a typed
//!   [`FleetError`] naming worker addresses — never a panic, and never a
//!   silently dropped range (coverage is re-validated by the reducer).
//! - A follower hit by a chain reorg invalidates exactly the disagreeing
//!   mark suffix, re-sweeps forward, and lands byte-identical to a
//!   from-scratch sweep of the reorged chain — across random batch sizes,
//!   reorg depths, seeds, and snapshot windows.

use proptest::prelude::*;
use std::net::TcpListener;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use txstat::ingest::{reduce_fleet, serve_assignments, FleetConfig, FleetError};
use txstat::netsim::{spawn_chaos_proxy, ChaosProfile};
use txstat::reports::{
    generate, reduce_frames_labeled_into, render_report, reorg_data, scenario_meta, Follower,
    PipelineData, ShardContext,
};
use txstat::wire::PayloadFormat;
use txstat::workload::Scenario;

fn sc() -> Scenario {
    Scenario::small(7)
}

/// The worker-side chain state, built once and shared by every spawned
/// worker thread (identical to what each separate worker process would
/// derive from the scenario seed).
fn ctx() -> &'static Arc<ShardContext> {
    static CTX: OnceLock<Arc<ShardContext>> = OnceLock::new();
    CTX.get_or_init(|| Arc::new(ShardContext::new(&sc())))
}

/// The read-only dataset reorgs are cut from (sweeps never installed).
fn data0() -> &'static PipelineData {
    static DATA: OnceLock<PipelineData> = OnceLock::new();
    DATA.get_or_init(|| generate(&sc()))
}

/// What one single-process `report` run renders for the scenario.
fn baseline() -> &'static String {
    static BASE: OnceLock<String> = OnceLock::new();
    BASE.get_or_init(|| render_report(&generate(&sc())))
}

/// Spawn one real socket worker on an ephemeral port. The accept loop is
/// detached (it blocks in `accept` forever); the handful of threads a
/// test run leaks just sleep in the kernel until process exit.
fn spawn_worker() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
    let addr = listener.local_addr().expect("worker addr").to_string();
    let ctx = Arc::clone(ctx());
    std::thread::spawn(move || {
        let _ = serve_assignments(&listener, None, Duration::from_millis(800), |a| {
            ctx.frames(a.meta.clone(), a.start, a.end, a.shards, a.payload)
        });
    });
    addr
}

/// The chaos property, swept over a deterministic damage grid (spawning
/// real listeners per proptest case would leak threads by the hundred, so
/// the sweep is bounded by hand): a 3-worker fleet behind per-worker
/// chaos proxies either converges byte-identically or fails typed with
/// worker provenance. The clean case must converge.
#[test]
fn chaotic_fleet_converges_byte_identically_or_fails_typed() {
    let total = ctx().total_blocks();
    let meta = scenario_meta(&sc(), "small");
    let grid: [(f64, f64, f64); 8] = [
        (0.0, 0.0, 0.0),   // clean — must converge
        (0.05, 0.02, 0.02), // the acceptance profile
        (0.15, 0.05, 0.05),
        (0.30, 0.10, 0.10),
        (0.0, 0.25, 0.0),  // truncation-heavy
        (0.0, 0.0, 0.30),  // corruption-heavy
        (0.50, 0.0, 0.0),  // reset-heavy
        (0.10, 0.10, 0.10),
    ];
    let mut converged = 0usize;
    for (i, (fault_rate, truncate_rate, flip_rate)) in grid.into_iter().enumerate() {
        let workers: Vec<String> = (0..3).map(|_| spawn_worker()).collect();
        let proxies: Vec<_> = workers
            .iter()
            .enumerate()
            .map(|(w, upstream)| {
                spawn_chaos_proxy(
                    "127.0.0.1:0",
                    upstream.clone(),
                    ChaosProfile {
                        name: format!("case{i}w{w}"),
                        latency_ms: 0.0,
                        jitter_ms: 0.0,
                        fault_rate,
                        truncate_rate,
                        flip_rate,
                        seed: 0xC0FFEE ^ ((i as u64) << 8) ^ w as u64,
                    },
                )
                .expect("spawn chaos proxy")
            })
            .collect();
        let proxy_addrs: Vec<String> = proxies.iter().map(|p| p.addr.to_string()).collect();
        let mut cfg = FleetConfig::new(proxy_addrs.clone());
        cfg.chunks = 6;
        cfg.timeout = Duration::from_millis(2_000);
        cfg.retries = 3;
        cfg.backoff_ms = 1;
        cfg.seed = i as u64;

        match reduce_fleet(&cfg, total, 2, PayloadFormat::Bin, meta.clone()) {
            Ok(labeled) => {
                // The reducer re-validates overlap + coverage, so an Ok
                // that merges is proof no range was silently dropped.
                let data = reduce_frames_labeled_into(generate(&sc()), &labeled)
                    .unwrap_or_else(|e| panic!("case {i}: fleet Ok but merge failed: {e}"));
                assert_eq!(
                    &render_report(&data),
                    baseline(),
                    "case {i}: fleet report diverged from the single-process report"
                );
                converged += 1;
            }
            Err(FleetError::Exhausted { pending, failures }) => {
                assert!(i != 0, "the clean fleet must not exhaust: {failures:?}");
                assert!(pending > 0, "case {i}: exhausted with nothing pending");
                assert!(
                    failures
                        .iter()
                        .any(|f| proxy_addrs.iter().any(|a| f.contains(a.as_str()))),
                    "case {i}: failures name no worker address: {failures:?}"
                );
            }
            Err(FleetError::NoWorkers) => unreachable!("workers were configured"),
        }
        for p in proxies {
            p.stop();
        }
    }
    assert!(converged >= 1, "no damage level converged — even the clean fleet failed");
}

proptest! {
    /// Reorg-safety: follow the chains to head, rewrite a random-depth
    /// suffix (a reorg), resync, and re-sweep. The follower's final
    /// report must be byte-identical to a from-scratch sweep of the
    /// reorged chains, whether the rollback was suffix-only or (when the
    /// divergence predates the snapshot window) a full rebuild.
    #[test]
    fn reorged_follow_equals_from_scratch(
        batch in 150usize..900,
        depth in 1usize..1200,
        rseed in 1u64..1_000_000,
        window in 2usize..12,
    ) {
        let mut follower = Follower::new(generate(&sc()), batch).with_reorg_guard(window);
        while !follower.head() {
            follower.advance().expect("advance");
        }
        let total = follower.offset();
        let sealed = follower.retained().0;
        prop_assert_eq!(sealed, total.div_ceil(batch), "one mark per batch");

        let from = total.saturating_sub(depth);
        let r = follower.resync(reorg_data(data0(), from, rseed));
        prop_assert_eq!(r.agreed + r.invalidated, sealed, "{:?}", r);
        // Every mark before the one holding `from` still agrees.
        prop_assert_eq!(r.agreed, from / batch, "{:?}", r);
        let (marks, ring) = follower.retained();
        if r.rebuilt {
            // Divergence predated the snapshot window: full reset.
            prop_assert!(r.invalidated >= window || r.agreed == 0, "needless rebuild: {:?}", r);
            prop_assert_eq!((marks, ring, r.resume), (0, 0, 0), "rebuild kept state: {:?}", r);
        } else {
            prop_assert_eq!(marks, r.agreed, "surviving marks != agreed: {:?}", r);
            prop_assert!((1..=window).contains(&ring), "ring of {} entries: {:?}", ring, r);
            prop_assert_eq!(r.resume, r.agreed * batch, "resumes at the divergence: {:?}", r);
        }
        prop_assert_eq!(follower.offset(), r.resume);

        let mut followed = follower.advance().expect("advance");
        while !follower.head() {
            followed = follower.advance().expect("advance");
        }
        prop_assert_eq!(
            render_report(&followed),
            render_report(&reorg_data(data0(), from, rseed)),
            "followed report differs from a from-scratch sweep (from={}, seed={})",
            from,
            rseed
        );
    }
}
