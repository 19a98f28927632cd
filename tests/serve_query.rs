//! Tier-1 integration tests for the epoch-swapped stats-serving layer:
//! byte-identity with the one-shot report (at the head and at every
//! intermediate epoch of the delta-folding follower, with and without its
//! reorg guard, before and after a resync, whichever mix of reclaimed and
//! cloned copies of its left-right pair produced the epoch), torn-read-free
//! epoch swaps under concurrent readers that hold retired snapshots, cache
//! invalidation on swap, and 429 load-shedding at the HTTP admission layer.

use std::sync::Arc;
use std::sync::atomic::Ordering;
use txstat::core::{ChainSweeps, EosColumnar, TezosColumnar, XrpColumnar};
use txstat::ingest::{EpochCell, IngestError};
use txstat::netsim::{run_load, spawn_query_server, HttpHandler, LoadPlan, QueryServerConfig};
use txstat::reports::{
    comparison_section, generate, render_report, reorg_data, report_sections,
    sample_account_paths, Follower, PipelineData, ServeSnapshot, StatsService,
};
use txstat::workload::Scenario;

fn service_over(data: PipelineData, head: bool) -> (Arc<StatsService>, Arc<EpochCell<ServeSnapshot>>) {
    let cell = Arc::new(EpochCell::new(Arc::new(ServeSnapshot::new(1, head, data))));
    (Arc::new(StatsService::new(cell.clone())), cell)
}

/// The dataset a one-shot sweep of the first `(eos, tezos, xrp)` blocks of
/// `base` renders from — the oracle for an epoch of that coverage.
fn one_shot_prefix(base: &PipelineData, (e, t, x): (u64, u64, u64)) -> PipelineData {
    let period = base.scenario.period;
    base.fork_with_sweeps(ChainSweeps {
        eos: EosColumnar::compute(&base.eos_blocks[..e as usize], period),
        tezos: TezosColumnar::compute(
            &base.tezos_blocks[..t as usize],
            period,
            &base.governance_periods,
        ),
        xrp: XrpColumnar::compute(&base.xrp_blocks[..x as usize], period, &base.oracle),
    })
}

/// Every exhibit section plus the busiest account of each chain (as the
/// oracle sees it) must be the same bytes from both datasets. Returns the
/// service over `got`: holding it pins that dataset's sweeps like a slow
/// reader would.
fn assert_serves_identically(
    got: PipelineData,
    oracle: PipelineData,
    what: &str,
) -> Arc<StatsService> {
    assert_eq!(report_sections(&got), report_sections(&oracle), "{what}: sections diverged");
    let paths = sample_account_paths(&oracle);
    let (got, _) = service_over(got, false);
    let (oracle, _) = service_over(oracle, false);
    for path in paths {
        let want = oracle.respond("GET", &path);
        assert_eq!(want.status, 200, "{what}: oracle lacks {path}");
        assert_eq!(got.respond("GET", &path).body, want.body, "{what}: {path} diverged");
    }
    got
}

/// Keep every k-th block of each chain so that none is longer than `cap`:
/// a corpus that still spans the whole window (block numbers stay
/// ascending) but is short enough to publish an epoch per block.
fn thinned(mut data: PipelineData, cap: usize) -> PipelineData {
    fn every_kth<B: Clone>(blocks: &[B], cap: usize) -> Arc<Vec<B>> {
        Arc::new(blocks.iter().step_by(blocks.len().div_ceil(cap).max(1)).cloned().collect())
    }
    data.eos_blocks = every_kth(&data.eos_blocks, cap);
    data.tezos_blocks = every_kth(&data.tezos_blocks, cap);
    data.xrp_blocks = every_kth(&data.xrp_blocks, cap);
    data
}

/// Follow on to the head, holding every epoch's fork — not only the last —
/// against the one-shot sweep of its coverage. Every epoch before the head
/// must cover more blocks than the one before it. Returns the epochs
/// published.
///
/// `(every, hold)` pins forks the way slow readers do: every `every`-th
/// epoch's (none for 0) stays alive until `hold` further epochs have been
/// published. A fork still held two epochs on is the copy the follower
/// would have reclaimed: it has to clone instead, and publish the same bytes.
fn assert_every_epoch_is_one_shot(
    follower: &mut Follower,
    what: &str,
    (every, hold): (usize, usize),
) -> usize {
    let mut epochs = 0usize;
    let mut pinned = Vec::new();
    while !follower.head() {
        let (e, t, x) = follower.observed();
        epochs += 1;
        pinned.retain(|(until, _)| *until > epochs);
        let fork = follower.advance().expect("advance");
        // The short chains run out first: their tails are empty from then
        // on and their coverage stays at their head.
        let at = follower.observed();
        assert!(at.0 + at.1 + at.2 > e + t + x, "{what} epoch {epochs} observed nothing new");
        let served = assert_serves_identically(
            fork,
            one_shot_prefix(follower.base(), at),
            &format!("{what} epoch {epochs} at {at:?}"),
        );
        if every > 0 && epochs.is_multiple_of(every) {
            pinned.push((epochs + hold + 1, served));
        }
    }
    epochs
}

/// [`assert_every_epoch_is_one_shot`] from the first block, in as many
/// epochs as the longest of the held chains takes at `batch`.
fn assert_following_is_one_shot(data: PipelineData, batch: usize, what: &str) {
    let longest = data.eos_blocks.len().max(data.tezos_blocks.len()).max(data.xrp_blocks.len());
    let what = format!("{what} batch {batch}");
    let mut follower = Follower::new(data, batch);
    let epochs = assert_every_epoch_is_one_shot(&mut follower, &what, (0, 0));
    assert_eq!(epochs, longest.div_ceil(batch), "{what}");
    // Nobody held a fork past its epoch: only the first one had no retired
    // copy to fold into.
    assert_eq!(follower.snapshots(), (epochs as u64 - 1, 1), "{what}");
}

#[test]
fn every_epoch_equals_the_one_shot_sweep_of_its_prefix() {
    for seed in [1, 7, 42] {
        let sc = Scenario::small(seed);
        let total = generate(&sc).longest_chain();
        for batch in [32, total] {
            assert_following_is_one_shot(generate(&sc), batch, &format!("seed {seed}"));
        }
        // An epoch per block (and per seven) over the whole corpus would
        // render it thousands of times; the thinned corpus (≈ 194 and 28
        // epochs) has the same shape — three chains of unequal length
        // across the whole window.
        for batch in [1, 7] {
            let data = thinned(generate(&sc), 200);
            assert_following_is_one_shot(data, batch, &format!("seed {seed} thinned"));
        }
    }
}

proptest::proptest! {
    /// Whichever forks readers pin, and for however long, every epoch is
    /// the one-shot sweep of its prefix — and the follower cloned exactly
    /// where a pinned fork was the copy it would have reclaimed.
    #[test]
    fn every_epoch_is_one_shot_whichever_forks_are_pinned(
        every in 0usize..4,
        hold in 0usize..5,
        batch in 1usize..4,
    ) {
        let data = thinned(generate(&Scenario::small(7)), 12);
        let mut follower = Follower::new(data, batch);
        let what = format!("pin every {every} for {hold}, batch {batch}");
        let epochs = assert_every_epoch_is_one_shot(&mut follower, &what, (every, hold));
        // Epoch n folds into epoch n - 2's copy unless that fork is held.
        let held = if every > 0 && hold >= 2 { (epochs - 2) / every } else { 0 };
        let cloned = 1 + held as u64;
        let want = (epochs as u64 - cloned, cloned);
        proptest::prop_assert_eq!(follower.snapshots(), want, "{}", what);
    }
}

/// Marks and ring are written beside the fold, never read by it: every
/// epoch of a guarded follower serves the bytes of an unguarded one's —
/// although the ring pins every snapshot it published, so the guarded one
/// clones where the unguarded one reclaims.
#[test]
fn a_guarded_follower_publishes_the_epochs_of_an_unguarded_one() {
    let sc = Scenario::small(7);
    let mut plain = Follower::new(generate(&sc), 400);
    let mut guarded = Follower::new(generate(&sc), 400).with_reorg_guard(3);
    let mut epochs = 0;
    while !plain.head() {
        epochs += 1;
        let (want, got) = (plain.advance().expect("plain"), guarded.advance().expect("guarded"));
        assert_serves_identically(got, want, &format!("guarded epoch {epochs}"));
    }
    assert!(guarded.head());
    assert_eq!(guarded.retained(), (epochs, 3), "one mark per batch, a window of snapshots");
    assert_eq!(plain.retained(), (0, 0));
    assert_eq!(plain.snapshots(), (epochs as u64 - 1, 1));
    // The one copy the guarded follower reclaims is the empty state it
    // started from, which was never published.
    assert_eq!(guarded.snapshots(), (1, epochs as u64 - 1));
}

/// After a reorg is resynced, every epoch the follower goes on to publish
/// is the one-shot sweep of the *reorged* chains' prefix — whether the
/// rollback restored a snapshot or rebuilt from empty sweeps.
#[test]
fn every_epoch_after_a_resync_is_the_one_shot_sweep_of_the_reorged_prefix() {
    let sc = Scenario::small(7);
    for (window, rebuilt) in [(8, false), (1, true)] {
        let mut follower = Follower::new(generate(&sc), 400).with_reorg_guard(window);
        for _ in 0..3 {
            follower.advance().expect("advance");
        }
        let r = follower.resync(reorg_data(follower.base(), 700, 11));
        assert_eq!((r.invalidated, r.rebuilt), (2, rebuilt), "{r:?}");
        assert_eq!(follower.offset(), r.resume);
        let what = format!("window {window} after resync");
        let left = follower.base().longest_chain() - r.resume;
        let epochs = assert_every_epoch_is_one_shot(&mut follower, &what, (0, 0));
        assert_eq!(epochs, left.div_ceil(400));
    }
}

#[test]
fn advancing_past_the_head_republishes_the_standing_sweeps() {
    let data = generate(&Scenario::small(7));
    let total = data.longest_chain();
    let mut follower = Follower::new(data, total.div_ceil(3));
    while !follower.head() {
        follower.advance().expect("advance");
    }
    let at_head = follower.observed();
    // Twice: once from each copy of the follower's pair.
    for _ in 0..2 {
        let again = follower.advance().expect("advance at head");
        assert!(follower.head());
        assert_eq!(follower.observed(), at_head, "nothing left to observe");
        assert_serves_identically(again, generate(&Scenario::small(7)), "past the head");
    }
}

#[test]
fn a_block_at_or_below_the_high_water_mark_is_rejected_not_double_counted() {
    let sc = Scenario::small(7);
    let clean = generate(&sc);
    let replayed = clean.eos_blocks[4].clone();
    let high = clean.eos_blocks[9].num;

    // The replayed block opens the second batch…
    let mut data = generate(&sc);
    let mut blocks = clean.eos_blocks[..10].to_vec();
    blocks.push(replayed.clone());
    data.eos_blocks = Arc::new(blocks);
    let mut follower = Follower::new(data, 10);
    follower.advance().expect("first batch is ascending");
    let observed = follower.observed();
    match follower.advance() {
        Err(IngestError::RangeRegression { n, high: h }) => {
            assert_eq!((n, h), (replayed.num, high));
        }
        other => panic!("expected RangeRegression, got {:?}", other.map(|_| "a fork")),
    }
    // …and the follower still stands at the first epoch, on every chain.
    assert_eq!(follower.observed(), observed);

    // …or sits inside one batch, behind the block it repeats.
    let mut data = generate(&sc);
    let mut blocks = clean.eos_blocks[..5].to_vec();
    blocks.push(replayed);
    data.eos_blocks = Arc::new(blocks);
    let mut follower = Follower::new(data, 10);
    assert!(matches!(follower.advance(), Err(IngestError::RangeRegression { .. })));
    assert_eq!(follower.observed(), (0, 0, 0));
}

#[test]
fn served_exhibits_are_byte_identical_to_report_sections() {
    let sc = Scenario::small(99);
    // Two independent generations of the same scenario: what the service
    // serves must equal what the one-shot pipeline renders.
    let (service, _cell) = service_over(generate(&sc), true);
    let oracle = generate(&sc);

    for (name, body) in report_sections(&oracle) {
        let resp = service.respond("GET", &format!("/exhibit/{name}"));
        assert_eq!(resp.status, 200, "/exhibit/{name}");
        assert_eq!(resp.body, body.as_bytes(), "/exhibit/{name} body diverged");
    }
    let resp = service.respond("GET", "/exhibit/comparison");
    assert_eq!(resp.body, comparison_section(&oracle).as_bytes());
    let resp = service.respond("GET", "/report");
    assert_eq!(resp.body, render_report(&oracle).as_bytes(), "/report body diverged");

    // Unknown routes 404 and are never cached.
    for path in ["/exhibit/nope", "/account/eos/zzzzznothere", "/account/nochain/x", "/nope"] {
        assert_eq!(service.respond("GET", path).status, 404, "{path}");
    }

    // The busiest account of each chain answers with a JSON object.
    let sweeps = oracle.sweeps();
    let eos = sweeps.eos.top_received(1)[0].account.to_string_repr();
    let resp = service.respond("GET", &format!("/account/eos/{eos}"));
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).expect("utf8 account body");
    assert!(text.contains("\"chain\":\"eos\"") && text.contains("\"received_txs\""), "{text}");
    let tz = sweeps.tezos.top_senders(1)[0].sender.to_string();
    assert_eq!(service.respond("GET", &format!("/account/tezos/{tz}")).status, 200);
    let xrp = sweeps.xrp.most_active(1, &oracle.cluster)[0].account.to_string();
    assert_eq!(service.respond("GET", &format!("/account/xrp/{xrp}")).status, 200);
}

/// Readers load from the cell while the follower publishes into it, and
/// hold each snapshot across one swap or two: held across two, the retired
/// snapshot is exactly the copy the follower wants back. It must never be
/// folded into while a reader can still see it — the follower clones
/// instead — and no response may mix epochs.
#[test]
fn epoch_swap_is_never_torn_under_concurrent_readers() {
    use std::sync::atomic::{AtomicBool, AtomicU64};

    fn headline(data: &PipelineData) -> Vec<u8> {
        let sections = report_sections(data);
        sections.into_iter().find(|(n, _)| *n == "headline").expect("headline section").1.into()
    }
    let sc = Scenario::small(7);
    let batch = generate(&sc).longest_chain().div_ceil(6);

    // What each epoch serves, from a follower nobody reads from: a reader
    // must only ever observe one of these exact bodies.
    let mut unread = Follower::new(generate(&sc), batch);
    let mut allowed = Vec::new();
    while !unread.head() {
        allowed.push(headline(&unread.advance().expect("advance")));
    }
    assert!(allowed.len() >= 4, "want >=3 epoch swaps, got {}", allowed.len());

    let mut follower = Follower::new(generate(&sc), batch);
    let first = follower.advance().expect("first epoch");
    let (service, cell) = service_over(first, false);
    // Every reader holds epoch 1 before the first swap.
    let ready = std::sync::Barrier::new(5);
    // The newest epoch some reader holds a snapshot of.
    let holding = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for swaps_held in [1, 1, 2, 2] {
            let (service, cell, allowed) = (&service, &cell, &allowed);
            let (ready, holding, done) = (&ready, &holding, &done);
            scope.spawn(move || {
                let mut held = service.snapshot();
                ready.wait();
                loop {
                    let epoch = held.epoch();
                    holding.fetch_max(epoch, Ordering::AcqRel);
                    let resp = service.respond("GET", "/exhibit/headline");
                    assert_eq!(resp.status, 200);
                    assert!(
                        allowed.contains(&resp.body),
                        "served body matches no published epoch (torn read?)"
                    );
                    while cell.epoch() < epoch + swaps_held && !done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    // Swapped out, and advanced past: it still renders its
                    // own epoch.
                    assert!(
                        headline(held.data()) == allowed[epoch as usize - 1],
                        "retired epoch {epoch} changed under its reader"
                    );
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    held = service.snapshot();
                    assert!(held.epoch() >= epoch, "epoch went backwards");
                }
            });
        }
        ready.wait();
        let mut epoch = 1u64;
        while !follower.head() {
            // Swap only snapshots that are being read.
            while holding.load(Ordering::Acquire) < epoch {
                std::thread::yield_now();
            }
            let fork = follower.advance().expect("advance");
            epoch += 1;
            cell.publish(Arc::new(ServeSnapshot::new(epoch, follower.head(), fork)));
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(cell.epoch(), allowed.len() as u64);
    let (reclaimed, cloned) = follower.snapshots();
    assert_eq!(reclaimed + cloned, allowed.len() as u64);
    // Epoch 3 wanted epoch 1's copy, which two readers held across two swaps.
    assert!(cloned >= 2 && reclaimed >= 1, "reclaimed {reclaimed}, cloned {cloned}");
}

#[test]
fn response_cache_is_invalidated_by_epoch_swap() {
    let sc = Scenario::small(7);
    let data = generate(&sc);
    let total = data.longest_chain();
    let mut follower = Follower::new(data, total.div_ceil(2).max(1));
    let first = follower.advance().expect("first epoch");
    let (service, cell) = service_over(first, false);

    let a1 = service.respond("GET", "/exhibit/headline");
    let a2 = service.respond("GET", "/exhibit/headline");
    assert_eq!(a1.body, a2.body);
    assert_eq!(service.cache_misses.get(), 1, "first read renders");
    assert_eq!(service.cache_hits.get(), 1, "second read is cached");
    assert_eq!(service.snapshot().cached_responses(), 1);

    let second = follower.advance().expect("second epoch");
    cell.publish(Arc::new(ServeSnapshot::new(2, follower.head(), second)));

    // Fresh snapshot, fresh cache: the same path misses again and serves
    // the new epoch's (different) statistics.
    assert_eq!(service.snapshot().cached_responses(), 0, "swap empties the cache");
    let b1 = service.respond("GET", "/exhibit/headline");
    assert_eq!(service.cache_misses.get(), 2);
    assert_ne!(a1.body, b1.body, "new epoch must serve new statistics");
}

#[test]
fn admission_sheds_excess_load_with_429s_and_keeps_serving() {
    let (service, _cell) = service_over(generate(&Scenario::small(5)), true);
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    rt.block_on(async move {
        let handler: Arc<dyn HttpHandler> = service.clone();
        let server = spawn_query_server(
            handler,
            QueryServerConfig {
                name: "shed-test".to_owned(),
                bind: "127.0.0.1:0".to_owned(),
                rate_per_sec: 50.0,
                burst: 10.0,
                max_in_flight: 4,
            },
        )
        .await
        .expect("spawn server");
        let plan = LoadPlan {
            connections: 8,
            requests_per_conn: 50,
            paths: vec!["/exhibit/headline".to_owned(), "/exhibit/fig1".to_owned()],
        };
        let report = run_load(server.addr, &plan).await;
        assert_eq!(report.errors, 0, "shedding must be 429s, not dropped connections");
        assert!(report.shed > 0, "load above the rate must shed: {report:?}");
        assert!(report.ok > 0, "server must keep serving under overload: {report:?}");
        assert_eq!(report.sent, report.ok + report.shed);
        assert_eq!(server.routes.exhibit.shed.get(), report.shed);
        // Only admitted requests are timed into the latency histogram.
        assert_eq!(server.routes.exhibit.latency.total(), report.ok);
    });
}

#[test]
fn metrics_and_statusz_expose_every_layer() {
    use txstat::telemetry::Registry;

    let sc = Scenario::small(11);
    let data = generate(&sc);
    let total = data.longest_chain();
    let registry = Arc::new(Registry::new());
    let mut follower = Follower::new(data, total.div_ceil(2).max(1));
    follower.bind_metrics(&registry);
    let first = follower.advance().expect("first epoch");
    let cell = Arc::new(EpochCell::new(Arc::new(ServeSnapshot::new(1, follower.head(), first))));
    let service = StatsService::with_registry(cell, registry);

    // Render something so the cache counters move.
    assert_eq!(service.respond("GET", "/exhibit/headline").status, 200);

    let resp = service.respond("GET", "/metrics");
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).expect("utf8 exposition");
    for family in [
        "txstat_ingest_blocks_observed_total",
        "txstat_reduce_follow_merges_total",
        "txstat_epoch_published_total",
        "txstat_epoch_current",
        "txstat_serve_cache_hits_total",
        "txstat_serve_cache_misses_total",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    assert!(text.contains("chain=\"eos\""), "per-chain labels missing:\n{text}");
    // Prometheus text shape: every family announces HELP and TYPE.
    assert!(text.contains("# HELP txstat_epoch_published_total"));
    assert!(text.contains("# TYPE txstat_serve_cache_misses_total counter"));

    let resp = service.respond("GET", "/statusz");
    assert_eq!(resp.status, 200);
    let status: serde_json::Value =
        serde_json::from_str(&String::from_utf8(resp.body).expect("utf8"))
            .expect("statusz parses as JSON");
    assert_eq!(status["epoch"].as_u64(), Some(1));
    assert_eq!(status["cache_misses"].as_u64(), Some(1));
    assert!(!status["metrics"].is_null(), "statusz carries the registry snapshot");
}

#[test]
fn cache_counters_are_isolated_per_service() {
    // Two services over the same scenario: each `StatsService::new` gets a
    // private registry, so one service's traffic must never show up in the
    // other's counters (this used to bleed through process-wide statics).
    let (a, _cell_a) = service_over(generate(&Scenario::small(3)), true);
    let (b, _cell_b) = service_over(generate(&Scenario::small(3)), true);
    a.respond("GET", "/exhibit/headline");
    a.respond("GET", "/exhibit/headline");
    assert_eq!(a.cache_misses.get(), 1);
    assert_eq!(a.cache_hits.get(), 1);
    assert_eq!(b.cache_misses.get(), 0, "service B saw no traffic");
    assert_eq!(b.cache_hits.get(), 0);
}
