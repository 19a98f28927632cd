//! Tier-1 integration tests for the epoch-swapped stats-serving layer:
//! byte-identity with the one-shot report (at the head and at every
//! intermediate epoch of the delta-folding follower, with and without its
//! reorg guard, before and after a resync, whichever mix of reclaimed and
//! cloned copies of its left-right pair produced the epoch), torn-read-free
//! epoch swaps under concurrent readers that hold retired snapshots, cache
//! invalidation on swap, and 429 load-shedding at the HTTP admission layer.

mod support;

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use support::fixture::small;
use support::paths::{self, one_shot_prefix, service_over, thinned};
use txstat::archive::Archive;
use txstat::ingest::{EpochCell, IngestError};
use txstat::netsim::{
    run_load, start_query_server, HttpHandler, LoadPlan, QueryServerConfig, RouteStats,
};
use txstat::reports::{
    comparison_section, render_report, reorg_data, report_sections, sample_account_paths,
    streamed_from_archive, write_archive, Follower, PipelineData, SegmentFormat, ServeSnapshot,
    StatsService,
};

/// Every exhibit section, the comparison and the busiest account of each
/// chain (as the oracle sees it) must be the same bytes from both
/// datasets. Returns the service over `got`: holding it pins that
/// dataset's sweeps like a slow reader would.
fn assert_serves_identically(
    got: PipelineData,
    oracle: PipelineData,
    what: &str,
) -> Arc<StatsService> {
    assert_eq!(
        report_sections(&got),
        report_sections(&oracle),
        "{what}: sections diverged"
    );
    assert_eq!(
        comparison_section(&got),
        comparison_section(&oracle),
        "{what}: comparison diverged"
    );
    let paths = sample_account_paths(&oracle);
    let (got, _) = service_over(got, false);
    let (oracle, _) = service_over(oracle, false);
    for path in paths {
        let want = oracle.respond("GET", &path);
        assert_eq!(want.status, 200, "{what}: oracle lacks {path}");
        assert_eq!(
            got.respond("GET", &path).body,
            want.body,
            "{what}: {path} diverged"
        );
    }
    got
}

/// The views a dataset derives for its sections (the Figure 3a series,
/// the vote curves, the value flow, the most active accounts, the
/// concentration and wash-trading reports) are its own: a fork of a
/// dataset whose every section and comparison has been rendered, given a
/// prefix's sweeps, renders what the one-shot sweep of that prefix over a
/// dataset nothing has rendered does — and every route that reads a view
/// moved between the two coverages, so a view carried over would show.
#[test]
fn a_fork_of_a_rendered_dataset_derives_its_own_views() {
    let rendered = &small(7).data;
    small(7).report();
    let whole = section_routes(rendered);
    let at = (
        rendered.eos_blocks.len() as u64 / 2,
        rendered.tezos_blocks.len() as u64 / 2,
        rendered.xrp_blocks.len() as u64 / 2,
    );
    let fork = section_routes(&one_shot_prefix(rendered, at));
    let oracle = section_routes(&one_shot_prefix(&small(7).fresh(), at));
    assert_eq!(fork.len(), oracle.len());
    for ((route, got), (_, want)) in fork.iter().zip(&oracle) {
        assert!(got == want, "{route}: the fork renders a view of the whole");
    }
    for name in [
        "fig3",
        "fig8",
        "fig9",
        "fig12",
        "case_studies",
        "comparison",
    ] {
        let route = format!("/exhibit/{name}");
        let body = |routes: &[(String, String)]| {
            routes
                .iter()
                .find(|(r, _)| *r == route)
                .map(|(_, b)| b.clone())
        };
        assert!(body(&fork) != body(&whole), "{route} did not move");
    }
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
        assert!(
            at.0 + at.1 + at.2 > e + t + x,
            "{what} epoch {epochs} observed nothing new"
        );
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

/// Seeds 1, 7 and 42 followed in batches of 32 and of the whole corpus,
/// and thinned to 200 blocks a chain in batches of 1 and 7: an epoch per
/// block (and per seven) over the whole corpus would render it thousands
/// of times; the thinned corpus (≈ 194 and 28 epochs) has the same shape —
/// three chains of unequal length across the whole window.
#[test]
fn every_epoch_equals_the_one_shot_sweep_of_its_prefix() {
    paths::view("serve_query::every_epoch_equals_the_one_shot_sweep_of_its_prefix");
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
        let data = thinned(small(7).fresh(), 12);
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
    let mut plain = Follower::new(small(7).fresh(), 400);
    let mut guarded = Follower::new(small(7).fresh(), 400).with_reorg_guard(3);
    let mut epochs = 0;
    while !plain.head() {
        epochs += 1;
        let (want, got) = (
            plain.advance().expect("plain"),
            guarded.advance().expect("guarded"),
        );
        assert_serves_identically(got, want, &format!("guarded epoch {epochs}"));
    }
    assert!(guarded.head());
    assert_eq!(
        guarded.retained(),
        (epochs, 3),
        "one mark per batch, a window of snapshots"
    );
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
    for (window, rebuilt) in [(8, false), (1, true)] {
        let mut follower = Follower::new(small(7).fresh(), 400).with_reorg_guard(window);
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
    let data = small(7).fresh();
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
        assert_serves_identically(again, small(7).fresh(), "past the head");
    }
}

#[test]
fn a_block_at_or_below_the_high_water_mark_is_rejected_not_double_counted() {
    let clean = &small(7).data;
    let replayed = clean.eos_blocks[4].clone();
    let high = clean.eos_blocks[9].num;

    // The replayed block opens the second batch…
    let mut data = small(7).fresh();
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
        other => panic!(
            "expected RangeRegression, got {:?}",
            other.map(|_| "a fork")
        ),
    }
    // …and the follower still stands at the first epoch, on every chain.
    assert_eq!(follower.observed(), observed);

    // …or sits inside one batch, behind the block it repeats.
    let mut data = small(7).fresh();
    let mut blocks = clean.eos_blocks[..5].to_vec();
    blocks.push(replayed);
    data.eos_blocks = Arc::new(blocks);
    let mut follower = Follower::new(data, 10);
    assert!(matches!(
        follower.advance(),
        Err(IngestError::RangeRegression { .. })
    ));
    assert_eq!(follower.observed(), (0, 0, 0));
}

/// Seal `data` at `dir` in segments of `segment_blocks` positions.
fn seal(dir: &Path, data: &PipelineData, segment_blocks: u64) {
    write_archive(dir, data, "small", segment_blocks, SegmentFormat).expect("seal the corpus");
}

/// The same check over a corpus: EOS blocks 0..10 sealed as segment 0, and
/// block 4 again as segment 1, which so starts below where segment 0 ends.
/// Whether one batch spans both segments or each is its own batch, the
/// streamed follower refuses it and still stands at the epoch before.
#[test]
fn a_segment_starting_at_or_below_the_end_of_the_one_before_is_rejected() {
    let clean = &small(7).data;
    let replayed = clean.eos_blocks[4].clone();
    let high = clean.eos_blocks[9].num;
    let mut data = small(7).fresh();
    let mut blocks = clean.eos_blocks[..10].to_vec();
    blocks.push(replayed.clone());
    data.eos_blocks = Arc::new(blocks);
    data.tezos_blocks = Arc::new(clean.tezos_blocks[..30].to_vec());
    data.xrp_blocks = Arc::new(clean.xrp_blocks[..30].to_vec());
    let dir = support::tempdir("serve-query", "regression");
    seal(&dir, &data, 10);
    for batch in [10, 20] {
        let (streamed, _) = streamed_from_archive(&dir).expect("streamed cold start");
        let mut follower = Follower::new(streamed, batch);
        if batch == 10 {
            follower.advance().expect("segment 0 is ascending");
        }
        let observed = follower.observed();
        for _ in 0..2 {
            match follower.advance() {
                Err(IngestError::RangeRegression { n, high: h }) => {
                    assert_eq!((n, h), (replayed.num, high), "batch {batch}");
                }
                other => panic!(
                    "batch {batch}: expected RangeRegression, got {:?}",
                    other.map(|_| "a fork")
                ),
            }
            assert_eq!(follower.observed(), observed, "batch {batch}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every epoch of a follower streaming a corpus's segments is the one-shot
/// sweep of its prefix, whatever the segment size (1, 7, 64, 256) and the
/// batch (1, 5, 32, 300): batches inside one segment, straddling two,
/// longer than a segment or than the whole corpus, and epochs past the
/// heads of the shorter chains (the matrix's cut corpus). The oracle
/// renders from the held chains, so each side summarizes its facts itself.
#[test]
fn every_epoch_of_a_streamed_follower_is_the_held_followers() {
    paths::view("serve_query::every_epoch_of_a_streamed_follower_is_the_held_followers");
}

/// Small seed 7 sealed in segments of 256, its last segment (positions
/// 2560..2712, Tezos blocks only) re-sealed with its Tezos columns cut in
/// half: the index's hash is recomputed over the new bytes, so
/// `Archive::open` accepts the corpus, but the columns do not decode.
fn corpus_with_an_undecodable_last_segment(dir: &Path) {
    seal(dir, &small(7).data, 256);
    let archive = Archive::open(dir).expect("open the healthy corpus");
    let mut seg = archive
        .decode_segment(archive.segments().len() - 1)
        .expect("decode the healthy segment");
    assert_eq!((seg.start, seg.end), (2560, 2712));
    seg.tezos.truncate(seg.tezos.len() / 2);
    let mut writer = archive.into_writer().expect("reopen for writing");
    writer
        .truncate_from(seg.start)
        .expect("drop the last segment");
    writer.append(&seg).expect("re-seal it");
    writer.seal().expect("seal the index");
    Archive::open(dir).expect("the re-sealed corpus passes the hash check");
}

/// A corpus segment whose bytes pass the hash check but whose columns do
/// not decode is an error naming the segment, never a panic, whether the
/// follower meets it first or a facts miss does. Without a reader, the
/// follower's advance into it fails (the session exits 2 with it) and the
/// epoch before stands. With `/report` read at epoch 1 (the memo absent),
/// the facts miss meets it first: the route answers 500 with it and is not
/// cached, nor is any section that reads the facts; a section that reads
/// none is served and cached. Later the follower fails on it the same way.
#[test]
fn a_segment_that_does_not_decode_is_an_error_naming_it() {
    const NAMED: &str = "segment [2560, 2712) tezos columns";
    for read_report in [false, true] {
        let dir = support::tempdir("serve-query", &format!("undecodable-{read_report}"));
        corpus_with_an_undecodable_last_segment(&dir);
        let (streamed, _) = streamed_from_archive(&dir).expect("streamed cold start");
        let mut follower = Follower::new(streamed, 256);
        let first = follower.advance().expect("segment 0 decodes");
        let (service, _cell) = service_over(first, false);
        if read_report {
            for _ in 0..2 {
                let reply = service.respond("GET", "/report");
                let body = String::from_utf8_lossy(&reply.body);
                assert_eq!(reply.status, 500, "{body}");
                assert!(body.contains(NAMED), "{body}");
            }
            // The headline and Figure 1 read no facts and were rendered
            // before Figure 2 met the failure; Figure 2 is not cached, nor
            // is the report.
            assert_eq!(service.snapshot().cached_responses(), 2);
            let fig2 = service.respond("GET", "/exhibit/fig2");
            let body = String::from_utf8_lossy(&fig2.body);
            assert_eq!(fig2.status, 500, "{body}");
            assert!(body.contains(NAMED), "{body}");
            assert_eq!(service.respond("GET", "/exhibit/fig4").status, 200);
            assert_eq!(service.respond("GET", "/exhibit/headline").status, 200);
        }
        let failure = loop {
            let epoch = service.snapshot().epoch();
            match service.publish_next(&mut follower) {
                Ok(_) => continue,
                Err(e) => break (epoch, e),
            }
        };
        match failure {
            (10, IngestError::Source(why)) => assert!(why.contains(NAMED), "{why}"),
            (epoch, e) => panic!("epoch {epoch}: expected the segment's error, got {e}"),
        }
        assert_eq!(service.snapshot().epoch(), 10, "the epoch before stands");
        assert_eq!(follower.observed(), (576, 2560, 146));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn served_exhibits_are_byte_identical_to_report_sections() {
    // Two independent datasets of the same chains: what the service serves
    // must equal what the one-shot pipeline renders.
    let (service, _cell) = service_over(small(99).fresh(), true);
    let oracle = &small(99).data;

    for (path, body) in section_routes(oracle) {
        let resp = service.respond("GET", &path);
        assert_eq!(resp.status, 200, "{path}");
        assert_eq!(resp.body, body.as_bytes(), "{path} body diverged");
    }
    let resp = service.respond("GET", "/report");
    assert_eq!(
        resp.body,
        small(99).report().as_bytes(),
        "/report body diverged"
    );

    // Unknown routes 404 and are never cached.
    for path in [
        "/exhibit/nope",
        "/account/eos/zzzzznothere",
        "/account/nochain/x",
        "/nope",
    ] {
        assert_eq!(service.respond("GET", path).status, 404, "{path}");
    }

    // The busiest account of each chain answers with a JSON object.
    let sweeps = oracle.sweeps();
    let eos = sweeps.eos.top_received(1)[0].account.to_string_repr();
    let resp = service.respond("GET", &format!("/account/eos/{eos}"));
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).expect("utf8 account body");
    assert!(
        text.contains("\"chain\":\"eos\"") && text.contains("\"received_txs\""),
        "{text}"
    );
    let tz = sweeps.tezos.top_senders(1)[0].sender.to_string();
    assert_eq!(
        service
            .respond("GET", &format!("/account/tezos/{tz}"))
            .status,
        200
    );
    let xrp = sweeps.xrp.most_active(1, &oracle.cluster)[0]
        .account
        .to_string();
    assert_eq!(
        service
            .respond("GET", &format!("/account/xrp/{xrp}"))
            .status,
        200
    );
}

/// Every `/exhibit/<name>` route in report order, the comparison last.
fn section_routes(data: &PipelineData) -> Vec<(String, String)> {
    let mut sections = report_sections(data);
    sections.push(("comparison", comparison_section(data)));
    sections
        .into_iter()
        .map(|(name, body)| (format!("/exhibit/{name}"), body))
        .collect()
}

/// A `/report` and the section routes share one cache entry per section,
/// whichever asks first: a cold `/report` is the one-shot report and fills
/// every section route (13 exhibits and the comparison: 15 misses), and
/// every section read after it is a hit with the one-shot section's bytes.
/// On the next epoch the benchmark's order (sections, an account, then
/// `/report`) renders each route once and the report takes all 14
/// sections from the cache.
#[test]
fn a_cold_report_and_the_section_routes_serve_the_same_sections() {
    let mut follower = Follower::new(small(7).fresh(), 1200);
    let first = follower.advance().expect("first epoch");
    let (service, cell) = service_over(first, false);
    let oracle = one_shot_prefix(follower.base(), follower.observed());
    let counters = || (service.cache_misses.get(), service.cache_hits.get());

    let resp = service.respond("GET", "/report");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body,
        render_report(&oracle).as_bytes(),
        "cold /report diverged"
    );
    assert_eq!(
        counters(),
        (15, 0),
        "a cold /report renders 14 sections and itself"
    );
    assert_eq!(service.snapshot().cached_responses(), 15);
    let sections = section_routes(&oracle);
    assert_eq!(sections.len(), 14);
    for (path, body) in sections {
        assert_eq!(
            service.respond("GET", &path).body,
            body.as_bytes(),
            "{path} after /report"
        );
    }
    assert_eq!(
        counters(),
        (15, 14),
        "every section was rendered for /report"
    );

    let second = follower.advance().expect("second epoch");
    cell.publish(Arc::new(ServeSnapshot::new(2, follower.head(), second)));
    let oracle = one_shot_prefix(follower.base(), follower.observed());
    for (path, body) in section_routes(&oracle) {
        assert_eq!(
            service.respond("GET", &path).body,
            body.as_bytes(),
            "epoch 2 {path}"
        );
    }
    let account = &sample_account_paths(&oracle)[0];
    assert_eq!(service.respond("GET", account).status, 200, "{account}");
    let resp = service.respond("GET", "/report");
    assert_eq!(
        resp.body,
        render_report(&oracle).as_bytes(),
        "epoch 2 /report diverged"
    );
    assert_eq!(
        counters(),
        (15 + 16, 14 + 14),
        "16 routes render once, /report reuses 14"
    );
}

/// A serve session at small seed 7 in epochs of 64 blocks, where XRP
/// (146 blocks) reaches its head at epoch 3, EOS (576) at 9 and Tezos
/// (2 712) at 43: at every epoch, every route is the one-shot render of the
/// observed prefix, and what an epoch carries is what reads only chains
/// that did not move (the matrix's served path).
#[test]
fn a_serve_session_carries_what_did_not_move_and_serves_the_one_shot_bytes() {
    paths::view(
        "serve_query::a_serve_session_carries_what_did_not_move_and_serves_the_one_shot_bytes",
    );
}

/// The same session over the sealed corpus of those chains, its follower
/// decoding the segments as its batches reach them and its facts summarized
/// from the segments (the memo starts absent): the same carried counts, the
/// same views and parts, the same bytes at every epoch.
#[test]
fn an_archived_serve_session_carries_and_serves_what_a_held_one_does() {
    paths::view("serve_query::an_archived_serve_session_carries_and_serves_what_a_held_one_does");
}

/// Readers load from the cell while the follower publishes into it, and
/// hold each snapshot across one swap or two: held across two, the retired
/// snapshot is exactly the copy the follower wants back. It must never be
/// folded into while a reader can still see it — the follower clones
/// instead — and no response may mix epochs: neither a section nor the
/// `/report` assembled from the snapshot's sections.
#[test]
fn epoch_swap_is_never_torn_under_concurrent_readers() {
    use std::sync::atomic::{AtomicBool, AtomicU64};

    fn headline(data: &PipelineData) -> Vec<u8> {
        let sections = report_sections(data);
        sections
            .into_iter()
            .find(|(n, _)| *n == "headline")
            .expect("headline section")
            .1
            .into()
    }
    let batch = small(7).data.longest_chain().div_ceil(6);

    // What each epoch serves, from a follower nobody reads from: a reader
    // must only ever observe one of these exact bodies.
    let mut unread = Follower::new(small(7).fresh(), batch);
    let (mut allowed, mut reports) = (Vec::new(), Vec::new());
    while !unread.head() {
        let epoch = unread.advance().expect("advance");
        allowed.push(headline(&epoch));
        reports.push(render_report(&epoch).into_bytes());
    }
    assert!(
        allowed.len() >= 4,
        "want >=3 epoch swaps, got {}",
        allowed.len()
    );

    let mut follower = Follower::new(small(7).fresh(), batch);
    let first = follower.advance().expect("first epoch");
    let (service, cell) = service_over(first, false);
    // Every reader holds epoch 1 before the first swap.
    let ready = std::sync::Barrier::new(5);
    // The newest epoch some reader holds a snapshot of.
    let holding = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for swaps_held in [1, 1, 2, 2] {
            let (service, cell, allowed, reports) = (&service, &cell, &allowed, &reports);
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
                    let resp = service.respond("GET", "/report");
                    assert_eq!(resp.status, 200);
                    assert!(
                        reports.contains(&resp.body),
                        "served /report matches no published epoch (torn read?)"
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
    assert!(
        cloned >= 2 && reclaimed >= 1,
        "reclaimed {reclaimed}, cloned {cloned}"
    );
}

#[test]
fn response_cache_is_invalidated_by_epoch_swap() {
    let data = small(7).fresh();
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
    assert_eq!(
        service.snapshot().cached_responses(),
        0,
        "swap empties the cache"
    );
    let b1 = service.respond("GET", "/exhibit/headline");
    assert_eq!(service.cache_misses.get(), 2);
    assert_ne!(a1.body, b1.body, "new epoch must serve new statistics");
}

#[test]
fn admission_sheds_excess_load_with_429s_and_keeps_serving() {
    let (service, _cell) = service_over(small(5).fresh(), true);
    let handler: Arc<dyn HttpHandler> = service.clone();
    let server = start_query_server(
        handler,
        QueryServerConfig {
            name: "shed-test".to_owned(),
            bind: "127.0.0.1:0".to_owned(),
            rate_per_sec: 50.0,
            burst: 10.0,
            max_in_flight: 4,
        },
    )
    .expect("start server");
    let plan = LoadPlan {
        connections: 8,
        requests_per_conn: 50,
        paths: vec!["/exhibit/headline".to_owned(), "/exhibit/fig1".to_owned()],
    };
    let report = run_load(server.addr, &plan);
    assert_eq!(
        report.errors, 0,
        "shedding must be 429s, not dropped connections"
    );
    assert!(report.shed > 0, "load above the rate must shed: {report:?}");
    assert!(
        report.ok > 0,
        "server must keep serving under overload: {report:?}"
    );
    assert_eq!(report.sent, report.ok + report.shed);
    assert_eq!(server.routes.exhibit.shed.get(), report.shed);
    // Only admitted requests are timed into the latency histogram.
    assert_eq!(server.routes.exhibit.latency.total(), report.ok);
}

#[test]
fn metrics_and_statusz_expose_every_layer() {
    use txstat::telemetry::Registry;

    let data = small(11).fresh();
    let total = data.longest_chain();
    let registry = Arc::new(Registry::new());
    let mut follower = Follower::new(data, total.div_ceil(2).max(1));
    follower.bind_metrics(&registry);
    let first = follower.advance().expect("first epoch");
    let cell = Arc::new(EpochCell::new(Arc::new(ServeSnapshot::new(
        1,
        follower.head(),
        first,
    ))));
    let service = StatsService::with_registry(cell, registry.clone());
    // What `serve_session` adds: its query server's route classes.
    Arc::new(RouteStats::default()).register_into(&registry);

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
        "txstat_serve_cache_carried_total",
        "txstat_serve_views_carried_total",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    assert!(
        text.contains("chain=\"eos\""),
        "per-chain labels missing:\n{text}"
    );
    // Prometheus text shape: every family announces HELP and TYPE.
    assert!(text.contains("# HELP txstat_epoch_published_total"));
    assert!(text.contains("# TYPE txstat_serve_cache_misses_total counter"));
    let readme = include_str!("../crates/telemetry/README.md");
    let exposed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .collect();
    for family in &exposed {
        assert!(
            readme.contains(&format!("`{family}`")),
            "{family} is not in the README table"
        );
    }
    // And the other way round: every README row the serve side declares is
    // exported, so a row left behind by a deleted family fails here.
    let rows: Vec<&str> = readme
        .lines()
        .filter(|l| l.starts_with("| `txstat_"))
        .filter_map(|l| {
            let cells: Vec<&str> = l.split('|').map(str::trim).collect();
            let declarer = cells.get(4)?;
            [
                "`StatsService`",
                "`RouteStats::register_into`",
                "`FollowMetrics`",
            ]
            .iter()
            .any(|d| declarer.contains(d))
            .then_some(cells[1])
        })
        .collect();
    assert_eq!(rows.len(), 24, "the serve side's README rows");
    for first in rows {
        for family in first.split('`').skip(1).step_by(2) {
            assert!(
                exposed.contains(&family),
                "README row {family} is not exported:\n{text}"
            );
        }
    }

    let resp = service.respond("GET", "/statusz");
    assert_eq!(resp.status, 200);
    let status: serde_json::Value =
        serde_json::from_str(&String::from_utf8(resp.body).expect("utf8"))
            .expect("statusz parses as JSON");
    assert_eq!(status["epoch"].as_u64(), Some(1));
    assert_eq!(status["cache_misses"].as_u64(), Some(1));
    assert_eq!(status["cache_carried"].as_u64(), Some(0));
    assert_eq!(status["views_carried"].as_u64(), Some(0));
    assert!(
        !status["metrics"].is_null(),
        "statusz carries the registry snapshot"
    );
}

#[test]
fn cache_counters_are_isolated_per_service() {
    // Two services over the same scenario: each `StatsService::new` gets a
    // private registry, so one service's traffic must never show up in the
    // other's counters (this used to bleed through process-wide statics).
    let (a, _cell_a) = service_over(small(3).fresh(), true);
    let (b, _cell_b) = service_over(small(3).fresh(), true);
    a.respond("GET", "/exhibit/headline");
    a.respond("GET", "/exhibit/headline");
    assert_eq!(a.cache_misses.get(), 1);
    assert_eq!(a.cache_hits.get(), 1);
    assert_eq!(b.cache_misses.get(), 0, "service B saw no traffic");
    assert_eq!(b.cache_hits.get(), 0);
}
