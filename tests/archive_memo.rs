//! `archive.memo` acceptance matrix: the per-segment summary memo may
//! speed a cold start up, but no state of it — absent, present, stale,
//! damaged, foreign, unwritable — may change a byte of a report.
//!
//! 1. **Report identity** across generated ≡ memo absent ≡ present ≡
//!    foreign schema tag ≡ stale (exact hit/miss counts) ≡ unwritable.
//! 2. **Damage**: every truncation and every single-bit flip of the memo is
//!    a typed rejection, read as empty (never half-trusted), recomputed and
//!    healed to the exact healthy bytes.
//! 3. **Tiling law**: Σ `summarize` over any tiling of a chain window equals
//!    `summarize` of the window — what makes per-segment memoization sound.
//! 4. **Block-free reducer** ≡ eager reducer ≡ one-shot report.
//! 5. `reorg_data` never inherits an archive's memo source; `serve` to
//!    head never resolves the facts, and `/statusz` shows the coverage.
//! 6. A byte pin of the small seed-42 memo, tying the payload to
//!    `SUMMARY_SCHEMA`.

mod support;

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use support::{bit_flips, truncations};
use txstat::archive::{decode_memo, encode_memo, Archive, MemoError, MEMO_FILE};
use txstat::reports::archive_io::segments_of_from;
use txstat::reports::{
    generate, pipeline_from_archive, reduce_frames_labeled_into, reducer_from_archive,
    render_report, reorg_data, summarize, write_archive, PipelineData, SegmentFormat,
    SegmentSummary, ShardContext, SUMMARY_SCHEMA,
};
use txstat::types::ids::fnv1a64;
use txstat::wire::PayloadFormat;
use txstat::workload::Scenario;

/// Segment size every corpus here is sealed at: 11 segments over the 2712
/// positions of the small preset.
const SEGMENT_BLOCKS: u64 = 256;
const SEGMENTS: usize = 11;

/// The generated dataset and its one-shot report (generation and the
/// sweeps dominate this suite's cost, so they are paid once).
fn direct() -> &'static (PipelineData, String) {
    static DIRECT: OnceLock<(PipelineData, String)> = OnceLock::new();
    DIRECT.get_or_init(|| {
        let data = generate(&Scenario::small(42));
        let report = render_report(&data);
        (data, report)
    })
}

fn seal(tag: &str) -> PathBuf {
    let dir = support::tempdir("archive-memo", tag);
    let stats = write_archive(&dir, &direct().0, "small", SEGMENT_BLOCKS, SegmentFormat)
        .expect("seal corpus");
    assert_eq!(stats.segments, SEGMENTS);
    assert!(!dir.join(MEMO_FILE).exists(), "sealing never computes the memo");
    dir
}

fn memo_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(MEMO_FILE)).expect("read archive.memo")
}

/// Everything a memo can influence in a report (the rest is sweeps and
/// sidecar): the facts accessors, flattened for comparison.
fn facts_of(d: &PipelineData) -> impl PartialEq + std::fmt::Debug {
    let (before, after) = d.eos_cpu_peaks();
    (
        d.storage_stats().clone(),
        [d.eos_bounds(), d.tezos_bounds(), d.xrp_bounds()],
        (before.to_bits(), after.to_bits()),
    )
}

/// Eager cold start + full render; returns `(hits, memoized, write_error)`.
fn cold_report(dir: &Path, want: &str, what: &str) -> (usize, usize, Option<String>) {
    let (replayed, _) = pipeline_from_archive(dir).expect(what);
    let idle = replayed.memo_status().expect("an archived dataset has a memo status");
    assert_eq!((idle.segments, idle.hits, idle.memoized), (SEGMENTS, 0, 0), "facts are lazy");
    assert_eq!(render_report(&replayed), want, "report differs with the memo {what}");
    let status = replayed.memo_status().expect("status after render");
    assert_eq!(status.segments, SEGMENTS);
    (status.hits, status.memoized, status.write_error)
}

#[test]
fn report_bytes_are_identical_in_every_memo_state() {
    let (data, report) = direct();
    let dir = seal("matrix");
    let path = dir.join(MEMO_FILE);

    // Absent: everything is computed, and the file appears.
    assert_eq!(cold_report(&dir, report, "absent"), (0, SEGMENTS, None));
    let healthy = memo_bytes(&dir);
    // Present: everything hits, nothing is rewritten.
    let written = std::fs::metadata(&path).and_then(|m| m.modified()).expect("mtime");
    assert_eq!(cold_report(&dir, report, "present"), (SEGMENTS, SEGMENTS, None));
    assert_eq!(memo_bytes(&dir), healthy);
    assert_eq!(std::fs::metadata(&path).and_then(|m| m.modified()).expect("mtime"), written);

    // The same payloads under another schema tag: refused whole, typed.
    let entries = decode_memo(&healthy, SUMMARY_SCHEMA).expect("healthy memo decodes");
    assert_eq!(entries.len(), SEGMENTS);
    let foreign = encode_memo(SUMMARY_SCHEMA + 1, entries.iter().map(|(h, p)| (*h, *p)));
    assert!(matches!(
        decode_memo(&foreign, SUMMARY_SCHEMA),
        Err(MemoError::SchemaMismatch { found, expected })
            if (found, expected) == (SUMMARY_SCHEMA + 1, SUMMARY_SCHEMA)
    ));
    std::fs::write(&path, &foreign).expect("plant foreign memo");
    assert_eq!(cold_report(&dir, report, "under a foreign schema tag"), (0, SEGMENTS, None));
    assert_eq!(memo_bytes(&dir), healthy, "foreign memo healed");

    // One truncation and one flip through the full render (the exhaustive
    // walk below compares the facts only).
    std::fs::write(&path, &healthy[..healthy.len() / 2]).expect("truncate memo");
    assert_eq!(cold_report(&dir, report, "truncated"), (0, SEGMENTS, None));
    let mut flipped = healthy.clone();
    flipped[healthy.len() / 3] ^= 0x20;
    std::fs::write(&path, &flipped).expect("flip memo");
    assert_eq!(cold_report(&dir, report, "bit-flipped"), (0, SEGMENTS, None));
    assert_eq!(memo_bytes(&dir), healthy, "damaged memo healed");

    // Stale: a reorg rewrites the suffix from position 1280 — five
    // segments survive the truncate, six are re-appended. Exactly the
    // survivors hit; the report is the reorged history's.
    let from = 5 * SEGMENT_BLOCKS;
    let reorged = reorg_data(data, from as usize, 5);
    let mut writer =
        Archive::open(&dir).expect("open").into_writer().expect("writer over the corpus");
    assert_eq!(writer.truncate_from(from + 220).expect("truncate"), SEGMENTS - 5);
    assert_eq!(writer.total_positions(), from);
    for seg in segments_of_from(
        &reorged.eos_blocks,
        &reorged.tezos_blocks,
        &reorged.xrp_blocks,
        SEGMENT_BLOCKS,
        from,
    ) {
        writer.append(&seg).expect("re-append");
    }
    writer.seal().expect("seal reorged suffix");
    let reorged_report = render_report(&reorged);
    assert_ne!(&reorged_report, report, "the reorg must be visible in the report");
    assert_eq!(cold_report(&dir, &reorged_report, "stale"), (5, SEGMENTS, None));
    // The heal pruned the six dead entries: exactly the live hashes remain.
    let pruned = memo_bytes(&dir);
    let live: std::collections::HashSet<u64> =
        Archive::open(&dir).expect("open").segments().iter().map(|s| s.hash).collect();
    let kept: std::collections::HashSet<u64> =
        decode_memo(&pruned, SUMMARY_SCHEMA).expect("pruned memo").into_keys().collect();
    assert_eq!(kept, live);
    assert_eq!(cold_report(&dir, &reorged_report, "healed after the reorg").0, SEGMENTS);

    // Unwritable: a non-empty directory squats on the memo's name, so the
    // read is an I/O rejection and the rename cannot land (works as root,
    // unlike permission bits). Same bytes, a recorded failure, no debris.
    std::fs::remove_file(&path).expect("remove memo");
    std::fs::create_dir(&path).expect("squat on archive.memo");
    std::fs::write(path.join("occupied"), b"x").expect("occupy");
    let (hits, memoized, write_error) = cold_report(&dir, &reorged_report, "unwritable");
    assert_eq!((hits, memoized), (0, 0));
    let why = write_error.expect("the failed write is reported");
    assert!(why.contains(MEMO_FILE), "{why}");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("list corpus")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["archive.idx", "archive.memo", "archive.seg"], "tmp file left behind");
    let metrics = txstat::telemetry::registry().render_prometheus();
    let counted = |line: &str| {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(line))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no {line} in:\n{metrics}"))
    };
    assert!(counted("txstat_archive_memo_write_failures_total") >= 1);
    assert!(counted("txstat_archive_memo_rejected_total{reason=\"io\"}") >= 1);
    assert!(counted("txstat_archive_memo_rejected_total{reason=\"schema\"}") >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exhaustive, at the store: every strict prefix and every single-bit flip
/// of a real memo is a typed rejection and reads as *empty* — never a
/// panic, never a partly trusted file. Sampled, end to end: the block-free
/// cold start recomputes the same facts from the segment bytes and heals
/// the file to the exact healthy bytes.
#[test]
fn every_truncation_and_bit_flip_is_rejected_whole_and_healed() {
    let dir = seal("damage");
    let path = dir.join(MEMO_FILE);
    let want = facts_of(&direct().0);
    let (filled, _) = reducer_from_archive(&dir).expect("fill the memo");
    assert_eq!(facts_of(&filled), want);
    let healthy = memo_bytes(&dir);
    let memo = Archive::open(&dir).expect("open").memo();
    assert!(memo.load(SUMMARY_SCHEMA, SegmentSummary::decode).iter().all(Option::is_some));

    let damaged = truncations(&healthy).map(<[u8]>::to_vec).chain(bit_flips(&healthy));
    for (case, bytes) in damaged.enumerate() {
        let err = decode_memo(&bytes, SUMMARY_SCHEMA)
            .expect_err("a damaged memo must not decode cleanly");
        assert!(MemoError::REASONS.contains(&err.reason()), "{err}");
        std::fs::write(&path, &bytes).expect("plant damaged memo");
        let slots = memo.load(SUMMARY_SCHEMA, SegmentSummary::decode);
        assert!(slots.iter().all(Option::is_none), "case {case} was partly trusted");
        if case % 701 == 0 {
            let (cold, _) = reducer_from_archive(&dir).expect("cold start over damage");
            let status = cold.memo_status().expect("status");
            assert_eq!((status.hits, status.memoized), (0, SEGMENTS), "case {case}");
            assert_eq!(facts_of(&cold), want, "case {case} changed the facts");
            assert_eq!(memo_bytes(&dir), healthy, "case {case} not healed");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// Σ `summarize` over a tiling of a chain window in runs of a size that
    /// is never a multiple of the sampling stride — so every run starts at
    /// another sampling phase — equals `summarize` of the whole window:
    /// storage accounting, bounds and CPU peaks alike.
    #[test]
    fn summaries_of_any_tiling_sum_to_the_whole(
        start in 0usize..2000,
        len in 1usize..900,
        octets in 0u64..87,
        rest in 1u64..8,
    ) {
        let data = &direct().0;
        let size = octets * 8 + rest;
        prop_assert!((1..700).contains(&size) && size % 8 != 0);
        let run = |lo: u64, hi: u64| {
            let of = |len: usize| (lo as usize).min(len)..(hi as usize).min(len);
            summarize(
                lo,
                &data.eos_blocks[of(data.eos_blocks.len())],
                &data.tezos_blocks[of(data.tezos_blocks.len())],
                &data.xrp_blocks[of(data.xrp_blocks.len())],
                &data.eos_cpu_price[of(data.eos_cpu_price.len())],
            )
        };
        let (lo, hi) = (start as u64, (start + len) as u64);
        let mut tiled = SegmentSummary::default();
        let mut at = lo;
        while at < hi {
            let next = (at + size).min(hi);
            tiled.merge(&run(at, next));
            at = next;
        }
        prop_assert_eq!(tiled, run(lo, hi));
    }
}

/// The block-free reducer cold start renders the same bytes as the eager
/// one and as the one-shot report, off frames swept by an archived worker.
#[test]
fn block_free_reducer_equals_eager_reducer_equals_one_shot() {
    let (data, report) = direct();
    let dir = seal("reducer");
    let (ctx, manifest) = ShardContext::from_archive(&dir).expect("worker cold start");
    let total = ctx.total_blocks();
    assert_eq!(total as usize, data.longest_chain());
    let mut labeled = Vec::new();
    // Ranges that start and end inside segments, never on their edges.
    for (lo, hi) in [(0, 300), (300, 1111), (1111, total)] {
        let frames = ctx
            .frames(manifest.meta.clone(), lo, hi, 2, PayloadFormat::Bin)
            .expect("assignment sweep");
        labeled.extend(frames.into_iter().map(|f| (format!("[{lo}, {hi})"), f)));
    }

    // First over a fresh seal (every summary recomputed from segment
    // bytes), then over the memo that run left behind.
    for (round, hits) in [("memo absent", 0), ("memo present", SEGMENTS)] {
        let (block_free, archive) = reducer_from_archive(&dir).expect("block-free cold start");
        assert_eq!(archive.segments().len(), SEGMENTS);
        assert!(block_free.eos_blocks.is_empty() && block_free.tezos_blocks.is_empty());
        assert!(block_free.xrp_blocks.is_empty());
        assert_eq!(block_free.longest_chain(), data.longest_chain());
        assert_eq!(block_free.memo_status().expect("status").hits, hits, "{round}");
        let reduced = reduce_frames_labeled_into(block_free, &labeled).expect("reduce");
        assert_eq!(&render_report(&reduced), report, "block-free reducer, {round}");
    }
    let (eager, _) = pipeline_from_archive(&dir).expect("eager cold start");
    let reduced = reduce_frames_labeled_into(eager, &labeled).expect("reduce");
    assert_eq!(&render_report(&reduced), report, "eager reducer");

    // Coverage is still checked against the manifest's chain lengths.
    let (block_free, _) = reducer_from_archive(&dir).expect("block-free cold start");
    let err = reduce_frames_labeled_into(block_free, &labeled[..3])
        .err()
        .expect("a missing tail must not reduce");
    assert!(err.contains("uncovered block ranges [(300, 576)]"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve` over an archive: following to head resolves no facts (the memo
/// is not even read), `/statusz` says so, and the first Figure 2 request
/// fills the memo once for every fork of the dataset.
#[test]
fn statusz_shows_memo_coverage_and_serving_to_head_stays_lazy() {
    use std::sync::Arc;
    use txstat::ingest::EpochCell;
    use txstat::reports::{Follower, ServeSnapshot, StatsService};

    let dir = seal("statusz");
    let (replayed, _) = pipeline_from_archive(&dir).expect("cold start");
    let mut follower = Follower::new(replayed, 1000);
    let mut fork = follower.advance().expect("first epoch");
    while !follower.head() {
        fork = follower.advance().expect("next epoch");
    }
    assert!(!dir.join(MEMO_FILE).exists(), "following to head resolved the facts");
    let cell = Arc::new(EpochCell::new(Arc::new(ServeSnapshot::new(3, true, fork))));
    let service = StatsService::new(cell);
    let memo_of = |service: &StatsService| -> serde_json::Value {
        let resp = service.respond("GET", "/statusz");
        assert_eq!(resp.status, 200);
        let status: serde_json::Value =
            serde_json::from_slice(&resp.body).expect("statusz parses as JSON");
        status["memo"].clone()
    };
    let idle = memo_of(&service);
    assert_eq!(idle["segments"].as_u64(), Some(SEGMENTS as u64), "{idle:?}");
    assert_eq!(idle["memoized"].as_u64(), Some(0), "{idle:?}");
    assert_eq!(service.respond("GET", "/exhibit/fig2").status, 200);
    let filled = memo_of(&service);
    assert_eq!(filled["hits"].as_u64(), Some(0), "{filled:?}");
    assert_eq!(filled["memoized"].as_u64(), Some(SEGMENTS as u64), "{filled:?}");
    assert!(filled["write_error"].is_null(), "{filled:?}");
    assert!(dir.join(MEMO_FILE).is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reorged dataset's blocks are not the archive's: its facts must come
/// from its own blocks, and resolving them must not touch the corpus.
#[test]
fn reorg_data_never_inherits_the_memo_source() {
    let dir = seal("reorg");
    let (replayed, _) = pipeline_from_archive(&dir).expect("cold start");
    assert!(replayed.memo_status().is_some());
    let reorged = reorg_data(&replayed, 0, 9);
    assert!(reorged.memo_status().is_none(), "reorg_data kept the archive's memo source");
    let rewritten = reorged.storage_stats();
    assert!(reorged.memo_status().is_none());
    assert!(!dir.join(MEMO_FILE).exists(), "a reorged dataset wrote the archive's memo");
    let original = direct().0.storage_stats();
    assert_eq!(rewritten.1.blocks, original.1.blocks);
    assert!(rewritten.1.transactions < original.1.transactions, "the reorg drops operations");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden pin of the memo the small seed-42 corpus ends up with. The
/// memoized integers are Figure 2's, so a methodology change
/// (`COMPRESSION_SAMPLE_EVERY`, the LZSS compressor, the wire-JSON
/// writers) or a codec change moves these bytes: **changing this pin means
/// bumping the summary schema tag** (`SUMMARY_SCHEMA`), or old memos would
/// be served against the new methodology.
#[test]
fn memo_bytes_are_pinned_for_small_seed_42() {
    let dir = seal("pin");
    reducer_from_archive(&dir).expect("fill the memo");
    let bytes = memo_bytes(&dir);
    assert_eq!(SUMMARY_SCHEMA, 1, "new schema tag: re-record the pin below");
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (737, 0xebf886d0421e9f09),
        "archive.memo, small seed 42 — bump SUMMARY_SCHEMA with this pin"
    );
    // The eager path writes the very same file.
    std::fs::remove_file(dir.join(MEMO_FILE)).expect("remove memo");
    pipeline_from_archive(&dir).expect("cold start").0.storage_stats();
    assert_eq!(memo_bytes(&dir), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
