//! Archive robustness and round-trip properties.
//!
//! 1. **Damage**: truncating either archive file, or flipping any single
//!    bit in it, never panics — `Archive::open`/`replay_all` return a
//!    typed [`ArchiveError`] instead (every byte of both files is covered
//!    by a content hash, so any flip is detected), and the error's
//!    rendering names where the damage was found.
//! 2. **Round trip**: sealing a generated scenario at an arbitrary
//!    segment size and cold-starting from the corpus reproduces the
//!    direct pipeline byte-for-byte — same block bytes, same rendered
//!    report.
//! 3. **Fleet**: a socket fleet of archived workers reduces to the same
//!    report at every tiling, cut on segment boundaries or not.

mod support;

use std::net::TcpListener;
use std::path::Path;
use std::time::Duration;
use support::fixture::small;
use support::paths::{self, Path::OneShot, Source::Archived};
use support::{mutations, synthetic_corpus, Count, Mutator};
use txstat::archive::{Archive, ArchiveError, SegmentMeta, IDX_FILE, SEG_FILE};
use txstat::ingest::{reduce_fleet, serve_assignments, FleetConfig};
use txstat::reports::{
    pipeline_from_archive, reduce_frames_labeled_into, render_report, streamed_from_archive,
    write_archive, SegmentFormat, ShardContext,
};
use txstat::wire::PayloadFormat;

/// Open + fully replay, collapsing both phases into one result.
fn open_and_replay(dir: &Path) -> Result<usize, ArchiveError> {
    let archive = Archive::open(dir)?;
    Ok(archive.replay_all()?.len())
}

/// Run `walk(dir, file, healthy bytes)` over both files of synthetic
/// corpora of 1 to 4 segments; the file is whole again after each walk.
fn each_corpus_file(tag: &str, walk: impl Fn(&Path, &Path, &[u8])) {
    for segs in 1..5 {
        let dir = support::tempdir("archive-store", &format!("{tag}-{segs}"));
        synthetic_corpus(&dir, segs, 0x5eed_0000 + segs as u64);
        for name in [IDX_FILE, SEG_FILE] {
            let path = dir.join(name);
            let healthy = std::fs::read(&path).expect("read corpus file");
            walk(&dir, &path, &healthy);
            std::fs::write(&path, &healthy).expect("restore corpus file");
        }
        assert_eq!(
            open_and_replay(&dir).expect("restored corpus replays"),
            segs
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Truncation at any offset of either file is a typed error, never a
/// panic — and never a silent success.
#[test]
fn truncation_at_any_offset_is_a_typed_error() {
    each_corpus_file("trunc", |dir, path, healthy| {
        let cuts = mutations(healthy, Count::Leb128, |m| m == Mutator::Truncation);
        for (cut, prefix) in cuts.map(|m| m.bytes).enumerate() {
            std::fs::write(path, prefix).expect("truncate corpus file");
            let err = open_and_replay(dir).expect_err("a truncated archive must not open cleanly");
            let msg = format!("{err}");
            assert!(!msg.is_empty());
            // Damage below the index's magic/version header is reported as
            // a malformed index; everything else must localize the damage.
            if path.ends_with(SEG_FILE) {
                assert!(
                    msg.contains("offset") || msg.contains("byte") || msg.contains("segment"),
                    "segment-file truncation at {cut} does not localize: {msg}"
                );
            }
        }
    });
}

/// Flipping any single bit anywhere in either file is detected by a
/// content hash (or a codec invariant) — typed error, never a panic.
#[test]
fn any_single_bit_flip_is_detected() {
    each_corpus_file("flip", |dir, path, healthy| {
        let flips = mutations(healthy, Count::Leb128, |m| matches!(m, Mutator::BitFlip(_)))
            .map(|m| m.bytes);
        for (bit, damaged) in flips.enumerate() {
            std::fs::write(path, &damaged).expect("write damaged file");
            match open_and_replay(dir) {
                Ok(n) => panic!("bit {bit} of {path:?} flipped, {n} segments replayed cleanly"),
                Err(err) => assert!(!format!("{err}").is_empty()),
            }
        }
    });
}

/// Archive → cold-start → report is byte-identical to the direct
/// pipeline at random segment sizes: the path matrix's one-shot cell of
/// small seed 23 sealed at three deterministically drawn sizes plus the
/// edges (a hand-rolled property: generation dominates the cost, so the
/// dataset is shared and the case count stays small).
#[test]
fn cold_start_report_is_byte_identical_at_any_segment_size() {
    let mut rng = proptest::new_rng(proptest::base_seed() ^ proptest::fnv("archive-roundtrip"));
    let mut draw = move || proptest::Strategy::generate(&(1u64..4000), &mut rng);
    let drawn: Vec<u64> = (0..3).map(|_| draw()).collect();
    assert_eq!(small(23).data.longest_chain(), 2712); // longest small chain (tezos)
    for segment_blocks in drawn.into_iter().chain([1, 2712, 4096]) {
        paths::check(Archived(segment_blocks), OneShot, 23);
    }
}

/// Re-sealing the same dataset twice produces byte-identical files — the
/// deterministic-export property every content hash depends on.
#[test]
fn archive_writes_are_deterministic() {
    let data = &small(23).data;
    let a = support::tempdir("archive-store", "det-a");
    let b = support::tempdir("archive-store", "det-b");
    write_archive(&a, data, "small", 321, SegmentFormat).expect("write a");
    write_archive(&b, data, "small", 321, SegmentFormat).expect("write b");
    for name in [SEG_FILE, IDX_FILE] {
        assert_eq!(
            std::fs::read(a.join(name)).expect("read a"),
            std::fs::read(b.join(name)).expect("read b"),
            "{name} differs between two writes of the same dataset"
        );
    }
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);

    // Golden pin of the sealed bytes themselves (recorded at commit
    // 512eccd, the last one that could cross-check them against a re-sealed
    // v1 corpus): any drift in the block column codecs, LZSS, the sidecar or
    // the index layout changes one of these integers.
    // Seeds 1 and 7 were added at commit ce575e6, before the generator was
    // optimised.
    for (seed, seg, idx) in [
        (
            42,
            (423722, 0x6991e7aab2c2e3e3),
            (15129, 0x206b57a76680210d),
        ),
        (1, (424669, 0x6023a73e6f9ff05e), (15211, 0x8ffa45ce369511c5)),
        (7, (425879, 0x1db65738c1a56ece), (15152, 0xa23592116d98cd80)),
    ] {
        let dir = support::tempdir("archive-store", &format!("pin-{seed}"));
        write_archive(&dir, &small(seed).data, "small", 256, SegmentFormat)
            .expect("write pinned corpus");
        let pin = |name: &str| {
            let bytes = std::fs::read(dir.join(name)).expect("read pinned file");
            (bytes.len(), txstat::types::ids::fnv1a64(&bytes))
        };
        assert_eq!(pin(SEG_FILE), seg, "archive.seg, small seed {seed}");
        assert_eq!(pin(IDX_FILE), idx, "archive.idx, small seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Write an `archive.idx` by hand: the layout `Archive::open` reads, at
/// an arbitrary format version, trailer hash intact.
fn write_index(dir: &Path, version: u32, manifest: &str, sidecar: &[u8], segs: &[SegmentMeta]) {
    let mut w = txstat::types::colcodec::ColWriter::new();
    for b in *b"TXAR" {
        w.byte(b);
    }
    w.u32(version);
    w.str(manifest);
    w.bytes(sidecar);
    w.u64(segs.len() as u64);
    for s in segs {
        for v in [s.start, s.end, s.offset, s.comp_len, s.raw_len, s.hash] {
            w.u64(v);
        }
    }
    let mut bytes = w.into_bytes();
    let hash = txstat::types::ids::fnv1a64(&bytes);
    bytes.extend_from_slice(&hash.to_le_bytes());
    std::fs::write(dir.join(IDX_FILE), bytes).expect("write index");
}

/// The retired wire-JSON corpus (index version 1, segment tag 1) is a
/// typed rejection at whichever layer meets it first — never a panic, never
/// a silent misread as columnar blobs.
#[test]
fn retired_v1_index_and_segment_are_typed_rejections() {
    use txstat::types::colcodec::ColWriter;
    use txstat::types::{ids::fnv1a64, lzss};
    let dir = support::tempdir("archive-store", "retired");
    synthetic_corpus(&dir, 2, 7);
    let good = Archive::open(&dir).expect("intact corpus opens");

    // The same corpus under a version-1 index.
    write_index(&dir, 1, good.manifest(), good.sidecar(), good.segments());
    assert!(matches!(
        Archive::open(&dir),
        Err(ArchiveError::UnsupportedVersion {
            found: 1,
            expected: 2
        })
    ));
    // The hand-written index is the real layout: version 2 opens again.
    write_index(&dir, 2, good.manifest(), good.sidecar(), good.segments());
    assert_eq!(
        Archive::open(&dir)
            .expect("rewritten index opens")
            .segments(),
        good.segments()
    );

    // A tag-1 segment (per-block wire-JSON byte strings), hash-consistent
    // with its index entry, exactly as the retired writer sealed it.
    let mut w = ColWriter::new();
    w.byte(1);
    w.u64(0);
    w.u64(2);
    for chain in [
        &[&b"{\"eos\":0}"[..], b"{\"eos\":1}"][..],
        &[b"{\"tz\":0}"],
        &[],
    ] {
        w.u64(chain.len() as u64);
        for block in chain {
            w.bytes(block);
        }
    }
    let raw = w.into_bytes();
    let comp = lzss::compress(&raw);
    let meta = SegmentMeta {
        start: 0,
        end: 2,
        offset: 0,
        comp_len: comp.len() as u64,
        raw_len: raw.len() as u64,
        hash: fnv1a64(&comp),
    };
    std::fs::write(dir.join(SEG_FILE), &comp).expect("write segment file");
    write_index(&dir, 2, good.manifest(), good.sidecar(), &[meta]);
    let archive = Archive::open(&dir).expect("hashes are consistent, so the open succeeds");
    match archive.replay_all() {
        Err(ArchiveError::SegCorrupt {
            segment: 0,
            at: 0,
            what,
            ..
        }) => {
            assert!(what.contains("bad segment tag 1"), "{what}");
        }
        other => panic!("expected SegCorrupt on the tag, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One socket worker cold-started from the corpus at `dir`, on an
/// ephemeral port. The accept loop is detached: it blocks in `accept`
/// until the test binary exits.
fn spawn_archived_worker(dir: &Path) -> String {
    let (ctx, _) = ShardContext::from_archive(dir).expect("worker cold start");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
    let addr = listener.local_addr().expect("worker addr").to_string();
    std::thread::spawn(move || {
        serve_assignments(&listener, None, Duration::from_secs(10), |a| {
            ctx.frames(a.meta.clone(), a.start, a.end, a.shards, a.payload)
        })
    });
    addr
}

/// `reduce --connect --archive` over two archived workers renders
/// `report --archive`'s bytes at seeds 1, 7 and 42, at 64, 128 and 256
/// positions a segment, with 1, 3, 8, `n` and `n + 5` chunks over `n`
/// segments, whether the chunks are cut on the segment boundaries (then
/// there are `min(chunks, n)` of them) or evenly by position, so that
/// workers sweep ragged edges.
#[test]
fn fleet_reduce_equals_report_archive_at_every_tiling() {
    for seed in [1, 7, 42] {
        let data = &small(seed).data;
        for segment_blocks in [64, 128, 256] {
            let tag = format!("fleet-{seed}-{segment_blocks}");
            let dir = support::tempdir("archive-store", &tag);
            write_archive(&dir, data, "small", segment_blocks, SegmentFormat).expect("seal");
            let (replayed, archive) = pipeline_from_archive(&dir).expect("cold start");
            let report = render_report(&replayed);
            let n = archive.segments().len();
            let ends: Vec<u64> = archive.segments().iter().map(|m| m.end).collect();
            let meta = ShardContext::from_archive(&dir).expect("manifest").1.meta;
            let workers = vec![spawn_archived_worker(&dir), spawn_archived_worker(&dir)];
            for chunks in [1, 3, 8, n, n + 5] {
                for aligned in [true, false] {
                    let case = format!("{tag}, {chunks} chunks, aligned {aligned}");
                    let (block_free, _) = streamed_from_archive(&dir).expect("reducer cold start");
                    let mut cfg = FleetConfig::new(workers.clone());
                    cfg.chunks = chunks;
                    if aligned {
                        cfg.segment_ends = ends.clone();
                    }
                    let total = block_free.longest_chain() as u64;
                    let labeled = reduce_fleet(&cfg, total, 2, PayloadFormat::Bin, meta.clone())
                        .unwrap_or_else(|e| panic!("{case}: {e}"));
                    if aligned {
                        assert_eq!(labeled.len(), 3 * chunks.min(n), "{case}");
                    }
                    let reduced = reduce_frames_labeled_into(block_free, &labeled)
                        .unwrap_or_else(|e| panic!("{case}: {e}"));
                    assert!(render_report(&reduced) == report, "{case}: report differs");
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A generated and an archived `ShardContext` answer an assignment with
/// the same frame bundle: small seed 7 (EOS 576 blocks, Tezos 2712, XRP
/// 146) sealed at 128 positions a segment, for a chunk that is one whole
/// segment, a ragged one cut inside a segment, one over four segments
/// that starts past the EOS and XRP heads, and one over three whole
/// segments, which the archived worker answers by merging three segment
/// states and the generated one by folding the blocks once: a merge sizes
/// its id columns as the one fold does. Each bundle is pinned as
/// `(length, fnv1a64)`.
#[test]
fn generated_and_archived_contexts_frame_every_chunk_alike() {
    use txstat::reports::scenario_meta;
    use txstat::types::ids::fnv1a64;
    use txstat::wire::encode_all;
    let pin = |bytes: &[u8]| (bytes.len(), fnv1a64(bytes));

    let generated = ShardContext::from(small(7).fresh());
    let dir = support::tempdir("archive-store", "cross-source");
    write_archive(&dir, &small(7).data, "small", 128, SegmentFormat).expect("seal");
    let (archived, _) = ShardContext::from_archive(&dir).expect("cold start");
    let meta = scenario_meta(&small(7).data.scenario, "small");
    let bundle = |ctx: &ShardContext, start: u64, end: u64| {
        let frames = ctx.frames(meta.clone(), start, end, 1, PayloadFormat::Bin);
        encode_all(&frames.expect("the context sweeps"))
    };
    for (what, start, end, want) in [
        ("one segment", 128, 256, (6217, 0xa7e1232a1cbfcc74)),
        ("ragged", 130, 250, (6044, 0x32da40c5d5a6adc7)),
        ("past two heads", 600, 1000, (1618, 0x92317b34aab453c1)),
        ("three segments", 128, 512, (18823, 0x6d6a2213851dc7ba)),
    ] {
        let archived = pin(&bundle(&archived, start, end));
        assert_eq!(archived, want, "{what}: archived [{start}, {end})");
        let generated = pin(&bundle(&generated, start, end));
        assert_eq!(generated, want, "{what}: generated [{start}, {end})");
    }
    // An inverted range, which a fleet peer can send, is the empty range at
    // its start from either source.
    for ctx in [&generated, &archived] {
        assert_eq!(bundle(ctx, 300, 200), bundle(ctx, 300, 300), "inverted");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
