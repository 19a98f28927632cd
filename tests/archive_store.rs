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

mod support;

use std::path::Path;
use std::sync::OnceLock;
use support::{bit_flips, truncations};
use txstat::archive::{
    Archive, ArchiveError, ArchiveWriter, SegmentBlocks, SegmentMeta, IDX_FILE, SEG_FILE,
};
use txstat::reports::{
    generate, pipeline_from_archive, render_report, write_archive, PipelineData, SegmentFormat,
};
use txstat::workload::Scenario;

/// A tiny deterministic corpus: `segs` segments of 2 positions each whose
/// per-chain column blobs are opaque bytes derived from `seed` (the
/// archive layer never interprets them; every other Tezos run is empty,
/// like a chain that ended early).
fn synthetic_corpus(dir: &Path, segs: usize, seed: u64) {
    let mut w = ArchiveWriter::create(dir, "{\"synthetic\":true}", &seed.to_le_bytes())
        .expect("create corpus");
    for i in 0..segs {
        let start = (i * 2) as u64;
        let blob = |chain: u64| -> Vec<u8> {
            let x = seed ^ (chain << 32) ^ (start << 8);
            x.to_le_bytes().iter().cycle().take(16 + (x % 48) as usize).copied().collect()
        };
        let seg = SegmentBlocks {
            start,
            end: start + 2,
            eos: blob(1),
            tezos: if i % 2 == 0 { blob(2) } else { Vec::new() },
            xrp: blob(3),
        };
        w.append(&seg).expect("append segment");
    }
    w.seal().expect("seal corpus");
}

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
        assert_eq!(open_and_replay(&dir).expect("restored corpus replays"), segs);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Truncation at any offset of either file is a typed error, never a
/// panic — and never a silent success.
#[test]
fn truncation_at_any_offset_is_a_typed_error() {
    each_corpus_file("trunc", |dir, path, healthy| {
        for (cut, prefix) in truncations(healthy).enumerate() {
            std::fs::write(path, prefix).expect("truncate corpus file");
            let err =
                open_and_replay(dir).expect_err("a truncated archive must not open cleanly");
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
        for (bit, damaged) in bit_flips(healthy).enumerate() {
            std::fs::write(path, &damaged).expect("write damaged file");
            match open_and_replay(dir) {
                Ok(n) => panic!("bit {bit} of {path:?} flipped, {n} segments replayed cleanly"),
                Err(err) => assert!(!format!("{err}").is_empty()),
            }
        }
    });
}

/// The direct dataset and its one-shot report, computed once for every
/// round-trip case below (generation dominates the test's cost).
fn direct() -> &'static (PipelineData, String) {
    static DIRECT: OnceLock<(PipelineData, String)> = OnceLock::new();
    DIRECT.get_or_init(|| {
        let data = generate(&Scenario::small(23));
        let report = render_report(&data);
        (data, report)
    })
}

/// Archive → cold-start → report is byte-identical to the direct
/// pipeline at random segment sizes (a hand-rolled property: generation
/// dominates the cost, so the dataset is shared and the case count
/// stays small — three deterministically drawn sizes plus the edges).
#[test]
fn cold_start_report_is_byte_identical_at_any_segment_size() {
    let mut rng =
        proptest::new_rng(proptest::base_seed() ^ proptest::fnv("archive-roundtrip"));
    let mut draw = move || proptest::Strategy::generate(&(1u64..4000), &mut rng);
    let drawn: Vec<u64> = (0..3).map(|_| draw()).collect();
    let (data, report) = direct();
    for segment_blocks in drawn.into_iter().chain([1, 2712, 4096]) {
        let dir = support::tempdir("archive-store", &format!("roundtrip-{segment_blocks}"));
        let stats = write_archive(&dir, data, "small", segment_blocks, SegmentFormat)
            .expect("write archive");
        assert_eq!(stats.total_positions, 2712); // longest small chain (tezos)
        let expect_segments = 2712_u64.div_ceil(segment_blocks);
        assert_eq!(stats.segments as u64, expect_segments);

        let (replayed, archive) = pipeline_from_archive(&dir).expect("cold start");
        assert_eq!(archive.segments().len() as u64, expect_segments);
        assert_eq!(replayed.eos_blocks.len(), data.eos_blocks.len());
        assert_eq!(replayed.tezos_blocks.len(), data.tezos_blocks.len());
        assert_eq!(replayed.xrp_blocks.len(), data.xrp_blocks.len());
        let cold = render_report(&replayed);
        assert_eq!(
            &cold, report,
            "cold-started report differs at segment size {segment_blocks}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Re-sealing the same dataset twice produces byte-identical files — the
/// deterministic-export property every content hash depends on.
#[test]
fn archive_writes_are_deterministic() {
    let (data, _) = direct();
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
        (42, (423722, 0x6991e7aab2c2e3e3), (15129, 0x206b57a76680210d)),
        (1, (424669, 0x6023a73e6f9ff05e), (15211, 0x8ffa45ce369511c5)),
        (7, (425879, 0x1db65738c1a56ece), (15152, 0xa23592116d98cd80)),
    ] {
        let dir = support::tempdir("archive-store", &format!("pin-{seed}"));
        write_archive(&dir, &generate(&Scenario::small(seed)), "small", 256, SegmentFormat)
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
        Err(ArchiveError::UnsupportedVersion { found: 1, expected: 2 })
    ));
    // The hand-written index is the real layout: version 2 opens again.
    write_index(&dir, 2, good.manifest(), good.sidecar(), good.segments());
    assert_eq!(Archive::open(&dir).expect("rewritten index opens").segments(), good.segments());

    // A tag-1 segment (per-block wire-JSON byte strings), hash-consistent
    // with its index entry, exactly as the retired writer sealed it.
    let mut w = ColWriter::new();
    w.byte(1);
    w.u64(0);
    w.u64(2);
    for chain in [&[&b"{\"eos\":0}"[..], b"{\"eos\":1}"][..], &[b"{\"tz\":0}"], &[]] {
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
        Err(ArchiveError::SegCorrupt { segment: 0, at: 0, what, .. }) => {
            assert!(what.contains("bad segment tag 1"), "{what}");
        }
        other => panic!("expected SegCorrupt on the tag, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
