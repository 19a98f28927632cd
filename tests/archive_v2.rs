//! The v2 columnar segment schema battery.
//!
//! 1. **Oracle round trip**: encoding any window of generated blocks into
//!    v2 columns and decoding it back equals the wire-JSON oracle
//!    (`block_from_json(block_to_json(b))`) for every chain — and the
//!    encoding is idempotent over its own decode.
//! 2. **Damage**: truncating a v2 column blob at *every* offset is a
//!    typed error, never a panic; a single bit flip either errors or
//!    decodes to a stable (re-encodable, re-decodable) value — and at the
//!    archive layer any flip or truncation of a sealed v2 corpus is
//!    caught by content hash with an error that localizes the damage.
//! 3. **Cache accounting**: the decoded-segment LRU behind
//!    `ShardContext::frames` counts exactly one hit or miss per covering
//!    segment per assignment, even under concurrent assignments.

mod support;

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use txstat::archive::{Archive, ArchiveError, IDX_FILE, SEG_FILE};
use txstat::reports::archive_io::{eos_block_bytes, tezos_block_bytes, xrp_block_bytes};
use txstat::reports::{generate, write_archive, PipelineData, SegmentFormat, ShardContext};
use txstat::wire::PayloadFormat;
use txstat::workload::Scenario;

/// The shared direct dataset (generation dominates test cost).
fn direct() -> &'static PipelineData {
    static DIRECT: OnceLock<PipelineData> = OnceLock::new();
    DIRECT.get_or_init(|| generate(&Scenario::small(23)))
}

/// A `len`-bounded window of `blocks` whose start is drawn by fraction,
/// so proptest shrinks toward the chain's head.
fn window<T>(blocks: &[T], start_frac: f64, len: usize) -> &[T] {
    let start = ((blocks.len().saturating_sub(1)) as f64 * start_frac) as usize;
    &blocks[start..(start + len).min(blocks.len())]
}

proptest! {
    /// v2 encode → decode equals the wire-JSON oracle for every chain,
    /// and re-encoding the decode reproduces the bytes exactly.
    #[test]
    fn v2_roundtrip_matches_wire_json_oracle(
        start_frac in 0.0f64..1.0,
        len in 1usize..300,
    ) {
        let data = direct();

        let eos = window(&data.eos_blocks, start_frac, len);
        let bytes = txstat::eos::block_cols::encode_blocks(eos);
        let decoded = txstat::eos::block_cols::decode_blocks(&bytes)
            .expect("valid eos columns must decode");
        prop_assert_eq!(decoded.len(), eos.len());
        for (d, o) in decoded.iter().zip(eos) {
            prop_assert_eq!(eos_block_bytes(d), eos_block_bytes(o));
        }
        prop_assert_eq!(txstat::eos::block_cols::encode_blocks(&decoded), bytes);

        let tezos = window(&data.tezos_blocks, start_frac, len);
        let bytes = txstat::tezos::block_cols::encode_blocks(tezos);
        let decoded = txstat::tezos::block_cols::decode_blocks(&bytes)
            .expect("valid tezos columns must decode");
        prop_assert_eq!(decoded.len(), tezos.len());
        for (d, o) in decoded.iter().zip(tezos) {
            prop_assert_eq!(tezos_block_bytes(d), tezos_block_bytes(o));
        }
        prop_assert_eq!(txstat::tezos::block_cols::encode_blocks(&decoded), bytes);

        let xrp = window(&data.xrp_blocks, start_frac, len);
        let bytes = txstat::xrp::block_cols::encode_blocks(xrp);
        let decoded = txstat::xrp::block_cols::decode_blocks(&bytes)
            .expect("valid xrp columns must decode");
        prop_assert_eq!(decoded.len(), xrp.len());
        for (d, o) in decoded.iter().zip(xrp) {
            prop_assert_eq!(xrp_block_bytes(d), xrp_block_bytes(o));
        }
        prop_assert_eq!(txstat::xrp::block_cols::encode_blocks(&decoded), bytes);
    }
}

/// A single bit flip in a v2 column blob either fails typed or decodes to
/// a *stable* value: re-encoding and re-decoding it is a fixpoint (no
/// panic, no drifting interpretation). Column-level damage only reaches
/// this decoder when the archive's segment content hash has already
/// passed, so the flip case is pure defense in depth. Every bit of three
/// two-block windows per chain (head, middle, tail) is flipped.
#[test]
fn v2_bit_flip_never_panics_and_never_drifts() {
    use txstat::types::colcodec::ColError;
    fn walk<B>(
        chain: &str,
        blocks: &[B],
        encode: fn(&[B]) -> Vec<u8>,
        decode: fn(&[u8]) -> Result<Vec<B>, ColError>,
    ) {
        for start_frac in [0.0, 0.5, 1.0] {
            let healthy = encode(window(blocks, start_frac, 2));
            for (bit, damaged) in support::bit_flips(&healthy).enumerate() {
                if let Ok(blocks) = decode(&damaged) {
                    let re = encode(&blocks);
                    let again = decode(&re).expect("re-encoded decode output must decode");
                    assert_eq!(encode(&again), re, "{chain} at {start_frac}, bit {bit}");
                }
            }
        }
    }
    let data = direct();
    {
        use txstat::eos::block_cols as cols;
        walk("eos", &data.eos_blocks, cols::encode_blocks, cols::decode_blocks);
    }
    {
        use txstat::tezos::block_cols as cols;
        walk("tezos", &data.tezos_blocks, cols::encode_blocks, cols::decode_blocks);
    }
    {
        use txstat::xrp::block_cols as cols;
        walk("xrp", &data.xrp_blocks, cols::encode_blocks, cols::decode_blocks);
    }
}

proptest! {
    /// Damaging a sealed v2 corpus — truncation or a single bit flip in
    /// either file — is a typed [`ArchiveError`], never a panic, and
    /// segment-file damage localizes itself (segment / offset / byte).
    /// The pristine corpus is sealed once and copied per case; at 440 KB it
    /// is sampled, not walked (`tests/archive_store.rs` walks every bit of
    /// small corpora through the same two calls).
    #[test]
    fn v2_archive_damage_is_typed_and_localized(
        hit_index in any::<bool>(),
        truncate in any::<bool>(),
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let sealed = sealed_v2();
        let case = (frac * 1e9) as u64 ^ bit as u64;
        let dir = support::tempdir("archive-v2", &format!("damage-{case}"));
        std::fs::create_dir_all(&dir).expect("damage dir");
        for name in [SEG_FILE, IDX_FILE] {
            std::fs::copy(sealed.join(name), dir.join(name)).expect("copy corpus file");
        }
        let path = dir.join(if hit_index { IDX_FILE } else { SEG_FILE });
        let mut bytes = std::fs::read(&path).expect("read corpus file");
        if truncate {
            let keep = ((bytes.len() as f64) * frac) as usize;
            bytes.truncate(keep.min(bytes.len() - 1));
        } else {
            let at = (((bytes.len() - 1) as f64) * frac) as usize;
            bytes[at] ^= 1 << bit;
        }
        std::fs::write(&path, &bytes).expect("write damaged file");

        let result: Result<usize, ArchiveError> =
            Archive::open(&dir).and_then(|a| a.replay_all().map(|segs| segs.len()));
        let err = result.expect_err("a damaged v2 archive must not replay cleanly");
        let msg = format!("{err}");
        prop_assert!(!msg.is_empty());
        if !hit_index {
            prop_assert!(
                msg.contains("segment") || msg.contains("offset") || msg.contains("byte"),
                "segment-file damage error does not localize: {msg}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

}

/// The shared pristine v2 corpus the damage property copies from (sealed
/// once; left in the temp dir for the process lifetime).
fn sealed_v2() -> &'static PathBuf {
    static SEALED: OnceLock<PathBuf> = OnceLock::new();
    SEALED.get_or_init(|| {
        let data = direct();
        let dir = support::tempdir("archive-v2", "sealed");
        write_archive(&dir, data, "small", 512, SegmentFormat).expect("seal v2");
        dir
    })
}

/// Truncating a v2 column blob at every offset is a typed error — never
/// a panic, never a silent success (exhaustive, not sampled).
#[test]
fn v2_truncation_at_every_offset_is_typed() {
    let data = direct();
    let n = 40.min(data.eos_blocks.len());
    let blobs = [
        txstat::eos::block_cols::encode_blocks(&data.eos_blocks[..n]),
        txstat::tezos::block_cols::encode_blocks(&data.tezos_blocks[..n]),
        txstat::xrp::block_cols::encode_blocks(&data.xrp_blocks[..n]),
    ];
    for (chain, bytes) in ["eos", "tezos", "xrp"].iter().zip(&blobs) {
        for (cut, prefix) in support::truncations(bytes).enumerate() {
            let err = match *chain {
                "eos" => txstat::eos::block_cols::decode_blocks(prefix).err(),
                "tezos" => txstat::tezos::block_cols::decode_blocks(prefix).err(),
                _ => txstat::xrp::block_cols::decode_blocks(prefix).err(),
            };
            let err = err
                .unwrap_or_else(|| panic!("{chain} columns truncated at {cut} decoded cleanly"));
            assert!(!format!("{err}").is_empty());
        }
    }
}

/// Concurrent overlapping assignments against one archived
/// [`ShardContext`] keep the decoded-segment cache's accounting exact:
/// one hit or miss per covering segment per assignment, no more.
#[test]
fn cache_accounting_exact_under_concurrent_assignments() {
    let data = direct();
    let dir = support::tempdir("archive-v2", "cache");
    write_archive(&dir, data, "small", 128, SegmentFormat).expect("seal v2");
    let archive = Archive::open(&dir).expect("open for covering counts");
    let total = data
        .eos_blocks
        .len()
        .max(data.tezos_blocks.len())
        .max(data.xrp_blocks.len()) as u64;

    // Overlapping strided ranges, swept twice from 4 threads.
    let assignments: Vec<(u64, u64)> =
        (0..8u64).map(|i| (i * total / 8, ((i + 2) * total / 8).min(total))).collect();
    let expected_lookups: u64 = assignments
        .iter()
        .cycle()
        .take(assignments.len() * 2)
        .map(|&(a, b)| {
            let (lo, hi) = archive.covering(a, b);
            (hi - lo) as u64
        })
        .sum();
    let distinct: usize = {
        let (lo, hi) = archive.covering(0, total);
        hi - lo
    };

    // An effectively unbounded budget: every decode stays resident.
    let (ctx, manifest) = ShardContext::from_archive_with(&dir, u64::MAX / (1024 * 1024))
        .expect("cold start");
    std::thread::scope(|scope| {
        for chunk in assignments.chunks(2) {
            let ctx = &ctx;
            let meta = manifest.meta.clone();
            scope.spawn(move || {
                for _round in 0..2 {
                    for &(a, b) in chunk {
                        ctx.frames(meta.clone(), a, b, 2, PayloadFormat::Bin)
                            .expect("assignment sweep");
                    }
                }
            });
        }
    });
    let stats = ctx.cache_stats().expect("archived context has a cache");
    assert_eq!(
        stats.hits + stats.misses,
        expected_lookups,
        "every covering segment is exactly one hit or one miss: {stats:?}"
    );
    assert_eq!(stats.evictions, 0, "unbounded budget must not evict: {stats:?}");
    assert_eq!(stats.entries as usize, distinct, "all distinct segments resident: {stats:?}");
    let resident: u64 =
        archive.segments().iter().map(|m| m.raw_len).sum();
    assert_eq!(stats.bytes, resident, "resident bytes are the summed segment costs");

    // A zero budget keeps only the newest decode resident and evicts on
    // every insert beyond the first.
    let (ctx0, manifest0) = ShardContext::from_archive_with(&dir, 0).expect("cold start");
    ctx0.frames(manifest0.meta.clone(), 0, total, 2, PayloadFormat::Bin).expect("sweep");
    let s0 = ctx0.cache_stats().expect("cache");
    assert_eq!(s0.misses, distinct as u64);
    assert_eq!(s0.entries, 1, "zero budget keeps exactly the newest entry: {s0:?}");
    assert_eq!(s0.evictions, distinct as u64 - 1);

    let _ = std::fs::remove_dir_all(&dir);
}
