//! The v2 columnar segment schema battery.
//!
//! 1. **Oracle round trip**: encoding any window of generated blocks into
//!    v2 columns and decoding it back writes the same wire JSON
//!    (`block_bytes(b)` / `ledger_bytes(b)`) for every chain — and the
//!    encoding is idempotent over its own decode.
//! 2. **Archive damage**: any flip or truncation of a sealed v2 corpus is
//!    caught by content hash with an error that localizes the damage.
//! 3. **Cache accounting**: the segment-state table behind
//!    `ShardContext::frames` counts exactly one hit or miss per segment an
//!    assignment covers whole, even under concurrent assignments.
//! 4. **Column damage**: the damage table's `block_cols` and frame payload
//!    rows (`support::rows`; `tests/damage.rs` walks them at the head,
//!    middle and tail) walked at two more windows, one mutator family per
//!    test, under this binary's allocation watch.

mod support;

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use support::rows::{all_payload_rows, block_rows, payloads, Window};
use support::{walk_some, Mutator};
use txstat::archive::{Archive, ArchiveError, IDX_FILE, SEG_FILE};
use txstat::eos::rpc_model as eos_rpc;
use txstat::reports::{generate, write_archive, PipelineData, SegmentFormat, ShardContext};
use txstat::tezos::rpc_model as tezos_rpc;
use txstat::wire::PayloadFormat;
use txstat::workload::Scenario;
use txstat::xrp::rpc_model as xrp_rpc;

#[global_allocator]
static WATCH: support::Watch = support::Watch;

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
            prop_assert_eq!(eos_rpc::block_bytes(d), eos_rpc::block_bytes(o));
        }
        prop_assert_eq!(txstat::eos::block_cols::encode_blocks(&decoded), bytes);

        let tezos = window(&data.tezos_blocks, start_frac, len);
        let bytes = txstat::tezos::block_cols::encode_blocks(tezos);
        let decoded = txstat::tezos::block_cols::decode_blocks(&bytes)
            .expect("valid tezos columns must decode");
        prop_assert_eq!(decoded.len(), tezos.len());
        for (d, o) in decoded.iter().zip(tezos) {
            prop_assert_eq!(tezos_rpc::block_bytes(d), tezos_rpc::block_bytes(o));
        }
        prop_assert_eq!(txstat::tezos::block_cols::encode_blocks(&decoded), bytes);

        let xrp = window(&data.xrp_blocks, start_frac, len);
        let bytes = txstat::xrp::block_cols::encode_blocks(xrp);
        let decoded = txstat::xrp::block_cols::decode_blocks(&bytes)
            .expect("valid xrp columns must decode");
        prop_assert_eq!(decoded.len(), xrp.len());
        for (d, o) in decoded.iter().zip(xrp) {
            prop_assert_eq!(xrp_rpc::ledger_bytes(d), xrp_rpc::ledger_bytes(o));
        }
        prop_assert_eq!(txstat::xrp::block_cols::encode_blocks(&decoded), bytes);
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

/// The 2-block windows the column walks below take, between the table's
/// head, middle and tail.
const QUARTERS: [Window; 2] = [("quarter", 0.25, 2), ("three quarters", 0.75, 2)];

fn counts(m: Mutator) -> bool {
    matches!(m, Mutator::HugeCount(_) | Mutator::ForgedCount(_))
}

/// A single bit flip in a v2 column blob either fails typed or decodes to
/// a *stable* value: re-encoding and re-decoding it is a fixpoint (no
/// panic, no drifting interpretation). Every bit of two two-block windows
/// per chain is flipped.
#[test]
fn v2_bit_flip_never_panics_and_never_drifts() {
    for row in block_rows(direct(), &QUARTERS) {
        walk_some(&row, |m| matches!(m, Mutator::BitFlip(_)));
    }
}

/// Forged counts in a v2 column blob are typed errors, never a panic or a
/// large reservation. Every varint of two two-block windows per chain is
/// set in turn to `u64::MAX` and to `2^50`: the blob fails typed or, where
/// that varint was a value and not a count, decodes to blocks of the
/// healthy shape. A count of 2^16 elements the bytes left can carry, cut
/// in at every offset, never decodes, and no decode asks for more than
/// `RESERVE_CAP` of the chain's widest element.
#[test]
fn v2_forged_counts_are_typed_and_reserve_at_most_the_cap() {
    for row in block_rows(direct(), &QUARTERS) {
        walk_some(&row, counts);
    }
}

/// Forged counts in a frame payload (the columnar accumulator a worker
/// encodes for every assignment) are typed errors, never a panic or a
/// large reservation: whatever decodes re-encodes to exactly the forged
/// bytes, and no decode asks for more than the payload's cap.
#[test]
fn frame_payload_forged_counts_are_typed_and_reserve_at_most_the_cap() {
    for row in all_payload_rows(payloads(direct(), &QUARTERS)) {
        walk_some(&row, counts);
    }
}

/// Truncating a 40-block v2 column blob at every offset is a typed error,
/// never a panic, never a silent success (exhaustive, not sampled).
#[test]
fn v2_truncation_at_every_offset_is_typed() {
    for row in block_rows(direct(), &[("first 40", 0.0, 40)]) {
        walk_some(&row, |m| m == Mutator::Truncation);
    }
}

/// Concurrent overlapping assignments against one archived
/// [`ShardContext`] keep the segment-state accounting exact: one hit or
/// miss per segment an assignment covers whole, none for its ragged
/// edges, and each such segment's state held once.
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
    let assignments: Vec<(u64, u64)> = (0..8u64)
        .map(|i| (i * total / 8, ((i + 2) * total / 8).min(total)))
        .collect();
    let whole = |(a, b): (u64, u64)| -> Vec<usize> {
        let segments = archive.segments();
        (0..segments.len())
            .filter(|&i| a <= segments[i].start && segments[i].end <= b)
            .collect()
    };
    let expected_lookups: u64 = assignments
        .iter()
        .map(|&range| 2 * whole(range).len() as u64)
        .sum();
    let mut held: Vec<usize> = assignments.iter().flat_map(|&r| whole(r)).collect();
    held.sort_unstable();
    held.dedup();
    let held = held.len() as u64;
    let segments = archive.segments().len() as u64;
    assert!(held > 0, "some assignment covers a segment whole");

    let (ctx, manifest) = ShardContext::from_archive(&dir).expect("cold start");
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
    let stats = ctx.cache_stats().expect("archived context has a table");
    assert_eq!(
        stats.hits + stats.misses,
        expected_lookups,
        "every segment covered whole is exactly one hit or one miss: {stats:?}"
    );
    assert_eq!(
        stats.entries, held,
        "every segment covered whole held once: {stats:?}"
    );

    // A sequential sweep of the whole corpus covers every segment whole:
    // the held ones hit, the rest are swept once each.
    ctx.frames(manifest.meta.clone(), 0, total, 2, PayloadFormat::Bin)
        .expect("sweep");
    let again = ctx.cache_stats().expect("table");
    assert_eq!(
        (again.hits, again.misses, again.entries),
        (stats.hits + held, stats.misses + segments - held, segments),
        "{again:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
