//! The v2 columnar segment schema battery.
//!
//! 1. **Oracle round trip**: encoding any window of generated blocks into
//!    v2 columns and decoding it back writes the same wire JSON
//!    (`block_bytes(b)` / `ledger_bytes(b)`) for every chain — and the
//!    encoding is idempotent over its own decode.
//! 2. **Damage**: truncating a v2 column blob at *every* offset is a
//!    typed error, never a panic; a single bit flip either errors or
//!    decodes to a stable (re-encodable, re-decodable) value — and at the
//!    archive layer any flip or truncation of a sealed v2 corpus is
//!    caught by content hash with an error that localizes the damage.
//! 3. **Cache accounting**: the segment-state table behind
//!    `ShardContext::frames` counts exactly one hit or miss per segment an
//!    assignment covers whole, even under concurrent assignments.
//! 4. **Forged counts**: a count or length set to `u64::MAX` or `2^50` is a
//!    typed error, and a count the bytes left can carry reserves room for
//!    at most the decoders' cap of elements (watched through this test
//!    binary's allocator) — in the block columns and in the frame
//!    payloads alike.

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, noting the largest single request a thread makes
/// while [`largest_allocation`] watches it.
struct Watch;

thread_local! {
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| {
        if let Some(largest) = l.get() {
            l.set(Some(largest.max(size)));
        }
    });
}

unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static WATCH: Watch = Watch;

/// `f`'s result and the largest single allocation it requested.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(Some(0)));
    let out = f();
    (out, LARGEST.with(|l| l.take()).unwrap_or(0))
}

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use txstat::archive::{Archive, ArchiveError, IDX_FILE, SEG_FILE};
use txstat::eos::rpc_model as eos_rpc;
use txstat::reports::{generate, write_archive, PipelineData, SegmentFormat, ShardContext};
use txstat::tezos::rpc_model as tezos_rpc;
use txstat::wire::PayloadFormat;
use txstat::workload::Scenario;
use txstat::xrp::rpc_model as xrp_rpc;

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
        walk(
            "eos",
            &data.eos_blocks,
            cols::encode_blocks,
            cols::decode_blocks,
        );
    }
    {
        use txstat::tezos::block_cols as cols;
        walk(
            "tezos",
            &data.tezos_blocks,
            cols::encode_blocks,
            cols::decode_blocks,
        );
    }
    {
        use txstat::xrp::block_cols as cols;
        walk(
            "xrp",
            &data.xrp_blocks,
            cols::encode_blocks,
            cols::decode_blocks,
        );
    }
}

/// The most elements a `block_cols` decoder reserves room for before any
/// has decoded.
const RESERVE_CAP: usize = 1024;

/// Forged counts in a v2 column blob are typed errors, never a panic or a
/// large reservation. Every varint of three two-block windows per chain
/// (head, middle, tail) is set in turn to `u64::MAX` and to `2^50`: the
/// blob fails typed or, where that varint was a value and not a count,
/// decodes to blocks of the healthy shape. Then the blob is cut at every
/// offset and continued by a count of 2^16 elements that the bytes left
/// can carry but whose first element never decodes: no decode asks for
/// more than the cap of the chain's largest element, where reserving the
/// whole count would (a name table alone would take 512 KiB).
#[test]
fn v2_forged_counts_are_typed_and_reserve_at_most_the_cap() {
    use std::mem::size_of;
    use txstat::types::colcodec::ColError;
    fn walk<B>(
        chain: &str,
        blocks: &[B],
        encode: fn(&[B]) -> Vec<u8>,
        decode: fn(&[u8]) -> Result<Vec<B>, ColError>,
        shape: fn(&[B]) -> Vec<usize>,
        largest_elem: usize,
    ) {
        let bound = RESERVE_CAP * largest_elem;
        for start_frac in [0.0, 0.5, 1.0] {
            let healthy = encode(window(blocks, start_frac, 2));
            let want = shape(&decode(&healthy).expect("healthy columns decode"));
            for value in [u64::MAX, 1 << 50] {
                for (at, forged) in support::huge_counts(&healthy, value).enumerate() {
                    let (decoded, largest) = largest_allocation(|| decode(&forged));
                    if let Ok(blocks) = decoded {
                        assert_eq!(
                            shape(&blocks),
                            want,
                            "{chain} at {start_frac}: {value} at {at}"
                        );
                    }
                    assert!(
                        largest <= bound,
                        "{chain}: {value} at {at} asked for {largest} bytes"
                    );
                }
            }
            for (at, forged) in support::forged_counts(&healthy, 1 << 16, 4).enumerate() {
                let (decoded, largest) = largest_allocation(|| decode(&forged));
                assert!(
                    decoded.is_err(),
                    "{chain} at {start_frac}: count forged at {at} decoded"
                );
                assert!(
                    largest <= bound,
                    "{chain}: count forged at {at} asked for {largest} bytes"
                );
            }
        }
    }
    let data = direct();
    {
        use txstat::eos::{block_cols as cols, Action, Block, Name, Transaction};
        use txstat::types::amount::SymCode;
        walk(
            "eos",
            &data.eos_blocks,
            cols::encode_blocks,
            cols::decode_blocks,
            |blocks: &[Block]| {
                let txs = blocks.iter().flat_map(|b| &b.transactions);
                let counts = blocks.iter().map(|b| b.transactions.len());
                [blocks.len()]
                    .into_iter()
                    .chain(counts)
                    .chain(txs.map(|t| t.actions.len()))
                    .collect()
            },
            [
                size_of::<Block>(),
                size_of::<Transaction>(),
                size_of::<Action>(),
                size_of::<Name>(),
                size_of::<SymCode>(),
            ]
            .into_iter()
            .max()
            .unwrap_or(0),
        );
    }
    {
        use txstat::tezos::{block_cols as cols, Address, Operation, TezosBlock};
        walk(
            "tezos",
            &data.tezos_blocks,
            cols::encode_blocks,
            cols::decode_blocks,
            |blocks: &[TezosBlock]| {
                let counts = blocks.iter().map(|b| b.operations.len());
                [blocks.len()].into_iter().chain(counts).collect()
            },
            [
                size_of::<TezosBlock>(),
                size_of::<Operation>(),
                size_of::<Address>(),
                size_of::<String>(),
            ]
            .into_iter()
            .max()
            .unwrap_or(0),
        );
    }
    {
        use txstat::xrp::{block_cols as cols, AccountId, AppliedTx, IssuedCurrency, LedgerBlock};
        walk(
            "xrp",
            &data.xrp_blocks,
            cols::encode_blocks,
            cols::decode_blocks,
            |blocks: &[LedgerBlock]| {
                let counts = blocks.iter().map(|b| b.transactions.len());
                [blocks.len()].into_iter().chain(counts).collect()
            },
            [
                size_of::<LedgerBlock>(),
                size_of::<AppliedTx>(),
                size_of::<AccountId>(),
                size_of::<IssuedCurrency>(),
            ]
            .into_iter()
            .max()
            .unwrap_or(0),
        );
    }
}

/// Forged counts in a frame payload — the columnar accumulator a worker
/// merges from its segment states and encodes for every assignment — are
/// typed errors, never a panic or a large reservation. Real payloads of
/// three two-block windows per chain (head, middle, tail) are walked like
/// the block columns above: every varint set in turn to `u64::MAX` and to
/// `2^50` fails typed or decodes to a state that re-encodes to exactly the
/// forged bytes (a value, not a count, was forged), and a count of 2^16
/// elements cut in at every offset fails typed. No decode asks for more
/// than the cap of the payload's largest element.
#[test]
fn frame_payload_forged_counts_are_typed_and_reserve_at_most_the_cap() {
    use std::mem::size_of;
    use txstat::core::{EosColumnar, TezosColumnar, WireState, XrpColumnar};
    fn walk<A: WireState>(chain: &str, payloads: &[Vec<u8>], largest_elem: usize) {
        let bound = RESERVE_CAP * largest_elem;
        for (w, healthy) in payloads.iter().enumerate() {
            let (decoded, largest) = largest_allocation(|| A::from_wire_bytes(healthy));
            let reencoded = decoded.expect("healthy payload decodes").to_wire_bytes();
            assert_eq!(&reencoded, healthy, "{chain} window {w} re-encodes");
            assert!(largest <= bound, "{chain}: healthy asked for {largest}");
            for value in [u64::MAX, 1 << 50] {
                for (at, forged) in support::huge_counts(healthy, value).enumerate() {
                    let (decoded, largest) = largest_allocation(|| A::from_wire_bytes(&forged));
                    if let Ok(acc) = decoded {
                        assert!(
                            acc.to_wire_bytes() == forged,
                            "{chain} window {w}: {value} at {at} decoded to another shape"
                        );
                    }
                    assert!(
                        largest <= bound,
                        "{chain}: {value} at {at} asked for {largest} bytes"
                    );
                }
            }
            for (at, forged) in support::forged_counts(healthy, 1 << 16, 4).enumerate() {
                let (decoded, largest) = largest_allocation(|| A::from_wire_bytes(&forged));
                assert!(
                    decoded.is_err(),
                    "{chain} window {w}: count forged at {at} decoded"
                );
                assert!(
                    largest <= bound,
                    "{chain}: count forged at {at} asked for {largest} bytes"
                );
            }
        }
    }
    fn payloads<B, A: WireState>(blocks: &[B], fold: impl Fn(&[B]) -> A) -> Vec<Vec<u8>> {
        [0.0, 0.5, 1.0]
            .map(|start_frac| fold(window(blocks, start_frac, 2)).to_wire_bytes())
            .to_vec()
    }
    let data = direct();
    let period = data.scenario.period;
    // The widest element any of the three decoders reserves room for:
    // a Tezos governance event, a 4-wide series row, an `i128` tally.
    let largest_elem = [
        size_of::<(
            txstat::types::time::ChainTime,
            String,
            txstat::tezos::Address,
        )>(),
        size_of::<[u64; 4]>(),
        size_of::<i128>(),
    ]
    .into_iter()
    .max()
    .unwrap_or(0);
    walk::<EosColumnar>(
        "eos",
        &payloads(&data.eos_blocks, |run| {
            let mut acc = EosColumnar::new(period);
            run.iter().for_each(|b| acc.observe(b));
            acc
        }),
        largest_elem,
    );
    walk::<TezosColumnar>(
        "tezos",
        &payloads(&data.tezos_blocks, |run| {
            let mut acc = TezosColumnar::new(period, data.governance_periods.clone());
            run.iter().for_each(|b| acc.observe(b));
            acc
        }),
        largest_elem,
    );
    walk::<XrpColumnar>(
        "xrp",
        &payloads(&data.xrp_blocks, |run| {
            let mut acc = XrpColumnar::new(period);
            run.iter().for_each(|b| acc.observe(b, &data.oracle));
            acc
        }),
        largest_elem,
    );
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
            let err =
                err.unwrap_or_else(|| panic!("{chain} columns truncated at {cut} decoded cleanly"));
            assert!(!format!("{err}").is_empty());
        }
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
