//! The one damage harness (ROADMAP item 4(a)): the labelled [`mutations`]
//! of a healthy input, and [`walk`], which runs one decoder row over all of
//! them under the largest-allocation [`Watch`]. `tests/damage.rs` holds the
//! table and installs the watch. Its rows: the three
//! `block_cols::decode_blocks`, the three `*Columnar::from_wire_bytes`,
//! `ShardFrame::decode`, `fleet::read_assignment`, `fleet::read_response`,
//! `decode_memo`, `archive.idx` through `Archive::open` + `replay_all`,
//! `SegmentSummary::decode` and `lzss::decompress`. The column decoders'
//! rows are built in [`rows`], so `archive_v2.rs` and `wire_reduce.rs` walk
//! them too, at other windows and one mutator family per test, through
//! [`walk_some`]. The file-, heal- and socket-level walks of
//! `archive_store.rs`, `archive_memo.rs` and `failure_injection.rs` draw
//! their damage from [`mutations`] too.
//!
//! Each integration test is its own crate and uses what it needs.
#![allow(dead_code)]

pub mod rows;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use txstat::archive::{ArchiveWriter, SegmentBlocks};
use txstat::types::colcodec::ColWriter;

/// The system allocator, noting the largest single request a thread makes
/// while [`largest_allocation`] watches it.
pub struct Watch;

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

/// `f`'s result and the largest single allocation it requested.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(Some(0)));
    let out = f();
    (out, LARGEST.with(|l| l.take()).unwrap_or(0))
}

/// How a decoder writes its counts and lengths, and so how the count
/// mutators write theirs.
#[derive(Debug, Clone, Copy)]
pub enum Count {
    /// Canonical LEB128, as the columnar formats write every integer.
    Leb128,
    /// Fixed-width u32 LE, as the `TXSF` / `TXSQ` / `TXSP` section lengths.
    U32Le,
}

impl Count {
    fn encode(self, value: u64) -> Vec<u8> {
        match self {
            Count::Leb128 => {
                let mut w = ColWriter::new();
                w.u64(value);
                w.into_bytes()
            }
            Count::U32Le => (value.min(u32::MAX as u64) as u32).to_le_bytes().to_vec(),
        }
    }

    /// The huge values: `u64::MAX` and `2^50`, or at u32 width `u32::MAX`
    /// and `2^31`.
    fn huge(self) -> [u64; 2] {
        match self {
            Count::Leb128 => [u64::MAX, 1 << 50],
            Count::U32Le => [u32::MAX as u64, 1 << 31],
        }
    }

    /// The bytes a count at the front of `rest` takes, if one fits there.
    fn width(self, rest: &[u8]) -> Option<usize> {
        match self {
            Count::Leb128 => Some(
                rest.iter()
                    .position(|b| b & 0x80 == 0)
                    .map_or(rest.len(), |i| i + 1),
            ),
            Count::U32Le => (rest.len() >= 4).then_some(4),
        }
    }
}

/// The four mutators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutator {
    /// The input cut at the offset: a strict prefix.
    Truncation,
    /// One bit (0 = least significant) of the byte at the offset flipped.
    BitFlip(u8),
    /// The count starting at the offset set to this huge value.
    HugeCount(u64),
    /// The input cut at the offset and continued by this count, then by
    /// bytes 0x80 (a continuation byte, so no varint there ever ends): at a
    /// count field, a count the bytes left can carry whose first element
    /// never decodes.
    ForgedCount(u64),
}

/// One damaged copy of a healthy input; `mutator` and `at` (the offset the
/// damage starts at) are its label.
pub struct Mutation {
    pub mutator: Mutator,
    pub at: usize,
    pub bytes: Vec<u8>,
}

/// Every mutation of `healthy` whose mutator `keep` takes (a mutation is
/// only built once taken), counts written as `count` says: each strict
/// prefix, shortest first; each single-bit flip, in bit order; each
/// offset's count set to the two huge values; a count of 2^16 with room for
/// as many four-byte elements cut in at each offset. A mutation that leaves
/// the healthy bytes whole (at most appending to them) damages nothing and
/// is skipped.
pub fn mutations<'a>(
    healthy: &'a [u8],
    count: Count,
    keep: impl Fn(Mutator) -> bool + Copy + 'a,
) -> impl Iterator<Item = Mutation> + 'a {
    let cuts = (0..healthy.len())
        .filter(move |_| keep(Mutator::Truncation))
        .map(|at| Mutation {
            mutator: Mutator::Truncation,
            at,
            bytes: healthy[..at].to_vec(),
        });
    let flips = (0..healthy.len() * 8).filter_map(move |bit| {
        let (mutator, at) = (Mutator::BitFlip((bit % 8) as u8), bit / 8);
        keep(mutator).then(|| {
            let mut bytes = healthy.to_vec();
            bytes[at] ^= 1 << (bit % 8);
            Mutation { mutator, at, bytes }
        })
    });
    let huge = count.huge().into_iter().flat_map(move |value| {
        let encoded = count.encode(value);
        let mutator = Mutator::HugeCount(value);
        (0..healthy.len()).filter_map(move |at| {
            keep(mutator).then_some(())?;
            let rest = &healthy[at + count.width(&healthy[at..])?..];
            let bytes = [&healthy[..at], &encoded, rest].concat();
            (!bytes.starts_with(healthy)).then_some(Mutation { mutator, at, bytes })
        })
    });
    cuts.chain(flips)
        .chain(huge)
        .chain(forged_counts(healthy, 1 << 16, 1 << 18, count, keep))
}

/// `bytes` cut at each offset and continued by `count`, written as
/// `encoding` says, then by `padding` bytes 0x80 (skipped where that leaves
/// `bytes` whole), unless `keep` refuses forged counts of `count`.
fn forged_counts<'a>(
    bytes: &'a [u8],
    count: u64,
    padding: usize,
    encoding: Count,
    keep: impl Fn(Mutator) -> bool,
) -> impl Iterator<Item = Mutation> + 'a {
    let mutator = Mutator::ForgedCount(count);
    let ats = if keep(mutator) { 0..bytes.len() } else { 0..0 };
    let tail = [encoding.encode(count), vec![0x80; padding]].concat();
    ats.filter_map(move |at| {
        let forged = [&bytes[..at], &tail].concat();
        (!forged.starts_with(bytes)).then_some(Mutation {
            mutator,
            at,
            bytes: forged,
        })
    })
}

/// A row's decoder and verdict over one input: (the largest allocation the
/// decoder asked for, whether it accepted, whether the verdict holds).
type Judge<'a> = Box<dyn Fn(Option<&Mutation>, &[u8]) -> (usize, bool, bool) + Send + Sync + 'a>;
type Seal = fn(&[u8]) -> Vec<u8>;

/// One decoder of the damage table.
pub struct Row<'a> {
    pub name: String,
    pub healthy: Vec<u8>,
    /// How the decoder writes its counts (LEB128 unless set).
    pub count: Count,
    /// The largest single allocation any input may make it ask for.
    pub cap: usize,
    /// Counts cut in at every offset besides the standard one, each with
    /// the bytes after it.
    pub forges: Vec<(u64, usize)>,
    /// `(unseal, seal)` of a hash-sealed input: the healthy input stripped
    /// to what is mutated, and a mutated body with its hash recomputed.
    pub seal: Option<(Seal, Seal)>,
    /// The decoder and its verdict, as [`Row::new`] builds them.
    pub judge: Judge<'a>,
}

impl<'a> Row<'a> {
    /// A row decoding with `decode`, whose `verdict` judges every outcome:
    /// it is given the mutation (`None` for the healthy input), the input
    /// and what the decoder returned.
    pub fn new<T, E>(
        name: &str,
        healthy: Vec<u8>,
        decode: impl Fn(&[u8]) -> Result<T, E> + Send + Sync + 'a,
        verdict: impl Fn(Option<&Mutation>, &[u8], Result<T, E>) -> bool + Send + Sync + 'a,
    ) -> Self {
        let judge = move |m: Option<&Mutation>, bytes: &[u8]| {
            let (decoded, largest) = largest_allocation(|| decode(bytes));
            (largest, decoded.is_ok(), verdict(m, bytes, decoded))
        };
        Row {
            name: name.to_owned(),
            healthy,
            count: Count::Leb128,
            cap: usize::MAX,
            forges: Vec::new(),
            seal: None,
            judge: Box::new(judge),
        }
    }
}

/// Walk `row` over every mutation of its healthy input, and a sealed row
/// also over every mutation of its body, re-sealed as an attacker who
/// re-hashes would send it. Panics with a one-line reproducer (row, pass,
/// mutator, offset) if a decoder panics, asks for more than the row's cap
/// at once, accepts a strict prefix, fails the row's verdict or, raw on a
/// sealed row, accepts anything at all.
pub fn walk(row: &Row) {
    walk_some(row, |_| true);
}

/// [`walk`] over only the mutations whose mutator `keep` takes (the
/// healthy input is always judged).
pub fn walk_some(row: &Row, keep: impl Fn(Mutator) -> bool) {
    let (_, seen) = largest_allocation(|| Vec::<u8>::with_capacity(4096));
    assert!(
        seen >= 4096,
        "walk needs support::Watch as the global allocator"
    );
    judge(row, "healthy", None, &row.healthy, Some(true));
    let raw: Seal = <[u8]>::to_vec;
    let mut passes = vec![("raw", row.healthy.clone(), raw, row.seal.is_some())];
    if let Some((unseal, seal)) = row.seal {
        let body = unseal(&row.healthy);
        assert!(
            seal(&body) == row.healthy,
            "{}: seal(unseal(healthy)) differs",
            row.name
        );
        passes.push(("re-sealed", body, seal, false));
    }
    for (pass, base, seal, refuse_all) in passes {
        let forges = row.forges.iter();
        let forged = forges.flat_map(|&(n, pad)| forged_counts(&base, n, pad, row.count, &keep));
        for m in mutations(&base, row.count, &keep).chain(forged) {
            let refuse = refuse_all || m.mutator == Mutator::Truncation;
            let case = format!("{pass}: {:?} at {}", m.mutator, m.at);
            judge(
                row,
                &case,
                Some(&m),
                &seal(&m.bytes),
                refuse.then_some(false),
            );
        }
    }
}

/// Decode `input` and hold the outcome to the row's rules; `accept` is the
/// acceptance it requires, if any.
fn judge(row: &Row, case: &str, m: Option<&Mutation>, input: &[u8], accept: Option<bool>) {
    let fail = |why: &str| -> ! { panic!("{} ({case}): {why}", row.name) };
    let (largest, accepted, verdict) = catch_unwind(AssertUnwindSafe(|| (row.judge)(m, input)))
        .unwrap_or_else(|_| fail("the decoder panicked"));
    if largest > row.cap {
        fail(&format!("asked for {largest} bytes, cap {}", row.cap));
    }
    match (accepted, accept) {
        (true, Some(false)) => fail("accepted"),
        (false, Some(true)) => fail("refused"),
        (true, _) if !verdict => fail("accepted, against the verdict"),
        (false, _) if !verdict => fail("refused, against the verdict"),
        _ => {}
    }
}

/// A fresh (removed if present, not yet created) scratch directory unique
/// to this test process, suite and case.
pub fn tempdir(suite: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("txstat-{suite}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny deterministic corpus: `segs` segments of 2 positions each whose
/// per-chain column blobs are opaque bytes derived from `seed` (the
/// archive layer never interprets them; every other Tezos run is empty,
/// like a chain that ended early).
pub fn synthetic_corpus(dir: &Path, segs: usize, seed: u64) {
    let mut w = ArchiveWriter::create(dir, "{\"synthetic\":true}", &seed.to_le_bytes())
        .expect("create corpus");
    for i in 0..segs {
        let start = (i * 2) as u64;
        let blob = |chain: u64| -> Vec<u8> {
            let x = seed ^ (chain << 32) ^ (start << 8);
            x.to_le_bytes()
                .iter()
                .cycle()
                .take(16 + (x % 48) as usize)
                .copied()
                .collect()
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
