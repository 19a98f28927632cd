//! Shared test support for the decoder-robustness suites (ROADMAP 5a): the
//! exhaustive damage combinators every "no byte from disk can panic or be
//! half-trusted" test walks, and a per-process scratch directory.
//!
//! Each integration test is its own crate and uses what it needs.
#![allow(dead_code)]

use std::path::PathBuf;
use txstat::types::colcodec::ColWriter;

/// Every strict prefix of `bytes`, shortest first (prefix `i` is cut at
/// offset `i`).
pub fn truncations(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    (0..bytes.len()).map(move |cut| &bytes[..cut])
}

/// Every single-bit flip of `bytes`, in bit order.
pub fn bit_flips(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..bytes.len() * 8).map(move |bit| {
        let mut damaged = bytes.to_vec();
        damaged[bit / 8] ^= 1 << (bit % 8);
        damaged
    })
}

/// The canonical LEB128 bytes of `value`, as the columnar formats write
/// every count, length and integer.
fn leb128(value: u64) -> Vec<u8> {
    let mut w = ColWriter::new();
    w.u64(value);
    w.into_bytes()
}

/// The "huge count" mutator: the varint read from each offset of `bytes` in
/// turn (its bytes up to the first without the continuation bit) replaced
/// by `value`'s. Every count and length field is one of these offsets; so
/// is every other varint, tag and string byte.
pub fn huge_counts(bytes: &[u8], value: u64) -> impl Iterator<Item = Vec<u8>> + '_ {
    let varint = leb128(value);
    (0..bytes.len()).map(move |at| {
        let end = bytes[at..]
            .iter()
            .position(|b| b & 0x80 == 0)
            .map_or(bytes.len(), |i| at + i + 1);
        [&bytes[..at], &varint, &bytes[end..]].concat()
    })
}

/// `bytes` cut at each offset in turn and continued by the varint of
/// `count`, then `count * per_elem` bytes 0x80 (a continuation byte, so no
/// varint there ever ends): at a count field, a count that the bytes left
/// can carry but whose first element never decodes.
pub fn forged_counts(
    bytes: &[u8],
    count: u64,
    per_elem: usize,
) -> impl Iterator<Item = Vec<u8>> + '_ {
    let varint = leb128(count);
    let padding = count as usize * per_elem;
    (0..bytes.len()).map(move |at| {
        let mut forged = Vec::with_capacity(at + varint.len() + padding);
        forged.extend_from_slice(&bytes[..at]);
        forged.extend_from_slice(&varint);
        forged.resize(forged.len() + padding, 0x80);
        forged
    })
}

/// A fresh (removed if present, not yet created) scratch directory unique
/// to this test process, suite and case.
pub fn tempdir(suite: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("txstat-{suite}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
