//! Shared test support for the decoder-robustness suites (ROADMAP 5a): the
//! exhaustive damage combinators every "no byte from disk can panic or be
//! half-trusted" test walks, and a per-process scratch directory.
//!
//! Each integration test is its own crate and uses what it needs.
#![allow(dead_code)]

use std::path::PathBuf;

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

/// A fresh (removed if present, not yet created) scratch directory unique
/// to this test process, suite and case.
pub fn tempdir(suite: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("txstat-{suite}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
