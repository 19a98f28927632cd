//! Binary column codec — the byte-level layer of wire payload schema v2.
//!
//! The canonical-JSON wire states of PR 4 moved faithfully but decoded at
//! ~10× the cost of the merge they fed (today's `wire.decode_ms` layer of
//! `BENCHMARK.json` against `ingest.reduce_submit_ms`). This module
//! provides the primitives the columnar accumulators encode themselves
//! with instead: LEB128 varints
//! (canonical — exactly one encoding per value), zigzag signed variants,
//! and length-prefixed byte/string columns, all over a flat `Vec<u8>`.
//!
//! Decoding is strict and typed: every failure is a [`ColError`] carrying
//! the byte offset it was detected at, never a panic — damaged or forged
//! payloads must surface as errors a reducer can report. Non-minimal
//! varint encodings are rejected so that equal values (and therefore equal
//! accumulator states) have exactly one byte representation.

use std::fmt;

/// A typed binary-decode failure, located by byte offset into the column
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColError {
    /// The buffer ends before the structure it promises.
    Truncated {
        offset: usize,
        needed: usize,
        have: usize,
    },
    /// A varint uses more bytes than its value requires. One value, one
    /// encoding: anything else would break byte-identical state equality.
    NonCanonicalVarint { offset: usize },
    /// A varint does not fit the declared integer width.
    VarintOverflow { offset: usize },
    /// A length-prefixed string is not UTF-8.
    BadUtf8 { offset: usize },
    /// The bytes decode structurally but violate a semantic invariant
    /// (duplicate key, id out of interner range, bad enum tag, …).
    Invalid { offset: usize, what: String },
    /// Decoding finished but bytes remain — the payload is not the single
    /// value it claims to be.
    TrailingBytes { offset: usize, remaining: usize },
}

impl ColError {
    /// The byte offset the failure was detected at.
    pub fn offset(&self) -> usize {
        match self {
            ColError::Truncated { offset, .. }
            | ColError::NonCanonicalVarint { offset }
            | ColError::VarintOverflow { offset }
            | ColError::BadUtf8 { offset }
            | ColError::Invalid { offset, .. }
            | ColError::TrailingBytes { offset, .. } => *offset,
        }
    }
}

impl fmt::Display for ColError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColError::Truncated {
                offset,
                needed,
                have,
            } => {
                write!(
                    f,
                    "truncated at byte {offset}: need {needed} bytes, have {have}"
                )
            }
            ColError::NonCanonicalVarint { offset } => {
                write!(f, "non-canonical varint at byte {offset}")
            }
            ColError::VarintOverflow { offset } => {
                write!(f, "varint overflows its width at byte {offset}")
            }
            ColError::BadUtf8 { offset } => write!(f, "invalid UTF-8 at byte {offset}"),
            ColError::Invalid { offset, what } => write!(f, "invalid at byte {offset}: {what}"),
            ColError::TrailingBytes { offset, remaining } => {
                write!(f, "{remaining} trailing bytes after byte {offset}")
            }
        }
    }
}

impl std::error::Error for ColError {}

/// Zigzag-fold a signed value into the unsigned varint space (a bijection
/// `i64 ↔ u64`, so width checks need no extra bit).
#[inline]
fn zigzag64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag64`].
#[inline]
fn unzigzag64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Zigzag-fold for 128-bit values (drop volumes).
#[inline]
fn zigzag128(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

/// Inverse of [`zigzag128`].
#[inline]
fn unzigzag128(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

/// Append-only column writer. Encoding is infallible; the canonical
/// encoding rules live here so every encoder agrees byte for byte.
#[derive(Debug, Default)]
pub struct ColWriter {
    buf: Vec<u8>,
}

impl ColWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        ColWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte (enum tags, format markers).
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    #[inline]
    fn varint128(&mut self, mut v: u128) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// LEB128 varint (canonical: minimal length).
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.varint128(v as u128);
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.varint128(v as u128);
    }

    /// Zigzag varint for signed 64-bit values.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.varint128(zigzag64(v) as u128);
    }

    /// Zigzag varint for signed 128-bit values (drop volumes).
    #[inline]
    pub fn i128(&mut self, v: i128) {
        self.varint128(zigzag128(v));
    }

    /// IEEE-754 double, carried exactly as its bit pattern (`to_bits`)
    /// in the varint space — round-trips every value, including -0.0 and
    /// NaN payloads, with one canonical encoding each.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed raw byte column.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Cursor-based column reader: every read is bound-checked and every
/// failure names the offset it happened at.
#[derive(Debug)]
pub struct ColReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ColReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ColReader { buf, pos: 0 }
    }

    /// Current cursor offset — decode errors raised by callers should
    /// carry this.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Build a semantic-invariant error at the current offset.
    pub fn invalid(&self, what: impl fmt::Display) -> ColError {
        ColError::Invalid {
            offset: self.pos,
            what: what.to_string(),
        }
    }

    /// Done: any unread byte means the payload is not what it claims.
    pub fn finish(self) -> Result<(), ColError> {
        if self.pos != self.buf.len() {
            return Err(ColError::TrailingBytes {
                offset: self.pos,
                remaining: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }

    #[inline]
    pub fn byte(&mut self) -> Result<u8, ColError> {
        let b = *self.buf.get(self.pos).ok_or(ColError::Truncated {
            offset: self.pos,
            needed: self.pos + 1,
            have: self.buf.len(),
        })?;
        self.pos += 1;
        Ok(b)
    }

    /// Canonical LEB128 varint bounded to `bits` value bits. Rejects
    /// non-minimal encodings and values that overflow the width.
    fn varint128(&mut self, bits: u32) -> Result<u128, ColError> {
        let start = self.pos;
        let mut out: u128 = 0;
        let mut shift: u32 = 0;
        loop {
            let b = self.byte().map_err(|_| ColError::Truncated {
                offset: start,
                needed: self.pos + 1,
                have: self.buf.len(),
            })?;
            if shift >= bits {
                return Err(ColError::VarintOverflow { offset: start });
            }
            let payload = (b & 0x7f) as u128;
            if shift + 7 > bits && (payload >> (bits - shift)) != 0 {
                return Err(ColError::VarintOverflow { offset: start });
            }
            out |= payload << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift != 0 {
                    return Err(ColError::NonCanonicalVarint { offset: start });
                }
                return Ok(out);
            }
            shift += 7;
        }
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, ColError> {
        Ok(self.varint128(64)? as u64)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, ColError> {
        Ok(self.varint128(32)? as u32)
    }

    #[inline]
    pub fn i64(&mut self) -> Result<i64, ColError> {
        Ok(unzigzag64(self.varint128(64)? as u64))
    }

    #[inline]
    pub fn i128(&mut self) -> Result<i128, ColError> {
        Ok(unzigzag128(self.varint128(128)?))
    }

    /// Bit-exact inverse of [`ColWriter::f64`].
    #[inline]
    pub fn f64(&mut self) -> Result<f64, ColError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A collection length prefix. The declared count must be plausible
    /// against the bytes actually remaining (`min_elem_bytes` per element,
    /// ≥ 1), so forged counts cannot drive huge allocations.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, ColError> {
        let start = self.pos;
        let n = self.u64()?;
        let min = min_elem_bytes.max(1) as u64;
        let have = self.remaining() as u64;
        if n > have / min {
            return Err(ColError::Truncated {
                offset: start,
                needed: self.pos.saturating_add(n.saturating_mul(min) as usize),
                have: self.buf.len(),
            });
        }
        Ok(n as usize)
    }

    /// Length-prefixed raw byte column.
    pub fn bytes(&mut self) -> Result<&'a [u8], ColError> {
        let n = self.len(1)?;
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, ColError> {
        let start = self.pos;
        std::str::from_utf8(self.bytes()?).map_err(|_| ColError::BadUtf8 { offset: start })
    }
}

/// A fixed-width key that can live in an encoded interner key column
/// (EOS names, Tezos addresses, XRP account ids). Implementations must be
/// canonical: one key, one byte sequence.
pub trait ColKey: Sized {
    fn encode_key(&self, w: &mut ColWriter);
    fn decode_key(r: &mut ColReader<'_>) -> Result<Self, ColError>;
}

impl ColKey for u64 {
    fn encode_key(&self, w: &mut ColWriter) {
        w.u64(*self);
    }

    fn decode_key(r: &mut ColReader<'_>) -> Result<Self, ColError> {
        r.u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_u64(v: u64) -> u64 {
        let mut w = ColWriter::new();
        w.u64(v);
        let bytes = w.into_bytes();
        let mut r = ColReader::new(&bytes);
        let out = r.u64().expect("valid varint");
        r.finish().expect("no trailing bytes");
        out
    }

    #[test]
    fn u64_round_trips_edges() {
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(round_u64(v), v);
        }
        // Max u64 is exactly 10 bytes.
        let mut w = ColWriter::new();
        w.u64(u64::MAX);
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn signed_round_trips_edges() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            let mut w = ColWriter::new();
            w.i64(v);
            let bytes = w.into_bytes();
            assert_eq!(ColReader::new(&bytes).i64().expect("valid"), v);
        }
        for v in [
            0i128,
            -1,
            i128::MAX,
            i128::MIN,
            4_300_000_000_000_000_000_000i128,
        ] {
            let mut w = ColWriter::new();
            w.i128(v);
            let bytes = w.into_bytes();
            assert_eq!(ColReader::new(&bytes).i128().expect("valid"), v);
        }
    }

    #[test]
    fn non_canonical_varints_are_rejected() {
        // 0 encoded in two bytes.
        let mut r = ColReader::new(&[0x80, 0x00]);
        assert!(matches!(
            r.u64(),
            Err(ColError::NonCanonicalVarint { offset: 0 })
        ));
        // 1 encoded in two bytes.
        let mut r = ColReader::new(&[0x81, 0x00]);
        assert!(matches!(
            r.u64(),
            Err(ColError::NonCanonicalVarint { offset: 0 })
        ));
        // The canonical single byte is fine.
        let mut r = ColReader::new(&[0x01]);
        assert_eq!(r.u64().expect("canonical"), 1);
    }

    #[test]
    fn overflowing_varints_are_rejected() {
        // 2^64 (10th byte = 2) does not fit u64.
        let mut bytes = vec![0x80u8; 9];
        bytes.push(0x02);
        let mut r = ColReader::new(&bytes);
        assert!(matches!(
            r.u64(),
            Err(ColError::VarintOverflow { offset: 0 })
        ));
        // 11 continuation bytes cannot be a u64 at all.
        let mut r = ColReader::new(&[0xff; 11]);
        assert!(matches!(r.u64(), Err(ColError::VarintOverflow { .. })));
        // u32 reader rejects a u64-sized value.
        let mut w = ColWriter::new();
        w.u64(u32::MAX as u64 + 1);
        let bytes = w.into_bytes();
        let mut r = ColReader::new(&bytes);
        assert!(matches!(r.u32(), Err(ColError::VarintOverflow { .. })));
    }

    #[test]
    fn length_prefix_is_plausibility_checked() {
        // Claims 1000 elements with 2 bytes left.
        let mut w = ColWriter::new();
        w.u64(1000);
        w.byte(0);
        w.byte(0);
        let bytes = w.into_bytes();
        let mut r = ColReader::new(&bytes);
        assert!(matches!(r.len(1), Err(ColError::Truncated { .. })));
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let mut w = ColWriter::new();
        w.str("yay");
        w.bytes(&[1, 2, 3]);
        w.str("");
        let bytes = w.into_bytes();
        let mut r = ColReader::new(&bytes);
        assert_eq!(r.str().expect("utf8"), "yay");
        assert_eq!(r.bytes().expect("bytes"), &[1, 2, 3]);
        assert_eq!(r.str().expect("empty"), "");
        r.finish().expect("consumed exactly");
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut w = ColWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = ColReader::new(&bytes);
        assert!(matches!(r.str(), Err(ColError::BadUtf8 { .. })));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut w = ColWriter::new();
        w.u64(7);
        w.byte(9);
        let bytes = w.into_bytes();
        let mut r = ColReader::new(&bytes);
        r.u64().expect("valid");
        assert!(matches!(
            r.finish(),
            Err(ColError::TrailingBytes { remaining: 1, .. })
        ));
    }
}
