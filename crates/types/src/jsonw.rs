//! A streaming writer for the canonical wire JSON.
//!
//! The chain crates' `block_bytes` / `ledger_bytes` define the exact bytes
//! the simulated node RPCs serve, the crawl replay, the wire-JSON archive
//! segments, the reorg content hashes and the Figure 2 storage sweep all
//! share. This writer is their only encoder: it emits the compact bytes
//! straight from the chain model. It is deliberately not a serializer
//! framework: the caller spells the structure (`raw` for punctuation and
//! keys), the writer owns only what has to agree with `serde_json` byte for
//! byte — string escaping and number formatting. `tests/wire_bytes.rs`
//! holds it to that: every block's bytes parse and print back unchanged
//! through `serde_json`.
//!
//! The writer has two outputs behind one [`JsonOut`] trait, the JSON twin
//! of `lzss::{compress, compressed_len}`: a `Vec<u8>` receives the bytes,
//! a [`JsonLen`] only their count. The counter sizes every primitive by
//! arithmetic — decimal digit counts, escape expansion, the fixed 16 of
//! `hex16`, an identity's [`WireText::text_len`] — so a format spelled once
//! against [`JsonWriter`] yields its length without rendering a byte. That
//! is how Figure 2 measures the blocks it does not compress.

use crate::time::ChainTime;

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Where a [`JsonWriter`] sends its output. Every method appends exactly
/// what the `Vec<u8>` impl writes; [`JsonLen`] counts it instead.
pub trait JsonOut {
    /// Bytes that need no escaping.
    fn raw(&mut self, bytes: &[u8]);
    /// A string body with JSON escaping, without quotes.
    fn escaped(&mut self, s: &str);
    /// Decimal digits of `n`, left-padded with zeros to `width` (≤ 20).
    fn uint_padded(&mut self, n: u64, width: usize);
    /// 16 lower-case hex digits (`{:016x}`).
    fn hex16(&mut self, n: u64);
    /// An identity's text, without quotes.
    fn text(&mut self, t: impl WireText);
}

/// An identity whose text form never needs escaping (EOS names, base58
/// addresses): rendered from its encoder's stack buffer, or measured
/// without rendering.
pub trait WireText {
    /// Append the text to `out`.
    fn write_text(self, out: &mut Vec<u8>);
    /// The length [`WireText::write_text`] appends, by arithmetic.
    fn text_len(self) -> usize;
}

/// The second byte of the two-byte escape of `b` (`\"` `\\` and the five
/// short control escapes); `None` for a byte that takes `\u00XX` or none.
fn short_escape(b: u8) -> Option<u8> {
    match b {
        b'"' => Some(b'"'),
        b'\\' => Some(b'\\'),
        b'\n' => Some(b'n'),
        b'\r' => Some(b'r'),
        b'\t' => Some(b't'),
        0x08 => Some(b'b'),
        0x0c => Some(b'f'),
        _ => None,
    }
}

/// Whether `b` is written escaped: `"`, `\` and every byte below 0x20 —
/// the vendored `serde_json::write_escaped`'s table. DEL and non-ASCII go
/// verbatim.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Decimal digits of `n` (one for zero).
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

impl JsonOut for Vec<u8> {
    fn raw(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn escaped(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let mut clean_from = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if !needs_escape(b) {
                continue;
            }
            self.extend_from_slice(&bytes[clean_from..i]);
            clean_from = i + 1;
            match short_escape(b) {
                Some(c) => self.extend_from_slice(&[b'\\', c]),
                None => self.extend_from_slice(&[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[(b >> 4) as usize],
                    HEX[(b & 15) as usize],
                ]),
            }
        }
        self.extend_from_slice(&bytes[clean_from..]);
    }

    fn uint_padded(&mut self, mut n: u64, width: usize) {
        let mut buf = [b'0'; 20];
        let mut at = buf.len();
        while n > 0 {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        self.extend_from_slice(&buf[at.min(buf.len() - width)..]);
    }

    fn hex16(&mut self, n: u64) {
        let mut buf = [0u8; 16];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = HEX[(n >> (60 - 4 * i) & 15) as usize];
        }
        self.extend_from_slice(&buf);
    }

    fn text(&mut self, t: impl WireText) {
        t.write_text(self);
    }
}

/// A [`JsonOut`] that keeps only the byte count.
#[derive(Debug, Default)]
pub struct JsonLen(pub usize);

impl JsonLen {
    /// The number of bytes `write` would append to a `Vec<u8>`.
    pub fn of(write: impl FnOnce(&mut JsonLen)) -> usize {
        let mut len = JsonLen(0);
        write(&mut len);
        len.0
    }
}

impl JsonOut for JsonLen {
    fn raw(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn escaped(&mut self, s: &str) {
        let expansion: usize = s
            .bytes()
            .filter(|b| needs_escape(*b))
            .map(|b| if short_escape(b).is_some() { 1 } else { 5 })
            .sum();
        self.0 += s.len() + expansion;
    }

    fn uint_padded(&mut self, n: u64, width: usize) {
        self.0 += digits(n).max(width);
    }

    fn hex16(&mut self, _: u64) {
        self.0 += 16;
    }

    fn text(&mut self, t: impl WireText) {
        self.0 += t.text_len();
    }
}

/// Appends compact JSON to a borrowed [`JsonOut`] (a `Vec<u8>` by
/// default). Methods chain.
pub struct JsonWriter<'a, O: JsonOut = Vec<u8>> {
    out: &'a mut O,
}

impl<'a, O: JsonOut> JsonWriter<'a, O> {
    pub fn new(out: &'a mut O) -> Self {
        JsonWriter { out }
    }

    /// Structure, keys, and string bodies known to need no escaping.
    pub fn raw(&mut self, text: &str) -> &mut Self {
        self.out.raw(text.as_bytes());
        self
    }

    /// A string body, escaped, without quotes — for strings assembled from
    /// several parts between two `raw("\"")`.
    pub fn escaped(&mut self, s: &str) -> &mut Self {
        self.out.escaped(s);
        self
    }

    /// A complete string literal.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.raw("\"").escaped(s).raw("\"")
    }

    /// A complete string literal of text known to need no escaping: the
    /// chains' static wire names.
    pub fn quoted(&mut self, text: &str) -> &mut Self {
        self.raw("\"").raw(text).raw("\"")
    }

    /// A complete string literal of an identity's text (an EOS name, a
    /// base58 address).
    pub fn ident(&mut self, t: impl WireText) -> &mut Self {
        self.raw("\"");
        self.out.text(t);
        self.raw("\"")
    }

    /// Decimal digits of `n`, left-padded with zeros to `width` (at most
    /// 20, the longest a `u64` gets).
    pub fn uint_padded(&mut self, n: u64, width: usize) -> &mut Self {
        assert!(width <= 20, "u64 padding width {width}");
        self.out.uint_padded(n, width);
        self
    }

    pub fn uint(&mut self, n: impl Into<u64>) -> &mut Self {
        self.uint_padded(n.into(), 1)
    }

    /// `[`, every item through `each` with commas between, `]`.
    pub fn array<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        self.raw("[");
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.raw(",");
            }
            each(self, item);
        }
        self.raw("]")
    }

    pub fn int(&mut self, n: i64) -> &mut Self {
        if n < 0 {
            self.raw("-");
        }
        self.uint(n.unsigned_abs())
    }

    /// Fixed-point rendering of `raw * 10^-decimals` — the bytes of
    /// [`crate::fmt_scaled`], taking the 64-bit path whenever the magnitude
    /// fits (it always does for on-chain amounts).
    pub fn scaled(&mut self, raw: i128, decimals: u32) -> &mut Self {
        let (Ok(mag), Some(base)) = (
            u64::try_from(raw.unsigned_abs()),
            10u64.checked_pow(decimals),
        ) else {
            return self.raw(&crate::fmt_scaled(raw, decimals));
        };
        if raw < 0 {
            self.raw("-");
        }
        if decimals == 0 {
            self.uint(mag)
        } else {
            self.uint(mag / base)
                .raw(".")
                .uint_padded(mag % base, decimals as usize)
        }
    }

    /// 16 lower-case hex digits (`{:016x}`).
    pub fn hex16(&mut self, n: u64) -> &mut Self {
        self.out.hex16(n);
        self
    }

    /// A complete string literal of [`ChainTime::iso_string`].
    pub fn iso(&mut self, t: ChainTime) -> &mut Self {
        let (y, m, d) = t.ymd();
        let (h, mi, s) = t.hms();
        self.raw("\"");
        match u64::try_from(y) {
            Ok(y) => self.uint_padded(y, 4),
            // `{y:04}` counts the sign toward the width.
            Err(_) => self.raw("-").uint_padded(y.unsigned_abs(), 3),
        };
        self.raw("-")
            .uint_padded(m as u64, 2)
            .raw("-")
            .uint_padded(d as u64, 2);
        self.raw("T")
            .uint_padded(h as u64, 2)
            .raw(":")
            .uint_padded(mi as u64, 2);
        self.raw(":").uint_padded(s as u64, 2).raw("\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The text `|w| body` writes, after checking that the same body run
    /// against a [`JsonLen`] counts exactly its bytes.
    macro_rules! written {
        (|$w:ident| $body:expr) => {{
            let mut out = Vec::new();
            {
                let $w = &mut JsonWriter::new(&mut out);
                $body;
            }
            let counted = JsonLen::of(|len| {
                let $w = &mut JsonWriter::new(len);
                $body;
            });
            let text = String::from_utf8(out).expect("writer emits UTF-8");
            assert_eq!(counted, text.len(), "count != bytes for {text:?}");
            text
        }};
    }

    #[test]
    fn escaping_matches_serde_json_for_every_low_byte_and_friends() {
        let mut all: String = (0u8..=0x7f).map(|b| b as char).collect();
        all.push_str("é😀\u{7f}\u{80}\u{2028}\"\\\\\"");
        let ours = written!(|w| w.str(&all));
        assert_eq!(ours, serde_json::to_string(&all).unwrap());
        assert!(ours.contains("\\u001f") && ours.contains("\\b") && ours.contains("\\f"));
    }

    #[test]
    fn every_escape_class_counts_its_expansion() {
        // (text, written length): verbatim (ASCII, DEL, two- and four-byte
        // UTF-8), the seven two-byte escapes, `\u00XX`.
        for (text, len) in [
            ("", 0),
            ("a~", 2),
            ("\u{7f}", 1),
            ("é", 2),
            ("😀", 4),
            ("\"", 2),
            ("\\", 2),
            ("\n\r\t\u{8}\u{c}", 10),
            ("\u{0}", 6),
            ("\u{1f}", 6),
            ("a\u{1}\"é\u{7f}", 1 + 6 + 2 + 2 + 1),
        ] {
            assert_eq!(written!(|w| w.escaped(text)).len(), len, "{text:?}");
        }
    }

    #[test]
    fn numbers_match_std_formatting_at_the_edges() {
        for n in [0u64, 1, 9, 10, 99, 100, 12345, u32::MAX as u64, u64::MAX] {
            assert_eq!(written!(|w| w.uint(n)), n.to_string());
            assert_eq!(written!(|w| w.hex16(n)), format!("{n:016x}"));
            for width in [1usize, 2, 4, 6, 19, 20] {
                assert_eq!(
                    written!(|w| w.uint_padded(n, width)),
                    format!("{n:0width$}")
                );
            }
        }
        for n in [0i64, -1, 1, 9, -10, i64::MIN, i64::MAX, -10_000] {
            assert_eq!(written!(|w| w.int(n)), n.to_string());
        }
        for raw in [
            0i128,
            1,
            -1,
            1_234_560,
            -999_999,
            u64::MAX as i128,
            // Past 64 bits: the `fmt_scaled` fallback, counted by length.
            u64::MAX as i128 + 1,
            i128::MAX,
            i128::MIN + 1,
        ] {
            for decimals in [0u32, 1, 4, 6, 19, 20, 30] {
                assert_eq!(
                    written!(|w| w.scaled(raw, decimals)),
                    crate::fmt_scaled(raw, decimals),
                    "{raw} e-{decimals}"
                );
            }
        }
    }

    #[test]
    fn quoted_is_str_for_text_without_escapes() {
        for text in ["", "tz1burnburnburn", "eosio.token", "tesSUCCESS"] {
            assert_eq!(written!(|w| w.quoted(text)), written!(|w| w.str(text)));
        }
    }

    proptest! {
        #[test]
        fn strings_match_serde_json(points in proptest::collection::vec(0u32..0x260, 0..48), emoji in any::<bool>()) {
            // Controls, quotes, backslashes, DEL, Latin-1 and beyond.
            let mut text: String = points.iter().filter_map(|p| char::from_u32(*p)).collect();
            if emoji {
                text.push('😀');
            }
            prop_assert_eq!(written!(|w| w.str(&text)), serde_json::to_string(&text).unwrap());
        }

        #[test]
        fn iso_matches_iso_string(secs in -70_000_000_000i64..300_000_000_000) {
            let t = ChainTime(secs);
            prop_assert_eq!(written!(|w| w.iso(t)), format!("\"{}\"", t.iso_string()));
        }
    }
}
