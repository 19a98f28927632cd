//! A streaming writer for the canonical wire JSON.
//!
//! The chain crates' `block_bytes` / `ledger_bytes` define the exact bytes
//! the crawl replay, the wire-JSON archive segments, the reorg content
//! hashes and the Figure 2 storage sweep all share. They used to be
//! produced by building a DTO of owned `String`s, lowering it to a
//! `serde_json::Value` tree and printing that; this writer emits the same
//! compact bytes straight from the chain model into a caller-supplied
//! buffer. It is deliberately not a serializer framework: the caller spells
//! the structure (`raw` for punctuation and keys), the writer owns only what
//! has to agree with `serde_json` byte for byte — string escaping and number
//! formatting.

use crate::time::ChainTime;

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends compact JSON to a borrowed buffer. Methods chain.
pub struct JsonWriter<'a> {
    out: &'a mut Vec<u8>,
}

/// Append `s` with JSON string escaping (no surrounding quotes). The table
/// is the vendored `serde_json::write_escaped`'s: `"` `\` and the five
/// short control escapes, `\u00XX` (lower-case hex) for the other bytes
/// below 0x20, everything else — DEL and non-ASCII included — verbatim.
fn escape_into(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let mut clean_from = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[clean_from..i]);
        clean_from = i + 1;
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x0c => out.extend_from_slice(b"\\f"),
            _ => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[(b >> 4) as usize],
                HEX[(b & 15) as usize],
            ]),
        }
    }
    out.extend_from_slice(&bytes[clean_from..]);
}

impl<'a> JsonWriter<'a> {
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        JsonWriter { out }
    }

    /// Structure, keys, and string bodies known to need no escaping.
    pub fn raw(&mut self, text: &str) -> &mut Self {
        self.out.extend_from_slice(text.as_bytes());
        self
    }

    /// A string body, escaped, without quotes — for strings assembled from
    /// several parts between two `raw("\"")`.
    pub fn escaped(&mut self, s: &str) -> &mut Self {
        escape_into(self.out, s);
        self
    }

    /// A complete string literal.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.out.push(b'"');
        escape_into(self.out, s);
        self.out.push(b'"');
        self
    }

    /// A complete string literal of text known to need no escaping: the
    /// chains' static wire names and their base58 / base32 identities.
    pub fn quoted(&mut self, text: &str) -> &mut Self {
        self.out.push(b'"');
        self.out.extend_from_slice(text.as_bytes());
        self.out.push(b'"');
        self
    }

    /// Decimal digits of `n`, left-padded with zeros to `width` (at most
    /// 20, the longest a `u64` gets).
    pub fn uint_padded(&mut self, mut n: u64, width: usize) -> &mut Self {
        let mut buf = [b'0'; 20];
        assert!(width <= buf.len(), "u64 padding width {width}");
        let mut at = buf.len();
        while n > 0 {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        self.out
            .extend_from_slice(&buf[at.min(buf.len() - width)..]);
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
        self.out.push(b'[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            each(self, item);
        }
        self.out.push(b']');
        self
    }

    pub fn int(&mut self, n: i64) -> &mut Self {
        if n < 0 {
            self.out.push(b'-');
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
            self.out.push(b'-');
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
        let mut buf = [0u8; 16];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = HEX[(n >> (60 - 4 * i) & 15) as usize];
        }
        self.out.extend_from_slice(&buf);
        self
    }

    /// A complete string literal of [`ChainTime::iso_string`].
    pub fn iso(&mut self, t: ChainTime) -> &mut Self {
        let (y, m, d) = t.ymd();
        let (h, mi, s) = t.hms();
        self.out.push(b'"');
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

    fn written(f: impl FnOnce(&mut JsonWriter<'_>)) -> String {
        let mut out = Vec::new();
        f(&mut JsonWriter::new(&mut out));
        String::from_utf8(out).expect("writer emits UTF-8")
    }

    #[test]
    fn escaping_matches_serde_json_for_every_low_byte_and_friends() {
        let mut all: String = (0u8..=0x7f).map(|b| b as char).collect();
        all.push_str("é😀\u{7f}\u{80}\u{2028}\"\\\\\"");
        let ours = written(|w| {
            w.str(&all);
        });
        assert_eq!(ours, serde_json::to_string(&all).unwrap());
        assert!(ours.contains("\\u001f") && ours.contains("\\b") && ours.contains("\\f"));
    }

    #[test]
    fn numbers_match_std_formatting_at_the_edges() {
        for n in [0u64, 1, 9, 10, 99, 100, 12345, u32::MAX as u64, u64::MAX] {
            assert_eq!(
                written(|w| {
                    w.uint(n);
                }),
                n.to_string()
            );
            assert_eq!(
                written(|w| {
                    w.hex16(n);
                }),
                format!("{n:016x}")
            );
            for width in [1usize, 2, 4, 6, 19, 20] {
                assert_eq!(
                    written(|w| {
                        w.uint_padded(n, width);
                    }),
                    format!("{n:0width$}")
                );
            }
        }
        for n in [0i64, -1, 1, i64::MIN, i64::MAX, -10_000] {
            assert_eq!(
                written(|w| {
                    w.int(n);
                }),
                n.to_string()
            );
        }
        for raw in [
            0i128,
            1,
            -1,
            1_234_560,
            -999_999,
            u64::MAX as i128,
            u64::MAX as i128 + 1,
            i128::MAX,
            i128::MIN + 1,
        ] {
            for decimals in [0u32, 1, 4, 6, 19, 20, 30] {
                assert_eq!(
                    written(|w| {
                        w.scaled(raw, decimals);
                    }),
                    crate::fmt_scaled(raw, decimals),
                    "{raw} e-{decimals}"
                );
            }
        }
    }

    #[test]
    fn quoted_is_str_for_text_without_escapes() {
        for text in ["", "tz1burnburnburn", "eosio.token", "tesSUCCESS"] {
            assert_eq!(
                written(|w| {
                    w.quoted(text);
                }),
                written(|w| {
                    w.str(text);
                })
            );
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
            prop_assert_eq!(written(|w| { w.str(&text); }), serde_json::to_string(&text).unwrap());
        }

        #[test]
        fn iso_matches_iso_string(secs in -70_000_000_000i64..300_000_000_000) {
            let t = ChainTime(secs);
            prop_assert_eq!(written(|w| { w.iso(t); }), format!("\"{}\"", t.iso_string()));
        }
    }
}
