//! LZSS compression for dataset-size accounting and archive segments.
//!
//! Figure 2 of the paper reports the gzip-compressed storage footprint of
//! each chain's crawled blocks (121 GB EOS / 0.56 GB Tezos / 76.4 GB XRP).
//! The sandbox's offline crate set has no DEFLATE implementation, so we ship
//! a real LZSS codec (32 KiB sliding window, greedy longest match) and use it
//! to measure compressed sizes of the exact bytes the crawler received. LZSS
//! compresses JSON a little less aggressively than DEFLATE (no entropy
//! stage); see "Figure 2 methodology" in the root README.
//!
//! Format: a stream of groups, each led by a flag byte (LSB first; bit set =
//! match). A literal is one raw byte. A match is three bytes:
//! `offset_hi, offset_lo, len - MIN_MATCH` with `offset` in `1..=32768`
//! (stored as `offset - 1`) and `len` in `3..=258`.
//!
//! Matcher: zlib-style hash chains in two flat arrays. `head[hash(trigram)]`
//! holds the newest position whose trigram hashed there; `prev`, a ring of
//! `WINDOW` slots indexed by `position % WINDOW`, holds each position's
//! distance back to the previous one in the same bucket. A search walks the
//! bucket newest-first, skips hash collisions (different trigram), tries at
//! most `MAX_CANDIDATES` exact-trigram positions, stops at the first one
//! past the window, and replaces the best match only on a strictly longer
//! one — so the nearest of equally long matches wins. Those four rules *are*
//! the format's encoder contract: archives and the Figure 2 numbers are
//! byte-pinned against them (`reference_compress` in the tests is the
//! original `HashMap<[u8; 3], Vec<usize>>` matcher they were recorded with).
//!
//! The arrays live in a per-thread scratch. `head` entries are stamped with
//! a running base (the total bytes of all earlier inputs on this thread), so
//! starting a new input invalidates every old entry without touching the
//! table: the per-call reset is O(1) and `prev` only ever grows to
//! `min(input, WINDOW)` slots — 128 KiB + 64 KiB per thread at most.

use std::cell::RefCell;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
/// Cap on exact-trigram candidates tried per position; bounds the match
/// search on repetitive input. (Hash collisions are skipped uncounted, so
/// the hard bound per position is one walk of a bucket's in-window chain.)
const MAX_CANDIDATES: usize = 32;
const HASH_BITS: u32 = 14;

/// Reusable hash-chain tables (see the module doc).
struct Matcher {
    /// `base + position + 1` of the newest position per trigram hash;
    /// anything `<= base` is stale (an earlier input, or never written).
    head: Vec<u64>,
    /// Distance from each position to the previous one in its bucket, by
    /// `position % WINDOW`; 0 = none within the window.
    prev: Vec<u16>,
    /// Stamp origin of the current input.
    base: u64,
    /// Total bytes of every input begun so far — the next input's `base`.
    begun: u64,
}

thread_local! {
    static MATCHER: RefCell<Matcher> = const {
        RefCell::new(Matcher { head: Vec::new(), prev: Vec::new(), base: 0, begun: 0 })
    };
}

fn trigram_hash(input: &[u8], i: usize) -> usize {
    let t = input[i] as u32 | (input[i + 1] as u32) << 8 | (input[i + 2] as u32) << 16;
    (t.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `a` and `b` (equal lengths).
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut l = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..]
        .iter()
        .zip(&b[l..])
        .take_while(|(x, y)| x == y)
        .count()
}

impl Matcher {
    /// Start a new input: retire every `head` entry (also those of an
    /// input a panic cut short) and size `prev`.
    fn begin(&mut self, len: usize) {
        self.base = self.begun;
        self.begun += len as u64;
        if self.head.is_empty() {
            self.head = vec![0; 1 << HASH_BITS];
        }
        let slots = len.min(WINDOW);
        if self.prev.len() < slots {
            self.prev.resize(slots, 0);
        }
    }

    /// Longest match for `input[i..]` among earlier positions:
    /// `(length, offset)`, length 0 when there is none.
    fn longest_match(&self, input: &[u8], i: usize) -> (usize, usize) {
        let (mut best_len, mut best_off) = (0, 0);
        if i + MIN_MATCH > input.len() {
            return (0, 0);
        }
        let stamp = self.head[trigram_hash(input, i)];
        if stamp <= self.base {
            return (0, 0);
        }
        let max_here = MAX_MATCH.min(input.len() - i);
        let here = &input[i..i + max_here];
        let mut p = (stamp - self.base - 1) as usize;
        let mut tried = 0;
        while i - p <= WINDOW {
            if input[p..p + MIN_MATCH] == here[..MIN_MATCH] {
                // A longer match must also agree at index `best_len`.
                if input[p + best_len] == here[best_len] {
                    let l = common_prefix(&input[p..p + max_here], here);
                    if l > best_len {
                        best_len = l;
                        best_off = i - p;
                        if l == max_here {
                            break;
                        }
                    }
                }
                tried += 1;
                if tried == MAX_CANDIDATES {
                    break;
                }
            }
            let back = self.prev[p % WINDOW] as usize;
            if back == 0 {
                break;
            }
            p -= back;
        }
        (best_len, best_off)
    }

    /// Index position `i` (no-op for the last two bytes, which start no
    /// trigram).
    fn insert(&mut self, input: &[u8], i: usize) {
        if i + MIN_MATCH > input.len() {
            return;
        }
        let slot = &mut self.head[trigram_hash(input, i)];
        let back = match slot.checked_sub(self.base + 1) {
            Some(p) if i - p as usize <= WINDOW => i - p as usize,
            _ => 0,
        };
        // `WINDOW` itself (32768) fits a u16.
        self.prev[i % WINDOW] = back as u16;
        *slot = self.base + i as u64 + 1;
    }
}

/// Where the encoder's items go: a real stream, or just its length.
trait Sink {
    fn literal(&mut self, byte: u8);
    fn matched(&mut self, offset: usize, len: usize);
}

/// Greedy LZSS parse of `input` into `sink`.
fn encode(input: &[u8], sink: &mut impl Sink) {
    MATCHER.with(|m| {
        let m = &mut *m.borrow_mut();
        m.begin(input.len());
        let mut i = 0;
        while i < input.len() {
            let (len, off) = m.longest_match(input, i);
            let end = if len >= MIN_MATCH {
                sink.matched(off, len);
                i + len
            } else {
                sink.literal(input[i]);
                i + 1
            };
            // Index every position the item covers.
            while i < end {
                m.insert(input, i);
                i += 1;
            }
        }
    })
}

struct StreamSink {
    out: Vec<u8>,
    /// Index of the current flag byte in `out`.
    flags_pos: usize,
    /// Items in the current group; 8 = open a fresh flag byte.
    flag_bit: u8,
}

impl StreamSink {
    fn item(&mut self, is_match: bool, bytes: &[u8]) {
        if self.flag_bit == 8 {
            self.flags_pos = self.out.len();
            self.out.push(0);
            self.flag_bit = 0;
        }
        if is_match {
            self.out[self.flags_pos] |= 1 << self.flag_bit;
        }
        self.flag_bit += 1;
        self.out.extend_from_slice(bytes);
    }
}

impl Sink for StreamSink {
    fn literal(&mut self, byte: u8) {
        self.item(false, &[byte]);
    }

    fn matched(&mut self, offset: usize, len: usize) {
        let off = offset - 1;
        self.item(
            true,
            &[
                (off >> 8) as u8,
                (off & 0xff) as u8,
                (len - MIN_MATCH) as u8,
            ],
        );
    }
}

#[derive(Default)]
struct CountSink {
    items: usize,
    item_bytes: usize,
}

impl Sink for CountSink {
    fn literal(&mut self, _byte: u8) {
        self.items += 1;
        self.item_bytes += 1;
    }

    fn matched(&mut self, _offset: usize, _len: usize) {
        self.items += 1;
        self.item_bytes += 3;
    }
}

/// Compress `input`; output is self-delimiting given its length.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut sink = StreamSink {
        out: Vec::with_capacity(input.len() / 2 + 16),
        flags_pos: 0,
        flag_bit: 8,
    };
    encode(input, &mut sink);
    sink.out
}

/// `compress(input).len()` without materialising the stream (the Figure 2
/// sampler only wants the size).
pub fn compressed_len(input: &[u8]) -> usize {
    let mut sink = CountSink::default();
    encode(input, &mut sink);
    sink.item_bytes + sink.items.div_ceil(8)
}

/// Decompress a stream produced by [`compress`] from an input of exactly
/// `expected_len` bytes. The output buffer is allocated once and never
/// grows past `expected_len`: a stream that would decode to more fails with
/// [`LzssError::TooLong`] at the first item that crosses the line (a forged
/// all-match stream otherwise expands 86×), one that ends early with
/// [`LzssError::TooShort`].
pub fn decompress(data: &[u8], expected_len: usize) -> Result<Vec<u8>, LzssError> {
    // No stream decodes to more than MAX_MATCH bytes per 3-byte item, so a
    // forged `expected_len` cannot reserve more than 86× the stream either.
    let mut out = Vec::with_capacity(expected_len.min(data.len().saturating_mul(MAX_MATCH / 3)));
    let mut i = 0;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        if i >= data.len() {
            // An encoder never emits a flag byte without at least one item.
            return Err(LzssError::Truncated);
        }
        for bit in 0..8 {
            if i >= data.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                if i + 3 > data.len() {
                    return Err(LzssError::Truncated);
                }
                let off = ((data[i] as usize) << 8 | data[i + 1] as usize) + 1;
                let len = data[i + 2] as usize + MIN_MATCH;
                i += 3;
                if off > out.len() {
                    return Err(LzssError::BadOffset {
                        offset: off,
                        have: out.len(),
                    });
                }
                if len > expected_len - out.len() {
                    return Err(LzssError::TooLong {
                        expected: expected_len,
                    });
                }
                let start = out.len() - off;
                if off >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // The match overlaps its own output (a run): each byte
                    // may be one this loop just wrote.
                    for k in start..start + len {
                        let b = out[k];
                        out.push(b);
                    }
                }
            } else {
                if out.len() == expected_len {
                    return Err(LzssError::TooLong {
                        expected: expected_len,
                    });
                }
                out.push(data[i]);
                i += 1;
            }
        }
    }
    if out.len() != expected_len {
        return Err(LzssError::TooShort {
            expected: expected_len,
            got: out.len(),
        });
    }
    Ok(out)
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzssError {
    Truncated,
    BadOffset {
        offset: usize,
        have: usize,
    },
    /// The stream decodes to more than the `expected` bytes.
    TooLong {
        expected: usize,
    },
    /// The stream ended after `got` of the `expected` bytes.
    TooShort {
        expected: usize,
        got: usize,
    },
}

impl std::fmt::Display for LzssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzssError::Truncated => write!(f, "lzss stream truncated"),
            LzssError::BadOffset { offset, have } => {
                write!(f, "lzss back-reference {offset} exceeds output {have}")
            }
            LzssError::TooLong { expected } => {
                write!(f, "lzss stream decodes past the expected {expected} bytes")
            }
            LzssError::TooShort { expected, got } => {
                write!(f, "lzss stream decoded to {got} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for LzssError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The matcher every archive and Figure 2 number on record was produced
    /// with — a `HashMap` from trigram to its positions, newest last. Kept
    /// as the oracle [`compress`] must equal byte for byte.
    fn reference_compress(input: &[u8]) -> Vec<u8> {
        let mut sink = StreamSink {
            out: Vec::new(),
            flags_pos: 0,
            flag_bit: 8,
        };
        let mut chains: HashMap<[u8; 3], Vec<usize>> = HashMap::new();
        let mut i = 0;
        while i < input.len() {
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            if i + MIN_MATCH <= input.len() {
                let key = [input[i], input[i + 1], input[i + 2]];
                if let Some(positions) = chains.get(&key) {
                    for &p in positions.iter().rev().take(MAX_CANDIDATES) {
                        if i - p > WINDOW {
                            break; // older candidates only get further away
                        }
                        let max_here = MAX_MATCH.min(input.len() - i);
                        let mut l = 0;
                        while l < max_here && input[p + l] == input[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_off = i - p;
                            if l == max_here {
                                break;
                            }
                        }
                    }
                }
            }
            let end = if best_len >= MIN_MATCH {
                sink.matched(best_off, best_len);
                i + best_len
            } else {
                sink.literal(input[i]);
                i + 1
            };
            while i < end {
                if i + MIN_MATCH <= input.len() {
                    let key = [input[i], input[i + 1], input[i + 2]];
                    let v = chains.entry(key).or_default();
                    v.push(i);
                    if v.len() > 4 * MAX_CANDIDATES {
                        v.drain(..2 * MAX_CANDIDATES);
                    }
                }
                i += 1;
            }
        }
        sink.out
    }

    fn assert_matches_reference(data: &[u8]) {
        let c = compress(data);
        assert!(
            c == reference_compress(data),
            "stream differs from the reference ({} bytes in)",
            data.len()
        );
        assert_eq!(compressed_len(data), c.len());
        assert_eq!(decompress(&c, data.len()).expect("decompress"), data);
    }

    fn json_like(n: usize) -> Vec<u8> {
        let mut s = String::new();
        for i in 0..n {
            s.push_str(&format!(
                r#"{{"block_num":{i},"producer":"eosio.prods","transactions":[{{"account":"eosio.token","name":"transfer"}}]}}"#
            ));
        }
        s.into_bytes()
    }

    #[test]
    fn roundtrip_basics() {
        for data in [
            &b""[..],
            b"a",
            b"ab",
            b"abc",
            b"abcabcabcabcabcabc",
            b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            "καλημέρα κόσμε".as_bytes(),
        ] {
            assert_matches_reference(data);
        }
    }

    #[test]
    fn roundtrip_json_like() {
        let data = json_like(200);
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 3,
            "JSON should compress well: {} vs {}",
            c.len(),
            data.len()
        );
        assert_matches_reference(&data);
    }

    #[test]
    fn incompressible_data_expands_bounded() {
        // Worst case: every byte is a literal, plus one flag byte per 8.
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 8 + 2);
        assert_matches_reference(&data);
    }

    #[test]
    fn long_matches_cross_group_boundaries() {
        let mut data = Vec::new();
        for _ in 0..10 {
            data.extend_from_slice(b"0123456789abcdef");
        }
        data.extend_from_slice(&vec![b'z'; 1000]);
        assert_matches_reference(&data);
    }

    /// Inputs built so every rule of the matcher binds: a period-3 run
    /// longer than the window (one trigram bucket holds > 32 candidates and
    /// reaches past `WINDOW`), far repeats at exactly / just past the window
    /// edge, and matches that end exactly at the input's end.
    #[test]
    fn window_edge_and_candidate_cap_match_the_reference() {
        let run: Vec<u8> = b"abc".iter().copied().cycle().take(WINDOW + 5000).collect();
        assert_matches_reference(&run);

        let noise = |n: usize, salt: u32| -> Vec<u8> {
            (0..n as u32)
                .map(|i| ((i ^ salt).wrapping_mul(2654435761) >> 11) as u8)
                .collect()
        };
        let needle = b"the quick brown needle";
        for offset in [WINDOW - 1, WINDOW, WINDOW + 1, WINDOW + 2] {
            // The needle repeats `offset` bytes later: the last offset the
            // format can express, and the first ones it cannot.
            let mut data = needle.to_vec();
            data.extend(noise(offset - needle.len(), offset as u32));
            data.extend_from_slice(needle);
            assert_matches_reference(&data);
        }

        // Many equally long candidates: the nearest must win.
        let mut ties = Vec::new();
        for i in 0..100u8 {
            ties.extend_from_slice(b"key=");
            ties.push(i);
        }
        ties.extend_from_slice(b"key=");
        assert_matches_reference(&ties);

        // Back-to-back inputs on one thread share the scratch tables.
        let text = json_like(800);
        for n in [3, 70_000, 2, 900, 40_000] {
            assert_matches_reference(&text[..n]);
        }
    }

    proptest! {
        #[test]
        fn random_bytes_match_the_reference(data in proptest::collection::vec(any::<u8>(), 0..6000)) {
            assert_matches_reference(&data);
        }

        /// Low-entropy text: long bucket chains, overlapping runs, many ties.
        #[test]
        fn repetitive_text_matches_the_reference(
            words in proptest::collection::vec(0usize..12, 0..3000),
            cut in 0usize..4,
        ) {
            const VOCAB: [&str; 12] = [
                "{\"account\":", "\"eosio.token\"", ",\"name\":", "\"transfer\"", "aaa", "abab",
                "0", "1", "\"}", ",", "tz1", "é",
            ];
            let mut data: Vec<u8> = words.iter().flat_map(|w| VOCAB[*w].bytes()).collect();
            data.truncate(data.len().saturating_sub(cut));
            assert_matches_reference(&data);
        }

        #[test]
        fn decompress_is_total(data in proptest::collection::vec(any::<u8>(), 0..512), want in 0usize..4096) {
            if let Ok(out) = decompress(&data, want) {
                prop_assert_eq!(out.len(), want);
            }
        }
    }

    #[test]
    fn truncation_at_every_offset_is_a_typed_error() {
        let data = json_like(40);
        let c = compress(&data);
        for cut in 0..c.len() {
            match decompress(&c[..cut], data.len()) {
                Err(LzssError::Truncated) => {}
                // Cut on an item boundary: a strict prefix decoded.
                Err(LzssError::TooShort { expected, got }) => {
                    assert_eq!(expected, data.len());
                    assert!(got < data.len(), "cut {cut} decoded the whole input");
                }
                other => panic!("cut {cut} of {}: {other:?}", c.len()),
            }
        }
        // A flag byte claiming a match with no data must error.
        assert_eq!(decompress(&[0x01], 3), Err(LzssError::Truncated));
    }

    #[test]
    fn detects_bad_offset() {
        // Flag says match; offset 1 with empty output is invalid.
        let bad = [0x01, 0x00, 0x00, 0x00];
        assert!(matches!(
            decompress(&bad, 3),
            Err(LzssError::BadOffset { .. })
        ));
    }

    #[test]
    fn forged_all_match_stream_fails_typed_without_growing() {
        // One literal, then nothing but maximal matches at offset 1: 25
        // stream bytes per 2064 output bytes (~83x).
        let mut forged = vec![0b1111_1110, b'x'];
        forged.extend_from_slice(&[0, 0, 255].repeat(7));
        for _ in 0..500 {
            forged.push(0xff);
            forged.extend_from_slice(&[0, 0, 255].repeat(8));
        }
        let raw_len = 4096;
        assert_eq!(
            decompress(&forged, raw_len),
            Err(LzssError::TooLong { expected: raw_len })
        );
        // The honest stream of the same shape decodes into exactly one
        // allocation of `raw_len`.
        let run = vec![b'x'; raw_len];
        let out = decompress(&compress(&run), raw_len).expect("valid stream");
        assert_eq!(out.capacity(), raw_len);
        // A forged *length* cannot reserve more than the stream could fill.
        let huge = decompress(&compress(&run), usize::MAX);
        assert!(matches!(huge, Err(LzssError::TooShort { got, .. }) if got == raw_len));
    }
}
