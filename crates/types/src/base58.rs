//! Base58 text for short fixed-width payloads (account ids plus checksum),
//! parameterised by alphabet: Tezos renders with Bitcoin's, XRP with
//! Ripple's. One routine for both, writing into a caller's stack buffer —
//! every address in the Figure 2 wire JSON goes through [`Alphabet::encode`],
//! so it allocates nothing and divides in 64 bits.
//!
//! The text is the payload read as one big-endian integer, in minimal
//! base-58 digits (a single zero digit for 0), preceded by one zero digit
//! per leading zero *byte* — base58check's convention, which keeps the
//! payload width recoverable.

/// Most digits [`Alphabet::encode`] produces: a 16-byte payload.
pub const MAX_DIGITS: usize = 22;

/// 58¹⁰, the largest power of 58 in a `u64`: one 128-bit division peels ten
/// digits, which then come out in 64-bit arithmetic.
const CHUNK: u64 = 58u64.pow(10);

/// A base58 digit set with its inverse.
pub struct Alphabet {
    digits: [u8; 58],
    /// Digit value per ASCII byte; `0xff` for bytes outside the alphabet.
    values: [u8; 128],
}

/// Bitcoin's alphabet (Tezos, and base58check at large).
pub const BITCOIN: Alphabet =
    Alphabet::new(b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz");

/// Ripple's alphabet: the same 58 characters in another order (`r` is zero).
pub const RIPPLE: Alphabet =
    Alphabet::new(b"rpshnaf39wBUDNEGHJKLM4PQRST7VWXYZ2bcdeCg65jkm8oFqi1tuvAxyz");

impl Alphabet {
    /// `digits` must be 58 distinct ASCII bytes.
    pub const fn new(digits: &[u8; 58]) -> Self {
        let mut values = [0xff_u8; 128];
        let mut i = 0;
        while i < 58 {
            let c = digits[i] as usize;
            assert!(c < 128 && values[c] == 0xff, "alphabet must be 58 distinct ASCII bytes");
            values[c] = i as u8;
            i += 1;
        }
        Alphabet { digits: *digits, values }
    }

    /// Render `prefix` followed by the base58 of `payload` (at most 16
    /// bytes) into the tail of `buf` and return the text. Panics when `buf`
    /// is too short; `prefix.len() + MAX_DIGITS` bytes always suffice, and a
    /// 10-byte payload needs at most 14 digits.
    pub fn encode<'a>(&self, prefix: &str, payload: &[u8], buf: &'a mut [u8]) -> &'a str {
        assert!(payload.len() <= 16, "payload of {} bytes does not fit a u128", payload.len());
        let mut n = payload.iter().fold(0u128, |n, &b| (n << 8) | b as u128);
        let mut at = buf.len();
        let mut push = |digit: u64| {
            at -= 1;
            buf[at] = self.digits[digit as usize];
        };
        while n > u64::MAX as u128 {
            let rest = n / CHUNK as u128;
            let mut low = (n - rest * CHUNK as u128) as u64;
            for _ in 0..10 {
                push(low % 58);
                low /= 58;
            }
            n = rest;
        }
        let mut low = n as u64;
        loop {
            push(low % 58);
            low /= 58;
            if low == 0 {
                break;
            }
        }
        for _ in payload.iter().take_while(|b| **b == 0) {
            push(0);
        }
        let start = at - prefix.len();
        buf[start..at].copy_from_slice(prefix.as_bytes());
        std::str::from_utf8(&buf[start..]).expect("alphabet is ASCII")
    }

    /// Inverse of [`Alphabet::encode`] for a payload of exactly `N` bytes:
    /// `None` for a character outside the alphabet, a value beyond 128 bits,
    /// or a text whose leading zero digits plus value bytes are not `N` wide.
    pub fn decode<const N: usize>(&self, text: &str) -> Option<[u8; N]> {
        let mut n: u128 = 0;
        let mut leading = 0usize;
        for c in text.bytes() {
            let v = *self.values.get(c as usize).filter(|v| **v != 0xff)?;
            if n == 0 && v == 0 {
                leading += 1;
                continue;
            }
            n = n.checked_mul(58)?.checked_add(v as u128)?;
        }
        let value_len = (128 - n.leading_zeros() as usize).div_ceil(8);
        if leading + value_len != N {
            return None;
        }
        let mut out = [0u8; N];
        out[leading..].copy_from_slice(&n.to_be_bytes()[16 - value_len..]);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocation-based encoder both chain crates used to carry, kept
    /// as the oracle: one `u128` `%`/`/` per digit.
    fn reference_encode(alphabet: &[u8; 58], payload: &[u8]) -> String {
        let mut n: u128 = 0;
        for &b in payload {
            n = (n << 8) | b as u128;
        }
        let mut digits = Vec::new();
        loop {
            digits.push(alphabet[(n % 58) as usize]);
            n /= 58;
            if n == 0 {
                break;
            }
        }
        for &b in payload {
            if b == 0 {
                digits.push(alphabet[0]);
            } else {
                break;
            }
        }
        digits.reverse();
        String::from_utf8(digits).expect("alphabet is ASCII")
    }

    /// Its decoding twin: minimal big-endian bytes of the value behind one
    /// zero byte per leading zero digit.
    fn reference_decode(alphabet: &[u8; 58], s: &str) -> Option<Vec<u8>> {
        let mut n: u128 = 0;
        let mut leading = 0usize;
        let mut seen_nonzero = false;
        for c in s.bytes() {
            let v = alphabet.iter().position(|&b| b == c)? as u128;
            if !seen_nonzero {
                if v == 0 {
                    leading += 1;
                    continue;
                }
                seen_nonzero = true;
            }
            n = n.checked_mul(58)?.checked_add(v)?;
        }
        let mut bytes = Vec::new();
        while n > 0 {
            bytes.push((n & 0xff) as u8);
            n >>= 8;
        }
        bytes.extend(std::iter::repeat_n(0, leading));
        bytes.reverse();
        Some(bytes)
    }

    fn check(alphabet: &Alphabet, payload: &[u8]) {
        let mut buf = [0u8; MAX_DIGITS];
        let text = alphabet.encode("", payload, &mut buf);
        assert_eq!(text, reference_encode(&alphabet.digits, payload), "payload {payload:02x?}");
        // An all-zero payload renders one digit more than it has bytes (the
        // value's own zero digit) and so never parsed back.
        if payload.iter().any(|b| *b != 0) {
            assert_eq!(reference_decode(&alphabet.digits, text).as_deref(), Some(payload));
        }
    }

    #[test]
    fn edges_match_the_reference() {
        let chunk = CHUNK as u128;
        let mut values = vec![0u128, 1, 57, 58, u64::MAX as u128, u64::MAX as u128 + 1, u128::MAX];
        for around in [chunk, chunk * chunk, chunk * 58, 1 << 80, 1 << 72, 1 << 64, 1 << 56] {
            values.extend([around - 1, around, around + 1]);
        }
        for alphabet in [&BITCOIN, &RIPPLE] {
            for &v in &values {
                let bytes = v.to_be_bytes();
                // Every width that still holds the value, so leading zero
                // bytes from none to all are covered.
                let min_len = (128 - v.leading_zeros() as usize).div_ceil(8);
                for len in min_len..=16 {
                    check(alphabet, &bytes[16 - len..]);
                }
            }
            check(alphabet, &[]);
        }
        let mut buf = [0u8; MAX_DIGITS];
        assert_eq!(BITCOIN.encode("", &[0xff; 16], &mut buf).len(), MAX_DIGITS);
    }

    #[test]
    fn decode_is_width_checked() {
        let mut buf = [0u8; MAX_DIGITS];
        let text = BITCOIN.encode("", &[0, 0, 7, 9], &mut buf).to_owned();
        assert_eq!(BITCOIN.decode::<4>(&text), Some([0, 0, 7, 9]));
        assert_eq!(BITCOIN.decode::<3>(&text), None);
        assert_eq!(BITCOIN.decode::<5>(&text), None);
        assert_eq!(BITCOIN.decode::<4>("0OIl"), None, "not base58 characters");
        assert_eq!(BITCOIN.decode::<4>("é"), None, "non-ASCII");
        assert_eq!(BITCOIN.decode::<16>(&"z".repeat(23)), None, "beyond 128 bits");
        assert_eq!(BITCOIN.encode("", &[0; 10], &mut buf), "1".repeat(11));
        assert_eq!(BITCOIN.decode::<10>(&"1".repeat(11)), None);
    }

    proptest! {
        #[test]
        fn encode_and_decode_match_the_reference(
            value in any::<u128>(),
            len in 0usize..=16,
            ripple in any::<bool>(),
        ) {
            let alphabet = if ripple { &RIPPLE } else { &BITCOIN };
            let bytes = value.to_be_bytes();
            let payload = &bytes[16 - len..];
            let mut buf = [0u8; MAX_DIGITS];
            let text = alphabet.encode("", payload, &mut buf);
            prop_assert_eq!(text, reference_encode(&alphabet.digits, payload));
            // Ten bytes is the width both chains use.
            let want = reference_decode(&alphabet.digits, text).filter(|b| b.len() == 10);
            prop_assert_eq!(alphabet.decode::<10>(text).map(|b| b.to_vec()), want);
        }

        #[test]
        fn decode_matches_the_reference_on_arbitrary_text(text in "[1-9A-Za-z]{0,24}") {
            let want = reference_decode(&BITCOIN.digits, &text).filter(|b| b.len() == 10);
            prop_assert_eq!(BITCOIN.decode::<10>(&text).map(|b| b.to_vec()), want);
        }
    }
}
