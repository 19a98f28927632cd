//! XRP ledger account addresses (`r…`).
//!
//! §2.3.3: accounts are identified by addresses derived from key pairs, plus
//! a handful of "special addresses" not derived from any key (funds sent
//! there are permanently lost). We keep a 64-bit id and render it
//! base58check-style with the `r` prefix using the *Ripple* base58 alphabet
//! (which differs from Bitcoin's — it starts `rpshnaf…`).

use std::fmt;
use std::str::FromStr;
use txstat_types::base58::RIPPLE;
use txstat_types::ids::fnv1a64;

/// What every account's text starts with.
const PREFIX: &str = "r";

/// A ledger account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccountId(pub u64);

impl AccountId {
    /// ACCOUNT_ZERO — the canonical special address (base of `rrrrr…`);
    /// funds sent here are unrecoverable.
    pub const ACCOUNT_ZERO: AccountId = AccountId(0);

    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Special addresses have no key pair; we reserve ids < 16.
    #[cfg(test)]
    fn is_special(self) -> bool {
        self.0 < 16
    }

    fn payload(self) -> [u8; 10] {
        let idb = self.0.to_be_bytes();
        let ck = (fnv1a64(&idb) & 0xffff) as u16;
        let mut p = [0u8; 10];
        p[..8].copy_from_slice(&idb);
        p[8..].copy_from_slice(&ck.to_be_bytes());
        p
    }

    /// Longest text form: `r` plus the base58 of ten payload bytes (80 bits
    /// are at most 14 digits, leading-zero digits included).
    pub const MAX_LEN: usize = 1 + 14;

    /// The text form (`r…`), rendered into `buf` without allocating.
    /// `Display` and the wire writer both go through here.
    pub fn encode(self, buf: &mut [u8; Self::MAX_LEN]) -> &str {
        RIPPLE.encode(PREFIX, &self.payload(), buf)
    }
}

/// Address parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressError {
    BadPrefix,
    BadEncoding,
    BadChecksum,
}

impl fmt::Display for AddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressError::BadPrefix => write!(f, "address must start with r"),
            AddressError::BadEncoding => write!(f, "invalid base58 payload"),
            AddressError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for AddressError {}

impl txstat_types::WireText for AccountId {
    fn write_text(self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.encode(&mut [0; Self::MAX_LEN]).as_bytes());
    }

    /// [`AccountId::encode`]'s length: `r` plus the payload's base58 digits.
    fn text_len(self) -> usize {
        PREFIX.len() + txstat_types::base58::encoded_len(&self.payload())
    }
}

impl txstat_types::colcodec::ColKey for AccountId {
    /// Wire column form: the raw 64-bit id.
    fn encode_key(&self, w: &mut txstat_types::colcodec::ColWriter) {
        w.u64(self.0);
    }

    fn decode_key(
        r: &mut txstat_types::colcodec::ColReader<'_>,
    ) -> Result<Self, txstat_types::colcodec::ColError> {
        Ok(AccountId(r.u64()?))
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.encode(&mut [0; Self::MAX_LEN]))
    }
}

impl FromStr for AccountId {
    type Err = AddressError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s.strip_prefix(PREFIX).ok_or(AddressError::BadPrefix)?;
        let bytes: [u8; 10] = RIPPLE.decode(rest).ok_or(AddressError::BadEncoding)?;
        let mut idb = [0u8; 8];
        idb.copy_from_slice(&bytes[..8]);
        let id = u64::from_be_bytes(idb);
        let want = (fnv1a64(&idb) & 0xffff) as u16;
        let got = u16::from_be_bytes([bytes[8], bytes[9]]);
        if want != got {
            return Err(AddressError::BadChecksum);
        }
        Ok(AccountId(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use txstat_types::WireText;

    #[test]
    fn renders_with_r_prefix() {
        let a = AccountId(424242);
        let s = a.to_string();
        assert!(s.starts_with('r'), "{s}");
        assert_eq!(s.parse::<AccountId>().unwrap(), a);
    }

    #[test]
    fn account_zero_is_special() {
        assert!(AccountId::ACCOUNT_ZERO.is_special());
        assert!(!AccountId(1000).is_special());
        let s = AccountId::ACCOUNT_ZERO.to_string();
        // Payload is 8 zero bytes + checksum of zeros → leading 'r's preserved.
        assert!(s.starts_with("rrrr"), "{s}");
        assert_eq!(s.parse::<AccountId>().unwrap(), AccountId::ACCOUNT_ZERO);
    }

    #[test]
    fn rejects_corruption() {
        let s = AccountId(987654321).to_string();
        let mut chars: Vec<char> = s.chars().collect();
        let last = chars.len() - 1;
        chars[last] = if chars[last] == 'z' { 'y' } else { 'z' };
        let corrupted: String = chars.into_iter().collect();
        assert!(corrupted.parse::<AccountId>().is_err());
        assert_eq!("xnotanaddr".parse::<AccountId>(), Err(AddressError::BadPrefix));
        // '0', 'O', 'I', 'l' are not in the ripple alphabet.
        assert_eq!("r0O".parse::<AccountId>(), Err(AddressError::BadEncoding));
    }

    /// The allocation-based renderer this crate used before
    /// `AccountId::encode`, kept as the oracle: a digit-at-a-time `u128`
    /// base conversion of the payload behind the `r`.
    fn reference_string(a: AccountId) -> String {
        const RIPPLE_B58: &[u8; 58] = b"rpshnaf39wBUDNEGHJKLM4PQRST7VWXYZ2bcdeCg65jkm8oFqi1tuvAxyz";
        let payload = a.payload();
        let mut n: u128 = 0;
        for &b in &payload {
            n = (n << 8) | b as u128;
        }
        let mut digits = Vec::new();
        loop {
            digits.push(RIPPLE_B58[(n % 58) as usize]);
            n /= 58;
            if n == 0 {
                break;
            }
        }
        for &b in &payload {
            if b == 0 {
                digits.push(RIPPLE_B58[0]);
            } else {
                break;
            }
        }
        digits.reverse();
        format!("r{}", String::from_utf8(digits).expect("alphabet is ASCII"))
    }

    fn check_text(a: AccountId) {
        let mut buf = [0u8; AccountId::MAX_LEN];
        let text = a.encode(&mut buf).to_owned();
        assert_eq!(a.text_len(), text.len(), "{a:?}");
        assert_eq!(text, reference_string(a), "{a:?}");
        assert_eq!(text, a.to_string(), "{a:?}");
        assert_eq!(text.parse::<AccountId>(), Ok(a), "{text}");
    }

    #[test]
    fn text_matches_the_reference_at_the_edges() {
        // 58¹⁰ splits the payload (id · 2¹⁶ + checksum) into its two digit
        // runs; ids around 58¹⁰ / 2¹⁶ straddle it.
        let split = 58u64.pow(10) >> 16;
        let mut ids = vec![0, 1, 57, 58, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for around in [1 << 8, 1 << 16, 1 << 24, 1 << 32, 1 << 40, 1 << 48, 1 << 56, split] {
            ids.extend([around - 1, around, around + 1]);
        }
        for id in ids {
            check_text(AccountId(id));
        }
        assert_eq!(AccountId(u64::MAX).to_string().len(), AccountId::MAX_LEN);
    }

    proptest! {
        #[test]
        fn prop_text_matches_the_reference(id in any::<u64>(), shift in 0u32..64) {
            // Shifted down so every count of leading zero bytes (leading
            // `r` digits) is drawn.
            check_text(AccountId(id >> shift));
        }
    }
}
