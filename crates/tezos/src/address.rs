//! Tezos addresses: implicit (`tz1…`) and originated (`KT1…`) accounts.
//!
//! §2.3.2: implicit accounts are key-pair derived and can bake/receive
//! stakes; originated accounts are created by implicit ones, can act as
//! smart contracts, and delegate to bakers. We keep a 64-bit internal id and
//! render it base58check-style with the production prefixes so addresses
//! look and parse like mainnet's.

use std::fmt;
use std::str::FromStr;
use txstat_types::base58::BITCOIN;
use txstat_types::ids::fnv1a64;

/// Address class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddrKind {
    /// tz1 — key-pair account; can bake and be a delegate.
    Implicit,
    /// KT1 — originated account / smart contract.
    Originated,
}

/// A Tezos address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address {
    pub kind: AddrKind,
    pub id: u64,
}

impl Address {
    pub const fn implicit(id: u64) -> Self {
        Address {
            kind: AddrKind::Implicit,
            id,
        }
    }

    pub const fn originated(id: u64) -> Self {
        Address {
            kind: AddrKind::Originated,
            id,
        }
    }

    pub fn is_implicit(&self) -> bool {
        self.kind == AddrKind::Implicit
    }

    fn prefix(&self) -> &'static str {
        match self.kind {
            AddrKind::Implicit => "tz1",
            AddrKind::Originated => "KT1",
        }
    }

    fn payload(&self) -> [u8; 10] {
        // 8 id bytes + 2 checksum bytes.
        let idb = self.id.to_be_bytes();
        let ck = (fnv1a64(&idb) & 0xffff) as u16;
        let mut p = [0u8; 10];
        p[..8].copy_from_slice(&idb);
        p[8..].copy_from_slice(&ck.to_be_bytes());
        p
    }

    /// Longest text form: the prefix plus the base58 of ten payload bytes
    /// (80 bits are at most 14 digits, leading-zero digits included).
    pub const MAX_LEN: usize = 3 + 14;

    /// The text form (`tz1…` / `KT1…`), rendered into `buf` without
    /// allocating. `Display` and the wire writer both go through here.
    pub fn encode(self, buf: &mut [u8; Self::MAX_LEN]) -> &str {
        BITCOIN.encode(self.prefix(), &self.payload(), buf)
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
            AddressError::BadPrefix => write!(f, "address must start with tz1 or KT1"),
            AddressError::BadEncoding => write!(f, "invalid base58 payload"),
            AddressError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for AddressError {}

impl txstat_types::WireText for Address {
    fn write_text(self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.encode(&mut [0; Self::MAX_LEN]).as_bytes());
    }

    /// [`Address::encode`]'s length: the prefix plus the payload's base58 digits.
    fn text_len(self) -> usize {
        self.prefix().len() + txstat_types::base58::encoded_len(&self.payload())
    }
}

impl txstat_types::colcodec::ColKey for Address {
    /// Wire column form: a one-byte kind tag (0 = implicit, 1 = originated)
    /// plus the 64-bit internal id.
    fn encode_key(&self, w: &mut txstat_types::colcodec::ColWriter) {
        w.byte(match self.kind {
            AddrKind::Implicit => 0,
            AddrKind::Originated => 1,
        });
        w.u64(self.id);
    }

    fn decode_key(
        r: &mut txstat_types::colcodec::ColReader<'_>,
    ) -> Result<Self, txstat_types::colcodec::ColError> {
        let kind = match r.byte()? {
            0 => AddrKind::Implicit,
            1 => AddrKind::Originated,
            other => return Err(r.invalid(format!("bad address kind tag {other}"))),
        };
        Ok(Address { kind, id: r.u64()? })
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.encode(&mut [0; Self::MAX_LEN]))
    }
}

impl FromStr for Address {
    type Err = AddressError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, rest) = if let Some(r) = s.strip_prefix("tz1") {
            (AddrKind::Implicit, r)
        } else if let Some(r) = s.strip_prefix("KT1") {
            (AddrKind::Originated, r)
        } else {
            return Err(AddressError::BadPrefix);
        };
        let bytes: [u8; 10] = BITCOIN.decode(rest).ok_or(AddressError::BadEncoding)?;
        let mut idb = [0u8; 8];
        idb.copy_from_slice(&bytes[..8]);
        let id = u64::from_be_bytes(idb);
        let want = (fnv1a64(&idb) & 0xffff) as u16;
        let got = u16::from_be_bytes([bytes[8], bytes[9]]);
        if want != got {
            return Err(AddressError::BadChecksum);
        }
        Ok(Address { kind, id })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use txstat_types::WireText;

    #[test]
    fn roundtrip_and_prefixes() {
        let a = Address::implicit(42);
        let s = a.to_string();
        assert!(s.starts_with("tz1"), "{s}");
        assert_eq!(s.parse::<Address>().unwrap(), a);

        let k = Address::originated(7_000_000);
        let ks = k.to_string();
        assert!(ks.starts_with("KT1"), "{ks}");
        assert_eq!(ks.parse::<Address>().unwrap(), k);
    }

    #[test]
    fn checksum_detects_corruption() {
        let s = Address::implicit(123456789).to_string();
        // Flip one payload character to another alphabet character.
        let mut chars: Vec<char> = s.chars().collect();
        let last = chars.len() - 1;
        chars[last] = if chars[last] == '2' { '3' } else { '2' };
        let corrupted: String = chars.into_iter().collect();
        assert!(matches!(
            corrupted.parse::<Address>(),
            Err(AddressError::BadChecksum) | Err(AddressError::BadEncoding)
        ));
    }

    #[test]
    fn rejects_bad_prefix() {
        assert_eq!("xyz9aaaa".parse::<Address>(), Err(AddressError::BadPrefix));
        assert_eq!(
            "tz10O".parse::<Address>(), // 'O' and '0' are not base58
            Err(AddressError::BadEncoding)
        );
    }

    /// The allocation-based renderer this crate used before
    /// `Address::encode`, kept as the oracle: `format!` of the prefix and a
    /// digit-at-a-time `u128` base conversion of the payload.
    fn reference_string(a: Address) -> String {
        const BASE58: &[u8; 58] = b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz";
        let payload = a.payload();
        let mut n: u128 = 0;
        for &b in &payload {
            n = (n << 8) | b as u128;
        }
        let mut digits = Vec::new();
        loop {
            digits.push(BASE58[(n % 58) as usize]);
            n /= 58;
            if n == 0 {
                break;
            }
        }
        // Preserve leading zero bytes as '1's (like real base58check).
        for &b in &payload {
            if b == 0 {
                digits.push(b'1');
            } else {
                break;
            }
        }
        digits.reverse();
        format!(
            "{}{}",
            a.prefix(),
            String::from_utf8(digits).expect("base58 alphabet is ASCII")
        )
    }

    fn check_text(a: Address) {
        let mut buf = [0u8; Address::MAX_LEN];
        let text = a.encode(&mut buf).to_owned();
        assert_eq!(a.text_len(), text.len(), "{a:?}");
        assert_eq!(text, reference_string(a), "{a:?}");
        assert_eq!(text, a.to_string(), "{a:?}");
        assert_eq!(text.parse::<Address>(), Ok(a), "{text}");
    }

    #[test]
    fn text_matches_the_reference_at_the_edges() {
        // 58¹⁰ splits the payload (id · 2¹⁶ + checksum) into its two digit
        // runs; ids around 58¹⁰ / 2¹⁶ straddle it.
        let split = 58u64.pow(10) >> 16;
        let mut ids = vec![0, 1, 57, 58, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for around in [
            1 << 8,
            1 << 16,
            1 << 24,
            1 << 32,
            1 << 40,
            1 << 48,
            1 << 56,
            split,
        ] {
            ids.extend([around - 1, around, around + 1]);
        }
        for id in ids {
            check_text(Address::implicit(id));
            check_text(Address::originated(id));
        }
        // Leading zero payload bytes render as leading '1's.
        assert!(Address::implicit(5).to_string().starts_with("tz11111111"));
        assert_eq!(
            Address::implicit(u64::MAX).to_string().len(),
            Address::MAX_LEN
        );
    }

    proptest! {
        #[test]
        fn prop_text_matches_the_reference(id in any::<u64>(), shift in 0u32..64, originated in any::<bool>()) {
            // Shifted down so every count of leading zero bytes is drawn.
            let id = id >> shift;
            check_text(if originated { Address::originated(id) } else { Address::implicit(id) });
        }
    }
}
