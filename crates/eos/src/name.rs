//! EOS account/action name codec.
//!
//! EOS packs names ("eosio.token", "betdicetasks", "transfer") into a `u64`:
//! up to 12 characters from the 32-symbol alphabet `.12345a-z` at 5 bits
//! each, plus an optional 13th character restricted to the first 16 symbols.
//! We implement the exact production encoding so simulated identifiers have
//! the same value space, ordering, and string forms as mainnet's.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The EOS name alphabet, in symbol-index order.
const CHARMAP: &[u8; 32] = b".12345abcdefghijklmnopqrstuvwxyz";

/// A base32-packed EOS name (account, action, permission, table…).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
#[serde(into = "String", try_from = "String")]
pub struct Name(pub u64);

/// Errors from parsing an EOS name string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    TooLong,
    BadChar(char),
    Bad13thChar(char),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::TooLong => write!(f, "name longer than 13 characters"),
            NameError::BadChar(c) => write!(f, "character {c:?} not in .12345a-z"),
            NameError::Bad13thChar(c) => {
                write!(f, "13th character {c:?} must be one of .12345a-j")
            }
        }
    }
}

impl std::error::Error for NameError {}

fn char_to_symbol(c: u8) -> Option<u64> {
    match c {
        b'.' => Some(0),
        b'1'..=b'5' => Some((c - b'1') as u64 + 1),
        b'a'..=b'z' => Some((c - b'a') as u64 + 6),
        _ => None,
    }
}

impl Name {
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Parse a name string (≤13 chars, alphabet `.12345a-z`, 13th ≤ 'j').
    pub fn parse(s: &str) -> Result<Name, NameError> {
        let bytes = s.as_bytes();
        if bytes.len() > 13 {
            return Err(NameError::TooLong);
        }
        let mut value: u64 = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let sym = char_to_symbol(b).ok_or(NameError::BadChar(b as char))?;
            if i < 12 {
                value |= (sym & 0x1f) << (64 - 5 * (i + 1));
            } else {
                // 13th character: only 4 bits available.
                if sym > 0x0f {
                    return Err(NameError::Bad13thChar(b as char));
                }
                value |= sym;
            }
        }
        Ok(Name(value))
    }

    /// Parse, panicking on invalid input — for the workspace's many
    /// compile-time-constant names.
    pub fn new(s: &str) -> Name {
        Self::parse(s).unwrap_or_else(|e| panic!("invalid EOS name {s:?}: {e}"))
    }

    /// Longest text form: twelve 5-bit symbols from the top of the value,
    /// then the 4-bit thirteenth.
    pub const MAX_LEN: usize = 13;

    /// The canonical (trailing-dot-trimmed) string, rendered into `buf`
    /// without allocating. `Display`, [`Name::to_string_repr`] and the wire
    /// writer all go through here.
    pub fn encode(self, buf: &mut [u8; Self::MAX_LEN]) -> &str {
        for (i, c) in buf.iter_mut().enumerate() {
            let sym = if i == 12 { self.0 & 0x0f } else { (self.0 >> (59 - 5 * i)) & 0x1f };
            *c = CHARMAP[sym as usize];
        }
        let len = buf.iter().rposition(|c| *c != b'.').map_or(0, |last| last + 1);
        std::str::from_utf8(&buf[..len]).expect("charmap is ASCII")
    }

    /// Render back to the canonical (trailing-dot-trimmed) string.
    pub fn to_string_repr(self) -> String {
        self.encode(&mut [0; Self::MAX_LEN]).to_owned()
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl txstat_types::colcodec::ColKey for Name {
    /// Wire column form: the packed `u64` (the production encoding is
    /// already canonical — one name, one value).
    fn encode_key(&self, w: &mut txstat_types::colcodec::ColWriter) {
        w.u64(self.0);
    }

    fn decode_key(
        r: &mut txstat_types::colcodec::ColReader<'_>,
    ) -> Result<Self, txstat_types::colcodec::ColError> {
        Ok(Name(r.u64()?))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.encode(&mut [0; Self::MAX_LEN]))
    }
}

impl FromStr for Name {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

impl From<Name> for String {
    fn from(n: Name) -> String {
        n.to_string_repr()
    }
}

impl TryFrom<String> for Name {
    type Error = NameError;
    fn try_from(s: String) -> Result<Self, Self::Error> {
        Name::parse(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_mainnet_values() {
        // Values cross-checked against the production `eosio::name` codec.
        assert_eq!(Name::new("eosio").raw(), 0x5530_EA00_0000_0000);
        assert_eq!(Name::new("eosio.token").raw(), 0x5530_EA03_3482_A600);
        assert_eq!(Name::new("transfer").raw(), 0xCDCD_3C2D_5700_0000);
        assert_eq!(Name::new("").raw(), 0);
    }

    #[test]
    fn roundtrip_paper_accounts() {
        for s in [
            "eosio.token",
            "pornhashbaby",
            "betdicetasks",
            "betdicegroup",
            "whaleextrust",
            "eossanguoone",
            "mykeypostman",
            "bluebetproxy",
            "eidosonecoin",
            "eosio.msig",
            "eosio.wrap",
            "verifytrade2",
            "removetask",
            "delegatebw",
            "buyrambytes",
            "voteproducer",
        ] {
            assert_eq!(Name::new(s).to_string_repr(), s, "roundtrip of {s}");
        }
    }

    #[test]
    fn thirteenth_char() {
        let n = Name::new("aaaaaaaaaaaaj");
        assert_eq!(n.to_string_repr(), "aaaaaaaaaaaaj");
        assert_eq!(Name::parse("aaaaaaaaaaaak"), Err(NameError::Bad13thChar('k')));
    }

    #[test]
    fn rejects_invalid() {
        assert_eq!(Name::parse("aaaaaaaaaaaaaa"), Err(NameError::TooLong));
        assert_eq!(Name::parse("UPPER"), Err(NameError::BadChar('U')));
        assert_eq!(Name::parse("has space"), Err(NameError::BadChar(' ')));
        assert_eq!(Name::parse("nine9"), Err(NameError::BadChar('9')));
    }

    #[test]
    fn ordering_matches_string_ordering_for_same_length() {
        // EOS name u64 ordering is the on-chain table ordering.
        let a = Name::new("alice");
        let b = Name::new("bob");
        assert!(a < b);
    }

    #[test]
    fn serde_as_string() {
        let n = Name::new("eosio.token");
        let j = serde_json::to_string(&n).unwrap();
        assert_eq!(j, "\"eosio.token\"");
        let back: Name = serde_json::from_str(&j).unwrap();
        assert_eq!(back, n);
    }

    /// The allocation-based renderer this crate used before `Name::encode`,
    /// kept as the oracle: symbols peeled from the bottom, `trim_end_matches`.
    fn reference_string(n: Name) -> String {
        let mut chars = [b'.'; 13];
        let mut v = n.0;
        for i in (0..13).rev() {
            let sym = if i == 12 { v & 0x0f } else { v & 0x1f };
            chars[i] = CHARMAP[sym as usize];
            v >>= if i == 12 { 4 } else { 5 };
        }
        let s: &str = std::str::from_utf8(&chars).expect("charmap is ASCII");
        s.trim_end_matches('.').to_owned()
    }

    fn check_text(n: Name) {
        let mut buf = [0u8; Name::MAX_LEN];
        let text = n.encode(&mut buf).to_owned();
        assert_eq!(text, reference_string(n), "{n:?}");
        assert_eq!(text, n.to_string(), "{n:?}");
        assert_eq!(text, n.to_string_repr(), "{n:?}");
        assert_eq!(Name::parse(&text), Ok(n), "{text:?}");
    }

    #[test]
    fn text_matches_the_reference_at_the_edges() {
        for raw in [0, 1, 0x0f, 0x10, 1 << 4, 1 << 59, 1 << 63, u64::MAX - 1, u64::MAX] {
            check_text(Name(raw));
        }
        // Empty, 13 characters, inner and trailing dots: only the trailing
        // run is trimmed.
        for (s, canon) in [
            ("", ""),
            ("a", "a"),
            ("aaaaaaaaaaaaj", "aaaaaaaaaaaaj"),
            ("zzzzzzzzzzzzj", "zzzzzzzzzzzzj"),
            ("aaaaaaaaaaaa.", "aaaaaaaaaaaa"),
            ("a...........j", "a...........j"),
            ("a.b..", "a.b"),
            (".a", ".a"),
            (".............", ""),
            ("............1", "............1"),
        ] {
            let n = Name::new(s);
            check_text(n);
            assert_eq!(n.to_string(), canon);
        }
    }

    proptest! {
        #[test]
        fn prop_text_matches_the_reference(raw in any::<u64>(), keep in 0u32..=64) {
            // Low bits cleared so names of every length (trailing dots
            // trimmed) are drawn, not just 13-character ones.
            check_text(Name(raw & u64::MAX.checked_shl(64 - keep).unwrap_or(0)));
        }

        #[test]
        fn prop_roundtrip(s in "[a-z1-5.]{1,12}") {
            // Canonical form trims trailing dots; compare trimmed.
            let n = Name::parse(&s).unwrap();
            let canon = s.trim_end_matches('.');
            prop_assert_eq!(n.to_string_repr(), canon);
        }
    }
}
