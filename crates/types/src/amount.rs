//! Fixed-point quantities and inline symbol codes.
//!
//! All three chains account in integer sub-units (EOS: 4 decimals; Tezos:
//! mutez, 6 decimals; XRP: drops, 6 decimals; IOU amounts: variable). We use
//! an `i128` raw value plus an explicit decimal count, which comfortably
//! covers the paper's largest aggregates (43 billion XRP ≈ 4.3e16 drops).

use std::fmt;
use std::str::FromStr;

/// A short inline symbol string (currency ticker, EOS symbol code).
/// At most 12 bytes, ASCII; copy-type so it can be used in hot paths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymCode {
    len: u8,
    bytes: [u8; 12],
}

impl SymCode {
    pub const MAX_LEN: usize = 12;

    /// Build from an ASCII string; panics on invalid input (symbols are
    /// compile-time constants throughout the workspace).
    pub fn new(s: &str) -> Self {
        Self::try_new(s).unwrap_or_else(|e| panic!("invalid symbol {s:?}: {e}"))
    }

    pub fn try_new(s: &str) -> Result<Self, &'static str> {
        if s.is_empty() {
            return Err("empty symbol");
        }
        if s.len() > Self::MAX_LEN {
            return Err("symbol longer than 12 bytes");
        }
        if !s.bytes().all(|b| b.is_ascii_graphic()) {
            return Err("symbol must be printable ASCII");
        }
        let mut bytes = [0u8; 12];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Ok(SymCode {
            len: s.len() as u8,
            bytes,
        })
    }

    pub fn as_str(&self) -> &str {
        // Invariant: constructed from ASCII.
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("symbol is ASCII")
    }
}

impl fmt::Display for SymCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for SymCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymCode({})", self.as_str())
    }
}

impl FromStr for SymCode {
    type Err = &'static str;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::try_new(s)
    }
}

/// A fixed-point quantity: `raw * 10^-decimals` units of some asset.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Qty {
    raw: i128,
    decimals: u8,
}

#[cfg(test)]
impl Qty {
    const fn new(raw: i128, decimals: u8) -> Self {
        Qty { raw, decimals }
    }

    /// Build from a whole-unit count (e.g. `Qty::whole(5, 4)` == 5.0000).
    fn whole(units: i128, decimals: u8) -> Self {
        Qty {
            raw: units * 10i128.pow(decimals as u32),
            decimals,
        }
    }

    /// Checked addition; `None` if the decimal scales differ or on overflow.
    fn checked_add(self, other: Qty) -> Option<Qty> {
        if self.decimals != other.decimals {
            return None;
        }
        Some(Qty {
            raw: self.raw.checked_add(other.raw)?,
            decimals: self.decimals,
        })
    }

    /// Checked subtraction; `None` if scales differ or on overflow.
    fn checked_sub(self, other: Qty) -> Option<Qty> {
        if self.decimals != other.decimals {
            return None;
        }
        Some(Qty {
            raw: self.raw.checked_sub(other.raw)?,
            decimals: self.decimals,
        })
    }

    /// Value as an f64 in whole units (reporting only — never for ledger math).
    fn to_f64(self) -> f64 {
        self.raw as f64 / 10f64.powi(self.decimals as i32)
    }
}

/// Render `raw * 10^-decimals` with a decimal point and no trailing-zero
/// stripping (matches how chain explorers print amounts).
pub fn fmt_scaled(raw: i128, decimals: u32) -> String {
    let neg = raw < 0;
    let mag = raw.unsigned_abs();
    let base = 10u128.pow(decimals);
    let (ip, fp) = if decimals == 0 {
        (mag, 0)
    } else {
        (mag / base, mag % base)
    };
    let sign = if neg { "-" } else { "" };
    if decimals == 0 {
        format!("{sign}{ip}")
    } else {
        format!("{sign}{ip}.{fp:0width$}", width = decimals as usize)
    }
}

/// Format an integer count with thousands separators: `2464858529` →
/// `"2,464,858,529"` (the paper's table style).
pub fn fmt_thousands(n: u128) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    let lead = digits.len() % 3;
    for (i, c) in digits.chars().enumerate() {
        if i != 0 && (i + 3 - lead).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Format a share as a percentage with one decimal, paper style ("91.6").
pub fn fmt_pct(part: u128, total: u128) -> String {
    if total == 0 {
        return "0.0".to_owned();
    }
    format!("{:.1}", part as f64 * 100.0 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symcode_roundtrip() {
        for s in ["XRP", "USD", "EIDOS", "eosio.token", "BTC"] {
            assert_eq!(SymCode::new(s).as_str(), s);
        }
    }

    #[test]
    fn symcode_rejects_bad_input() {
        assert!(SymCode::try_new("").is_err());
        assert!(SymCode::try_new("THIRTEENCHARS").is_err());
        assert!(SymCode::try_new("A B").is_err());
    }

    #[test]
    fn qty_arithmetic() {
        let a = Qty::whole(5, 4);
        let b = Qty::new(5_000, 4); // 0.5000
        assert_eq!(a.checked_add(b).unwrap().raw, 55_000);
        assert_eq!(a.checked_sub(b).unwrap().to_f64(), 4.5);
        assert!(a.checked_add(Qty::whole(1, 6)).is_none(), "scale mismatch");
    }

    #[test]
    fn qty_overflow_guard() {
        let big = Qty::new(i128::MAX, 0);
        assert!(big.checked_add(Qty::new(1, 0)).is_none());
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_scaled(12_345, 4), "1.2345");
        assert_eq!(fmt_scaled(-5, 2), "-0.05");
        assert_eq!(fmt_scaled(7, 0), "7");
        assert_eq!(fmt_thousands(2_464_858_529), "2,464,858,529");
        assert_eq!(fmt_thousands(999), "999");
        assert_eq!(fmt_thousands(1_000), "1,000");
        assert_eq!(fmt_pct(916, 1000), "91.6");
        assert_eq!(fmt_pct(0, 0), "0.0");
    }
}
