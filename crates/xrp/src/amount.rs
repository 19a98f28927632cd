//! XRP ledger amounts: native drops vs issued IOUs.
//!
//! §2.4: any account can issue an IOU with an arbitrary ticker; whether a
//! `BTC` IOU is worth anything depends entirely on its issuer. An amount is
//! therefore either native XRP (integer drops) or a triple of
//! (currency, issuer, value) — the paper's entire value analysis (Figures 7,
//! 11, 12) hinges on this distinction.

use crate::address::AccountId;
use std::fmt;
use txstat_types::amount::SymCode;

/// Drops per XRP (1 XRP = 10⁶ drops).
pub const DROPS_PER_XRP: i64 = 1_000_000;

/// IOU values are fixed-point with 6 decimals in this model.
pub(crate) const IOU_DECIMALS: u32 = 6;
pub const IOU_UNIT: i128 = 1_000_000;

/// Identity of an issued currency: ticker + issuer. Two `BTC` IOUs from
/// different issuers are entirely different assets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IssuedCurrency {
    pub currency: SymCode,
    pub issuer: AccountId,
}

impl IssuedCurrency {
    pub fn new(currency: &str, issuer: AccountId) -> Self {
        IssuedCurrency {
            currency: SymCode::new(currency),
            issuer,
        }
    }
}

impl fmt::Display for IssuedCurrency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.currency, self.issuer)
    }
}

/// An asset: XRP or a specific issued currency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Asset {
    Xrp,
    Iou(IssuedCurrency),
}

impl Asset {
    pub fn iou(currency: &str, issuer: AccountId) -> Self {
        Asset::Iou(IssuedCurrency::new(currency, issuer))
    }

    #[cfg(test)]
    fn is_xrp(&self) -> bool {
        matches!(self, Asset::Xrp)
    }

    #[cfg(test)]
    fn currency_code(&self) -> SymCode {
        match self {
            Asset::Xrp => SymCode::new("XRP"),
            Asset::Iou(ic) => ic.currency,
        }
    }
}

impl fmt::Display for Asset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Asset::Xrp => write!(f, "XRP"),
            Asset::Iou(ic) => write!(f, "{ic}"),
        }
    }
}

/// An amount of some asset. Values are i128 raw units: drops for XRP,
/// `IOU_UNIT`-scaled for IOUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Amount {
    pub asset: Asset,
    pub value: i128,
}

impl Amount {
    pub fn xrp_drops(drops: i64) -> Self {
        Amount {
            asset: Asset::Xrp,
            value: drops as i128,
        }
    }

    pub fn xrp(whole: i64) -> Self {
        Self::xrp_drops(whole * DROPS_PER_XRP)
    }

    pub fn iou(currency: &str, issuer: AccountId, raw: i128) -> Self {
        Amount {
            asset: Asset::iou(currency, issuer),
            value: raw,
        }
    }

    pub fn iou_whole(currency: &str, issuer: AccountId, whole: i64) -> Self {
        Self::iou(currency, issuer, whole as i128 * IOU_UNIT)
    }

    pub fn is_zero(&self) -> bool {
        self.value == 0
    }

    /// Whole-unit f64 (reporting only).
    #[cfg(test)]
    fn to_f64(self) -> f64 {
        match self.asset {
            Asset::Xrp => self.value as f64 / DROPS_PER_XRP as f64,
            Asset::Iou(_) => self.value as f64 / IOU_UNIT as f64,
        }
    }

    /// Same-asset checked addition.
    pub fn checked_add(&self, other: &Amount) -> Option<Amount> {
        if self.asset != other.asset {
            return None;
        }
        Some(Amount {
            asset: self.asset,
            value: self.value.checked_add(other.value)?,
        })
    }

    /// Same-asset checked subtraction.
    pub fn checked_sub(&self, other: &Amount) -> Option<Amount> {
        if self.asset != other.asset {
            return None;
        }
        Some(Amount {
            asset: self.asset,
            value: self.value.checked_sub(other.value)?,
        })
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.asset {
            Asset::Xrp => write!(f, "{} drops", self.value),
            Asset::Iou(ic) => {
                write!(
                    f,
                    "{} {}",
                    txstat_types::fmt_scaled(self.value, IOU_DECIMALS),
                    ic
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_scales() {
        assert_eq!(Amount::xrp(5).value, 5_000_000);
        assert_eq!(Amount::iou_whole("USD", AccountId(9), 3).value, 3_000_000);
        assert_eq!(Amount::xrp(2).to_f64(), 2.0);
    }

    #[test]
    fn issuer_distinguishes_assets() {
        let a = Asset::iou("BTC", AccountId(1));
        let b = Asset::iou("BTC", AccountId(2));
        assert_ne!(a, b, "same ticker, different issuer, different asset");
        assert_eq!(a.currency_code().as_str(), "BTC");
        assert!(!a.is_xrp());
        assert!(Asset::Xrp.is_xrp());
    }

    #[test]
    fn arithmetic_requires_same_asset() {
        let x = Amount::xrp(1);
        let u = Amount::iou_whole("USD", AccountId(1), 1);
        assert!(x.checked_add(&u).is_none());
        assert_eq!(x.checked_add(&Amount::xrp(2)).unwrap(), Amount::xrp(3));
        assert_eq!(
            Amount::xrp(3).checked_sub(&Amount::xrp(1)).unwrap(),
            Amount::xrp(2)
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Amount::xrp_drops(42).to_string(), "42 drops");
        let s = Amount::iou_whole("USD", AccountId(7), 1).to_string();
        assert!(s.starts_with("1.000000 USD."), "{s}");
    }
}
