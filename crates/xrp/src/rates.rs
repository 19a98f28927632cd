//! Exchange-rate oracle — the in-tree substitute for the Ripple Data API
//! (`/v2/exchange_rates/BTC+{issuer}/XRP`) the paper queries for
//! Figure 11 and the "payment with value" classification of Figure 7.
//!
//! Identical definition to the Data API: the rate of an issued currency is
//! the volume-weighted average price of its on-ledger exchanges against XRP
//! over a trailing window (the paper uses `period=30day`).

use crate::amount::DROPS_PER_XRP;
use crate::amount::{IssuedCurrency, IOU_UNIT};
use std::collections::HashMap;
use txstat_types::time::ChainTime;

/// One executed IOU↔XRP exchange, recorded at fill time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TradeRecord {
    pub time: ChainTime,
    pub currency: IssuedCurrency,
    /// IOU units exchanged (raw, IOU_UNIT-scaled).
    pub iou_value: i128,
    /// XRP drops exchanged against them.
    pub drops: i64,
    /// The resting offer's owner (the "seller account" of Figure 11b).
    pub maker: crate::address::AccountId,
}

impl TradeRecord {
    /// Price of one whole IOU in whole XRP.
    pub fn rate(&self) -> f64 {
        if self.iou_value == 0 {
            return 0.0;
        }
        (self.drops as f64 / DROPS_PER_XRP as f64) / (self.iou_value as f64 / IOU_UNIT as f64)
    }
}

/// Volume-weighted trailing-window rates per issued currency.
#[derive(Debug, Clone, Default)]
pub struct RateOracle {
    rates: HashMap<IssuedCurrency, f64>,
}

impl RateOracle {
    /// Build from externally-fetched rates (the crawler path: one
    /// `exchange_rates` query per observed token, like the paper's use of
    /// the Data API).
    pub fn from_rates(rates: impl IntoIterator<Item = (IssuedCurrency, f64)>) -> Self {
        RateOracle {
            rates: rates.into_iter().collect(),
        }
    }

    /// Build from trade history: all trades in `[as_of - window_days, as_of]`.
    pub fn from_trades(trades: &[TradeRecord], as_of: ChainTime, window_days: i64) -> Self {
        let cutoff = as_of + (-window_days * 86_400);
        let mut drops_sum: HashMap<IssuedCurrency, i128> = HashMap::new();
        let mut iou_sum: HashMap<IssuedCurrency, i128> = HashMap::new();
        for t in trades {
            if t.time.secs() < cutoff.secs() || t.time.secs() > as_of.secs() {
                continue;
            }
            *drops_sum.entry(t.currency).or_insert(0) += t.drops as i128;
            *iou_sum.entry(t.currency).or_insert(0) += t.iou_value;
        }
        let mut rates = HashMap::new();
        for (c, iou) in iou_sum {
            if iou > 0 {
                let drops = drops_sum.get(&c).copied().unwrap_or(0);
                let rate = (drops as f64 / DROPS_PER_XRP as f64) / (iou as f64 / IOU_UNIT as f64);
                rates.insert(c, rate);
            }
        }
        RateOracle { rates }
    }

    /// Record one externally-resolved rate (streaming ingestion builds its
    /// per-shard oracles incrementally as new tokens appear on the wire).
    pub fn insert(&mut self, currency: IssuedCurrency, rate: f64) {
        self.rates.insert(currency, rate);
    }

    /// XRP per whole unit of the currency; `None` if never exchanged in
    /// window.
    pub fn rate(&self, currency: IssuedCurrency) -> Option<f64> {
        self.rates.get(&currency).copied()
    }

    /// The paper's value criterion: a token "has value" iff it has a
    /// positive on-ledger XRP rate.
    pub fn has_value(&self, currency: IssuedCurrency) -> bool {
        self.rate(currency).map(|r| r > 0.0).unwrap_or(false)
    }

    /// XRP-denominated value of `iou_value` raw units of `currency`
    /// (`None` if unrated).
    pub fn value_in_drops(&self, currency: IssuedCurrency, iou_value: i128) -> Option<i64> {
        let r = self.rate(currency)?;
        Some((iou_value as f64 / IOU_UNIT as f64 * r * DROPS_PER_XRP as f64) as i64)
    }

    pub fn currencies(&self) -> impl Iterator<Item = (&IssuedCurrency, &f64)> {
        self.rates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AccountId;

    fn c(issuer: u64) -> IssuedCurrency {
        IssuedCurrency::new("BTC", AccountId(issuer))
    }

    fn t(day: u32, issuer: u64, iou_whole: i64, xrp_whole: i64) -> TradeRecord {
        TradeRecord {
            time: ChainTime::from_ymd(2019, 12, day),
            currency: c(issuer),
            iou_value: iou_whole as i128 * IOU_UNIT,
            drops: xrp_whole * DROPS_PER_XRP,
            maker: AccountId(50),
        }
    }

    #[test]
    fn volume_weighted_rate() {
        // 1 BTC @ 30000 and 3 BTC @ 34000 → VWAP = (30000+102000)/4 = 33000.
        let trades = vec![t(1, 9, 1, 30_000), t(2, 9, 3, 102_000)];
        let oracle = RateOracle::from_trades(&trades, ChainTime::from_ymd(2019, 12, 31), 30);
        let r = oracle.rate(c(9)).unwrap();
        assert!((r - 33_000.0).abs() < 1e-6, "r={r}");
        assert!(oracle.has_value(c(9)));
    }

    #[test]
    fn window_excludes_old_trades() {
        let trades = vec![
            TradeRecord {
                time: ChainTime::from_ymd(2019, 6, 1),
                currency: c(9),
                iou_value: IOU_UNIT,
                drops: 99 * DROPS_PER_XRP,
                maker: AccountId(50),
            },
            t(20, 9, 1, 5),
        ];
        let oracle = RateOracle::from_trades(&trades, ChainTime::from_ymd(2019, 12, 31), 30);
        assert!(
            (oracle.rate(c(9)).unwrap() - 5.0).abs() < 1e-9,
            "June trade ignored"
        );
    }

    #[test]
    fn unexchanged_currency_has_no_value() {
        let oracle = RateOracle::from_trades(&[], ChainTime::from_ymd(2019, 12, 31), 30);
        assert_eq!(oracle.rate(c(1)), None);
        assert!(!oracle.has_value(c(1)));
        assert_eq!(oracle.value_in_drops(c(1), IOU_UNIT), None);
    }

    #[test]
    fn issuer_specific_rates() {
        // Same ticker BTC, two issuers, drastically different rates (Fig 11a).
        let trades = vec![t(1, 1, 1, 36_050), t(1, 2, 1000, 0)];
        let oracle = RateOracle::from_trades(&trades, ChainTime::from_ymd(2019, 12, 31), 30);
        assert!(oracle.rate(c(1)).unwrap() > 36_000.0);
        assert_eq!(oracle.rate(c(2)).unwrap(), 0.0);
        assert!(oracle.has_value(c(1)));
        assert!(!oracle.has_value(c(2)), "zero-rate token carries no value");
    }

    #[test]
    fn value_conversion() {
        let trades = vec![t(1, 9, 2, 10)]; // 5 XRP per BTC
        let oracle = RateOracle::from_trades(&trades, ChainTime::from_ymd(2019, 12, 31), 30);
        let drops = oracle.value_in_drops(c(9), 3 * IOU_UNIT).unwrap();
        assert_eq!(drops, 15 * DROPS_PER_XRP);
    }
}
