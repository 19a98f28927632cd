//! Chain time: seconds-precision timestamps with civil-calendar conversion.
//!
//! The paper observes three months of traffic (Oct 1 – Dec 31, 2019) and
//! aggregates throughput in six-hour buckets (Figure 3). We model chain time
//! as plain Unix seconds and implement the civil-date math directly
//! (Howard Hinnant's algorithms) so the workspace needs no date dependency.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Width of the paper's throughput buckets (Figure 3): six hours.
pub const SIX_HOURS: i64 = 6 * 3600;

/// Seconds in one day.
pub(crate) const DAY: i64 = 86_400;

/// A point in chain time: seconds since the Unix epoch (UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChainTime(pub i64);

/// Number of days from 1970-01-01 to `y-m-d` (proleptic Gregorian).
///
/// Howard Hinnant's `days_from_civil`; exact for all representable dates.
pub const fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // [0, 11], Mar=0
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`]: days since epoch to `(year, month, day)`.
pub const fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl ChainTime {
    /// Construct from a UTC civil date and time of day.
    pub const fn from_ymd_hms(y: i64, mo: u32, d: u32, h: u32, mi: u32, s: u32) -> Self {
        ChainTime(days_from_civil(y, mo, d) * DAY + h as i64 * 3600 + mi as i64 * 60 + s as i64)
    }

    /// Midnight UTC on the given date.
    pub const fn from_ymd(y: i64, mo: u32, d: u32) -> Self {
        Self::from_ymd_hms(y, mo, d, 0, 0, 0)
    }

    /// Unix seconds.
    pub const fn secs(self) -> i64 {
        self.0
    }

    /// Civil date `(year, month, day)` in UTC.
    pub(crate) const fn ymd(self) -> (i64, u32, u32) {
        civil_from_days(self.0.div_euclid(DAY))
    }

    /// Time of day `(hour, minute, second)` in UTC.
    pub(crate) const fn hms(self) -> (u32, u32, u32) {
        let sod = self.0.rem_euclid(DAY);
        (
            (sod / 3600) as u32,
            ((sod % 3600) / 60) as u32,
            (sod % 60) as u32,
        )
    }

    /// `YYYY-MM-DD` rendering, as used in the paper's figure axes.
    pub fn date_string(self) -> String {
        let (y, m, d) = self.ymd();
        format!("{y:04}-{m:02}-{d:02}")
    }

    /// Full `YYYY-MM-DD HH:MM:SS` UTC rendering.
    pub(crate) fn datetime_string(self) -> String {
        let (y, m, d) = self.ymd();
        let (h, mi, s) = self.hms();
        format!("{y:04}-{m:02}-{d:02} {h:02}:{mi:02}:{s:02}")
    }

    /// ISO-8601 rendering as node RPCs emit it (`2019-10-01T00:00:00`).
    pub fn iso_string(self) -> String {
        let (y, m, d) = self.ymd();
        let (h, mi, s) = self.hms();
        format!("{y:04}-{m:02}-{d:02}T{h:02}:{mi:02}:{s:02}")
    }

    /// Parse an ISO-8601 `YYYY-MM-DDTHH:MM:SS[.sss][Z]` timestamp (UTC).
    pub fn parse_iso(s: &str) -> Option<ChainTime> {
        let s = s.trim_end_matches('Z');
        let (date, time) = s.split_once('T')?;
        let mut dp = date.split('-');
        let y: i64 = dp.next()?.parse().ok()?;
        let m: u32 = dp.next()?.parse().ok()?;
        let d: u32 = dp.next()?.parse().ok()?;
        if dp.next().is_some() || m == 0 || m > 12 || d == 0 || d > 31 {
            return None;
        }
        // Drop fractional seconds if present.
        let time = time.split('.').next()?;
        let mut tp = time.split(':');
        let h: u32 = tp.next()?.parse().ok()?;
        let mi: u32 = tp.next()?.parse().ok()?;
        let sec: u32 = tp.next().unwrap_or("0").parse().ok()?;
        if tp.next().is_some() || h > 23 || mi > 59 || sec > 60 {
            return None;
        }
        Some(ChainTime::from_ymd_hms(y, m, d, h, mi, sec))
    }

    /// Index of the bucket of width `width` seconds containing this instant,
    /// counted from `origin`. Instants before `origin` get negative indices.
    pub fn bucket_index(self, origin: ChainTime, width: i64) -> i64 {
        (self.0 - origin.0).div_euclid(width)
    }
}

impl fmt::Display for ChainTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.datetime_string())
    }
}

impl Add<i64> for ChainTime {
    type Output = ChainTime;
    fn add(self, rhs: i64) -> ChainTime {
        ChainTime(self.0 + rhs)
    }
}

impl AddAssign<i64> for ChainTime {
    fn add_assign(&mut self, rhs: i64) {
        self.0 += rhs;
    }
}

impl Sub<ChainTime> for ChainTime {
    type Output = i64;
    fn sub(self, rhs: ChainTime) -> i64 {
        self.0 - rhs.0
    }
}

/// A half-open observation window `[start, end)`.
///
/// The paper's window is Oct 1 – Dec 31 2019 (inclusive), i.e.
/// `[2019-10-01T00:00:00Z, 2020-01-01T00:00:00Z)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Period {
    pub start: ChainTime,
    pub end: ChainTime,
}

impl Period {
    pub const fn new(start: ChainTime, end: ChainTime) -> Self {
        Period { start, end }
    }

    /// The paper's observation window.
    pub const fn paper() -> Self {
        Period::new(
            ChainTime::from_ymd(2019, 10, 1),
            ChainTime::from_ymd(2020, 1, 1),
        )
    }

    pub const fn contains(&self, t: ChainTime) -> bool {
        t.0 >= self.start.0 && t.0 < self.end.0
    }

    /// Window length in seconds.
    pub const fn seconds(&self) -> i64 {
        self.end.0 - self.start.0
    }

    /// Window length in (possibly fractional) days.
    pub fn days(&self) -> f64 {
        self.seconds() as f64 / DAY as f64
    }

    /// Number of buckets of `width` seconds covering the period (last bucket
    /// may be partial).
    pub fn bucket_count(&self, width: i64) -> usize {
        assert!(width > 0, "bucket width must be positive");
        ((self.seconds() + width - 1) / width).max(0) as usize
    }

    /// Start instant of bucket `i`.
    pub fn bucket_start(&self, i: usize, width: i64) -> ChainTime {
        self.start + (i as i64) * width
    }

    /// Iterate over bucket start times.
    pub fn buckets(&self, width: i64) -> impl Iterator<Item = ChainTime> + '_ {
        let n = self.bucket_count(width);
        (0..n).map(move |i| self.bucket_start(i, width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // Paper observation window endpoints.
        let start = ChainTime::from_ymd(2019, 10, 1);
        assert_eq!(start.secs(), 1_569_888_000);
        let end = ChainTime::from_ymd(2020, 1, 1);
        assert_eq!(end.secs(), 1_577_836_800);
        // Leap-year day.
        assert_eq!(ChainTime::from_ymd(2020, 2, 29).date_string(), "2020-02-29");
    }

    #[test]
    fn roundtrip_days_over_a_century() {
        for z in (-20_000..40_000).step_by(7) {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), z);
        }
    }

    #[test]
    fn hms_extraction() {
        let t = ChainTime::from_ymd_hms(2019, 11, 1, 13, 45, 9);
        assert_eq!(t.hms(), (13, 45, 9));
        assert_eq!(t.datetime_string(), "2019-11-01 13:45:09");
    }

    #[test]
    fn negative_times_bucket_correctly() {
        let origin = ChainTime::from_ymd(2019, 10, 1);
        let before = origin + (-1);
        assert_eq!(before.bucket_index(origin, SIX_HOURS), -1);
        assert_eq!(origin.bucket_index(origin, SIX_HOURS), 0);
        let in_first = origin + (SIX_HOURS - 1);
        assert_eq!(in_first.bucket_index(origin, SIX_HOURS), 0);
        assert_eq!((origin + SIX_HOURS).bucket_index(origin, SIX_HOURS), 1);
    }

    #[test]
    fn paper_period_statistics() {
        let p = Period::paper();
        assert_eq!(p.days(), 92.0);
        // 92 days * 4 six-hour buckets per day.
        assert_eq!(p.bucket_count(SIX_HOURS), 368);
        assert!(p.contains(ChainTime::from_ymd(2019, 12, 31)));
        assert!(!p.contains(ChainTime::from_ymd(2020, 1, 1)));
    }

    #[test]
    fn bucket_starts_align() {
        let p = Period::paper();
        let starts: Vec<_> = p.buckets(SIX_HOURS).take(5).collect();
        assert_eq!(starts[0], p.start);
        assert_eq!(starts[1] - starts[0], SIX_HOURS);
        assert_eq!(starts[4].datetime_string(), "2019-10-02 00:00:00");
    }
}
