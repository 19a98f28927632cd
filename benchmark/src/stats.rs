//! The percentile rule: a median, and the highest percentile that still
//! has at least ten samples beyond it.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values on an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in (0, 1]; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The percentile `op_tail_ms` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    P50,
    P90,
    P99,
}

impl Tail {
    /// The rule tied to the sample count: p99 from 1000 samples, p90 from
    /// 100, otherwise the median itself (a "tail" read off fewer than ten
    /// samples beyond it is noise, not a percentile). It is applied to
    /// planned op counts, so a run's percentile is known before it starts.
    pub fn for_count(n: usize) -> Tail {
        match n {
            n if n >= 1000 => Tail::P99,
            n if n >= 100 => Tail::P90,
            _ => Tail::P50,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Tail::P50 => "p50",
            Tail::P90 => "p90",
            Tail::P99 => "p99",
        }
    }

    pub fn of(self, values: &[f64]) -> f64 {
        match self {
            Tail::P50 => median(values),
            Tail::P90 => percentile(values, 0.90),
            Tail::P99 => percentile(values, 0.99),
        }
    }
}

/// Mean of the first and of the last tenth of a series (at least one
/// sample each) — the two ends `follow.publish_growth` divides.
pub fn decile_means(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let k = (values.len() / 10).max(1);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    (mean(&values[..k]), mean(&values[values.len() - k..]))
}

/// Per-epoch publish intervals from `(ms since start, epoch)` sightings of
/// a poller too slow to see every epoch: the time between two sightings is
/// shared evenly among the epochs published between them.
pub fn epoch_intervals(sightings: &[(f64, u64)]) -> Vec<f64> {
    let mut out = Vec::new();
    let Some(&(mut t0, mut e0)) = sightings.first() else {
        return out;
    };
    // Only the first sighting of an epoch says when it was published.
    for &(t1, e1) in &sightings[1..] {
        if e1 > e0 {
            let epochs = (e1 - e0) as usize;
            out.extend(std::iter::repeat_n((t1 - t0) / epochs as f64, epochs));
            (t0, e0) = (t1, e1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_rule_follows_the_sample_count() {
        let ramp = |n: u32| (1..=n).map(f64::from).collect::<Vec<f64>>();
        assert_eq!(Tail::for_count(1000), Tail::P99);
        assert_eq!(Tail::for_count(999), Tail::P90);
        assert_eq!(Tail::for_count(100), Tail::P90);
        // Under a hundred samples the tail is the median, by definition.
        assert_eq!(Tail::for_count(99), Tail::P50);
        assert_eq!(Tail::P99.of(&ramp(1000)), 990.0);
        assert_eq!(Tail::P90.of(&ramp(999)), 900.0);
        assert_eq!(Tail::P50.of(&ramp(5)), 3.0);
        assert_eq!(Tail::P90.name(), "p90");
    }

    #[test]
    fn sightings_share_their_gap_among_the_epochs_between_them() {
        // Epochs 1..=3 seen 6 ms after epoch 0, then nothing new, then one.
        let seen = [(0.0, 0), (6.0, 3), (7.0, 3), (9.0, 4)];
        assert_eq!(epoch_intervals(&seen), [2.0, 2.0, 2.0, 3.0]);
        assert!(epoch_intervals(&[(1.0, 5)]).is_empty());
    }

    #[test]
    fn decile_means_take_at_least_one_sample() {
        assert_eq!(decile_means(&[2.0, 9.0, 9.0, 6.0]), (2.0, 6.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(decile_means(&v), (1.5, 19.5));
        assert_eq!(decile_means(&[]), (0.0, 0.0));
    }
}
