//! Random samplers for the workload engine.
//!
//! The offline crate set includes `rand` but not `rand_distr`, so the handful
//! of distributions the agent models need (Poisson arrivals, Zipf-skewed
//! account popularity, exponential inter-arrival gaps, log-normal amounts)
//! are implemented here with the standard algorithms.

use rand::Rng;

/// Sample a Poisson-distributed count with mean `lambda`.
///
/// Knuth's multiplication method for small λ; for large λ a normal
/// approximation (λ + √λ·Z) is statistically adequate for traffic volumes.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            // Numerical guard: f64 underflow for pathological RNG streams.
            if k > 1_000 {
                return k;
            }
        }
    } else {
        let z = standard_normal(rng);
        let x = lambda + lambda.sqrt() * z;
        if x < 0.0 {
            0
        } else {
            x.round() as u64
        }
    }
}

/// Standard normal via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Exponential variate with rate `rate` (mean `1/rate`).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Log-normal variate with the given parameters of the underlying normal.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// Inverse-CDF lookup shared by [`Zipf`] and [`WeightedIndex`]: the first
/// entry of the non-decreasing `cdf` that is not below `u`, clamped to the
/// last. A branch-free `partition_point` — every Tezos block draws 33 times
/// and every generated transaction draws an account — that agrees with a
/// three-way binary search wherever that search is well defined (it may land
/// on any of several *equal* entries, i.e. on a zero-weight one; this never
/// does).
fn pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|c| *c < u).min(cdf.len() - 1)
}

/// A Zipf sampler over ranks `1..=n` with exponent `s`, using precomputed
/// cumulative weights (exact inverse-CDF; n is at most a few hundred
/// thousand in our scenarios).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Sample a 0-based rank (0 is the most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        pick(&self.cdf, rng.gen())
    }
}

/// Weighted index sampling over arbitrary non-negative weights.
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    cdf: Vec<f64>,
}

impl WeightedIndex {
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        assert!(weights.iter().all(|w| *w >= 0.0), "weights must be non-negative");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        for c in &mut cdf {
            *c /= acc;
        }
        WeightedIndex { cdf }
    }

    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        pick(&self.cdf, rng.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(7);
        for lambda in [0.5, 3.0, 25.0, 200.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda={lambda} mean={mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -3.0), 0);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, 2.0)).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let z = Zipf::new(100, 1.1);
        let mut counts = [0u64; 100];
        for _ in 0..50_000 {
            let r = z.sample(&mut rng);
            assert!(r < 100);
            counts[r] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[99]);
        // Rank 0 should take a large share under s=1.1.
        assert!(counts[0] as f64 / 50_000.0 > 0.15);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = StdRng::seed_from_u64(11);
        let w = WeightedIndex::new(&[0.0, 1.0, 3.0]);
        let mut counts = [0u64; 3];
        for _ in 0..40_000 {
            counts[w.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0, "zero-weight bucket never sampled");
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio={ratio}");
    }

    /// The three-way binary search `pick` replaced, as the oracle.
    fn reference_pick(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("cdf has no NaN")) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    #[test]
    fn pick_equals_the_three_way_binary_search() {
        let mut rng = StdRng::seed_from_u64(13);
        let zipf = Zipf::new(2_000, 0.9);
        let weighted = WeightedIndex::new(&[3.0, 1.0, 0.5, 7.0, 2.0, 2.0, 11.0]);
        for cdf in [&zipf.cdf, &weighted.cdf] {
            // Strictly increasing, so an exact hit is well defined too.
            assert!(cdf.windows(2).all(|w| w[0] < w[1]));
            let exact = cdf.iter().flat_map(|c| [*c, c.next_down(), c.next_up()]);
            let edges = [0.0, f64::MIN_POSITIVE, 0.5, 1.0 - f64::EPSILON];
            let draws: Vec<f64> = (0..20_000).map(|_| rng.gen()).collect();
            for u in exact.chain(edges).chain(draws) {
                assert_eq!(pick(cdf, u), reference_pick(cdf, u), "u = {u:e}");
            }
        }
        // A zero-weight entry repeats its predecessor's value; drawing that
        // value exactly lands on the entry that owns it.
        let gap = WeightedIndex::new(&[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(pick(&gap.cdf, 0.5), 0);
        assert_eq!(pick(&gap.cdf, 0.5f64.next_up()), 3);
    }

    #[test]
    fn log_normal_positive() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(log_normal(&mut rng, 0.0, 1.5) > 0.0);
        }
    }
}
