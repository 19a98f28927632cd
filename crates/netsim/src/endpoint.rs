//! Endpoint behaviour simulation: latency, token-bucket rate limiting and
//! fault injection.
//!
//! §3.1: of 32 advertised EOS endpoints the authors shortlisted 6 "with a
//! generous rate limit, stable latency and throughput". Reproducing that
//! selection requires endpoints that genuinely differ in those dimensions —
//! this module provides the knobs.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

use txstat_telemetry::{Counter, Gauge, Histogram};

/// Behaviour profile of one simulated endpoint.
#[derive(Debug, Clone)]
pub struct EndpointProfile {
    /// Human label ("bp-one.example").
    pub name: String,
    /// Mean added latency per request.
    pub latency_ms: f64,
    /// Uniform jitter added on top of the mean, ± this amount.
    pub jitter_ms: f64,
    /// Sustained requests per second before 429s.
    pub rate_limit_per_sec: f64,
    /// Token-bucket burst capacity.
    pub burst: f64,
    /// Probability a request is dropped mid-flight (connection reset).
    pub fault_rate: f64,
    /// RNG seed for the endpoint's jitter/faults.
    pub seed: u64,
}

impl EndpointProfile {
    /// A fast, generous endpoint (the kind the paper shortlists).
    pub fn generous(name: &str, seed: u64) -> Self {
        EndpointProfile {
            name: name.into(),
            latency_ms: 2.0,
            jitter_ms: 1.0,
            rate_limit_per_sec: 5_000.0,
            burst: 5_000.0,
            fault_rate: 0.0,
            seed,
        }
    }

    /// A stingy endpoint: slow, tight limit, flaky.
    pub fn stingy(name: &str, seed: u64) -> Self {
        EndpointProfile {
            name: name.into(),
            latency_ms: 40.0,
            jitter_ms: 30.0,
            rate_limit_per_sec: 20.0,
            burst: 10.0,
            fault_rate: 0.05,
            seed,
        }
    }
}

/// Classic token bucket over a monotonic clock.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    capacity: f64,
    tokens: f64,
    rate_per_sec: f64,
    last: std::time::Instant,
}

impl TokenBucket {
    pub fn new(rate_per_sec: f64, capacity: f64) -> Self {
        TokenBucket {
            capacity,
            tokens: capacity,
            rate_per_sec,
            last: std::time::Instant::now(),
        }
    }

    /// Try to take one token.
    pub(crate) fn try_take(&mut self) -> bool {
        self.try_take_at(std::time::Instant::now())
    }

    /// Try to take one token at an explicit instant. Refill is computed from
    /// the previous call's instant, so tests can drive a virtual clock
    /// instead of sleeping wall-clock time.
    pub(crate) fn try_take_at(&mut self, now: std::time::Instant) -> bool {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        // Never move the watermark backward: a stale instant must not let a
        // later call re-credit an interval that was already refilled.
        self.last = self.last.max(now);
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Outcome of gating one request through an endpoint's behaviour model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Serve it (after the returned artificial delay).
    Proceed,
    /// Reply 429 / slow-down.
    RateLimited,
    /// Drop the connection.
    Fault,
}

/// Shared per-endpoint counters (observable by tests and the crawler
/// report), built from the `txstat_telemetry` instruments so route classes
/// can be registered into a metrics registry for `/metrics` exposition.
#[derive(Debug, Default)]
pub struct EndpointStats {
    pub requests: Counter,
    pub served: Counter,
    pub rate_limited: Counter,
    pub faults: Counter,
    pub bytes_in: Counter,
    pub bytes_out: Counter,
    /// Requests currently being handled (between read and response write).
    /// Its high-water mark (`Gauge::peak`) records peak concurrency: a
    /// backpressured streaming consumer keeps this bounded by the
    /// crawler's worker count — when the ingest channels fill, the crawl
    /// workers park *before* issuing the next request, so the stall is
    /// visible server-side as a plateau here rather than a growing
    /// request backlog.
    pub in_flight: Gauge,
    /// Requests refused 429 by *admission control* (serving-layer load
    /// shedding), as opposed to `rate_limited` which counts the simulated
    /// endpoint behaviour model's 429s.
    pub shed: Counter,
    /// Service latency of served requests (admission → response written).
    pub latency: Histogram,
}

/// RAII guard bumping an endpoint's in-flight gauge for one request.
pub struct InFlightGuard<'a>(&'a EndpointStats);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight.dec();
    }
}

impl EndpointStats {
    /// Mark one request in flight until the returned guard drops.
    pub fn enter(&self) -> InFlightGuard<'_> {
        self.in_flight.inc();
        InFlightGuard(self)
    }

    /// Peak concurrent in-flight requests.
    pub fn max_in_flight(&self) -> u64 {
        self.in_flight.peak()
    }
}

/// The live behaviour state of one endpoint.
pub(crate) struct EndpointSim {
    pub profile: EndpointProfile,
    bucket: Mutex<TokenBucket>,
    rng: Mutex<StdRng>,
}

impl EndpointSim {
    pub fn new(profile: EndpointProfile) -> Self {
        let bucket = TokenBucket::new(profile.rate_limit_per_sec, profile.burst);
        let rng = StdRng::seed_from_u64(profile.seed);
        EndpointSim { profile, bucket: Mutex::new(bucket), rng: Mutex::new(rng) }
    }

    /// Gate one request: returns the decision plus the artificial latency
    /// to apply before answering.
    pub fn gate(&self) -> (Gate, Duration) {
        let mut rng = self.rng.lock();
        let jitter: f64 = rng.gen_range(-1.0..1.0f64) * self.profile.jitter_ms;
        let delay = Duration::from_micros(
            ((self.profile.latency_ms + jitter).max(0.0) * 1_000.0) as u64,
        );
        if self.profile.fault_rate > 0.0 && rng.gen::<f64>() < self.profile.fault_rate {
            return (Gate::Fault, delay);
        }
        drop(rng);
        if !self.bucket.lock().try_take() {
            return (Gate::RateLimited, delay);
        }
        (Gate::Proceed, delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_enforces_burst_then_rate() {
        // Drive a virtual clock through `try_take_at` — no wall-clock sleeps.
        let mut b = TokenBucket::new(1000.0, 5.0);
        let start = std::time::Instant::now();
        let granted = (0..10).filter(|_| b.try_take_at(start)).count();
        // Only the burst is instantly available.
        assert_eq!(granted, 5, "granted={granted}");
        assert!(!b.try_take_at(start), "burst exhausted");
        // 20 virtual milliseconds refill 20 tokens at 1000/s (capped at the
        // burst capacity of 5).
        let later = start + Duration::from_millis(20);
        let refilled = (0..10).filter(|_| b.try_take_at(later)).count();
        assert_eq!(refilled, 5, "refill is capped at burst capacity");
        // A stale instant (before `last`) must not panic or mint tokens —
        // and must not rewind the watermark so the same interval refills
        // twice on the next in-order call.
        assert!(!b.try_take_at(start), "clock going backwards grants nothing");
        assert!(!b.try_take_at(later), "stale call must not re-credit [start, later)");
    }

    #[test]
    fn generous_endpoint_proceeds() {
        let e = EndpointSim::new(EndpointProfile::generous("fast", 1));
        for _ in 0..100 {
            let (g, d) = e.gate();
            assert_eq!(g, Gate::Proceed);
            assert!(d < Duration::from_millis(5));
        }
    }

    #[test]
    fn stingy_endpoint_throttles_and_faults() {
        let e = EndpointSim::new(EndpointProfile::stingy("slow", 2));
        let mut limited = 0;
        let mut faults = 0;
        for _ in 0..200 {
            match e.gate().0 {
                Gate::RateLimited => limited += 1,
                Gate::Fault => faults += 1,
                Gate::Proceed => {}
            }
        }
        assert!(limited > 100, "limited={limited}");
        assert!(faults > 0, "faults={faults}");
    }

    // (The latency-histogram bucket/quantile tests moved to
    // `txstat_telemetry::metrics` together with the histogram itself.)

    #[test]
    fn endpoint_stats_track_in_flight_peak() {
        let s = EndpointStats::default();
        {
            let _a = s.enter();
            let _b = s.enter();
            assert_eq!(s.in_flight.get(), 2);
        }
        assert_eq!(s.in_flight.get(), 0);
        assert_eq!(s.max_in_flight(), 2);
    }

    #[test]
    fn deterministic_fault_sequence() {
        let a = EndpointSim::new(EndpointProfile::stingy("x", 7));
        let b = EndpointSim::new(EndpointProfile::stingy("x", 7));
        let ga: Vec<Gate> = (0..50).map(|_| a.gate().0).collect();
        let gb: Vec<Gate> = (0..50).map(|_| b.gate().0).collect();
        // Fault decisions are seed-deterministic; rate limiting depends on
        // wall-clock, so compare only fault positions.
        let fa: Vec<bool> = ga.iter().map(|g| *g == Gate::Fault).collect();
        let fb: Vec<bool> = gb.iter().map(|g| *g == Gate::Fault).collect();
        assert_eq!(fa, fb);
    }
}
