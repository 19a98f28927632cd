//! Endpoint pools: probing, shortlisting, rotation.
//!
//! §3.1: *"Out of 32 officially advertized endpoints, we shortlist 6 of
//! them who have a generous rate limit with stable latency and
//! throughput."* This module reproduces that selection: probe every
//! advertised endpoint, score by success rate then latency, keep the best.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// One advertised endpoint.
#[derive(Debug, Clone)]
pub struct Advertised {
    pub name: String,
    pub addr: SocketAddr,
}

/// Probe outcome for one endpoint.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    pub name: String,
    pub addr: SocketAddr,
    pub attempts: u32,
    pub successes: u32,
    pub mean_latency: Duration,
}

impl ProbeReport {
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }

    /// Composite score: success rate dominates, latency breaks ties.
    fn score(&self) -> (i64, i64) {
        (
            -((self.success_rate() * 1_000.0) as i64),
            self.mean_latency.as_micros() as i64,
        )
    }
}

/// Probe all endpoints with `probe` (a cheap request like `get_info`) and
/// return reports in score order (best first).
pub fn benchmark_endpoints(
    endpoints: &[Advertised],
    attempts: u32,
    probe: impl Fn(SocketAddr) -> Result<Duration, ()>,
) -> Vec<ProbeReport> {
    let mut reports = Vec::with_capacity(endpoints.len());
    for ep in endpoints {
        let mut successes = 0u32;
        let mut total = Duration::ZERO;
        for _ in 0..attempts {
            if let Ok(lat) = probe(ep.addr) {
                successes += 1;
                total += lat;
            }
        }
        let mean = if successes > 0 {
            total / successes
        } else {
            Duration::from_secs(3600)
        };
        reports.push(ProbeReport {
            name: ep.name.clone(),
            addr: ep.addr,
            attempts,
            successes,
            mean_latency: mean,
        });
    }
    reports.sort_by_key(|r| r.score());
    reports
}

/// Shortlist the `keep` best endpoints from probe reports.
pub fn shortlist(reports: &[ProbeReport], keep: usize) -> Vec<Advertised> {
    reports
        .iter()
        .take(keep)
        .map(|r| Advertised {
            name: r.name.clone(),
            addr: r.addr,
        })
        .collect()
}

/// Round-robin rotation over shortlisted endpoints, shared by workers.
#[derive(Debug)]
pub struct RotatingPool {
    endpoints: Vec<Advertised>,
    next: AtomicUsize,
}

impl RotatingPool {
    pub fn new(endpoints: Vec<Advertised>) -> Self {
        assert!(!endpoints.is_empty(), "pool must not be empty");
        RotatingPool {
            endpoints,
            next: AtomicUsize::new(0),
        }
    }

    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Next endpoint in rotation.
    pub fn pick(&self) -> &Advertised {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        &self.endpoints[i % self.endpoints.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn benchmark_ranks_by_success_then_latency() {
        let eps = vec![
            Advertised {
                name: "flaky".into(),
                addr: addr(1),
            },
            Advertised {
                name: "fast".into(),
                addr: addr(2),
            },
            Advertised {
                name: "slow".into(),
                addr: addr(3),
            },
        ];
        let reports = benchmark_endpoints(&eps, 4, |a| match a.port() {
            1 => Err(()),                       // always fails
            2 => Ok(Duration::from_millis(2)),  // fast
            _ => Ok(Duration::from_millis(50)), // slow
        });
        assert_eq!(reports[0].name, "fast");
        assert_eq!(reports[1].name, "slow");
        assert_eq!(reports[2].name, "flaky");
        assert_eq!(reports[2].success_rate(), 0.0);
        let keep = shortlist(&reports, 2);
        assert_eq!(keep.len(), 2);
        assert_eq!(keep[0].name, "fast");
    }

    #[test]
    fn rotation_cycles() {
        let pool = RotatingPool::new(vec![
            Advertised {
                name: "a".into(),
                addr: addr(1),
            },
            Advertised {
                name: "b".into(),
                addr: addr(2),
            },
        ]);
        let seq: Vec<String> = (0..4).map(|_| pool.pick().name.clone()).collect();
        assert_eq!(seq, vec!["a", "b", "a", "b"]);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    #[should_panic(expected = "pool must not be empty")]
    fn empty_pool_rejected() {
        let _ = RotatingPool::new(vec![]);
    }
}
