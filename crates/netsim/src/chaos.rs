//! Chaos proxy: a fault-injecting TCP relay between real processes.
//!
//! [`endpoint`](crate::endpoint) models misbehaving RPC endpoints *inside*
//! a simulated server; this module promotes the same fault vocabulary
//! (latency + jitter, connection drops, plus stream truncation and
//! bit-flips) to a standalone socket proxy, so the typed damage rejection
//! in `txstat_wire` — envelope hashes, length caps, truncation errors —
//! gets exercised over a live transport between a real reducer and real
//! shard workers.
//!
//! ```text
//!   reducer ──TCP──▶ chaos proxy ──TCP──▶ worker
//!                      │ per connection, per direction: one seeded roll
//!                      │   fault_rate     → reset the connection mid-stream
//!                      │   truncate_rate  → forward a prefix, then half-close
//!                      │   flip_rate      → XOR one bit, forward the rest
//!                      │   otherwise      → relay faithfully (after latency)
//! ```
//!
//! Faults are decided **per connection**, not per chunk: a 5% fault rate
//! means 5% of exchanges die, independent of message size, so a reducer
//! with a bounded retry budget converges at the expected rate. All
//! decisions derive from the profile seed and the connection index —
//! a chaos run is exactly reproducible.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txstat_telemetry::{registry, Counter};
use txstat_types::rng::{rng_for_n, Rng};

/// Behaviour profile of the proxy. Rates are probabilities per connection
/// direction, each in `[0, 1]` and summing to at most 1: one uniform draw
/// picks reset, then truncate, then flip ([`spawn_chaos_proxy`] refuses any
/// other profile).
#[derive(Debug, Clone)]
pub struct ChaosProfile {
    /// Human label for logs and stats.
    pub name: String,
    /// Mean delay added before each direction starts relaying.
    pub latency_ms: f64,
    /// Uniform jitter on top of the mean, ± this amount.
    pub jitter_ms: f64,
    /// Probability the connection is reset mid-stream.
    pub fault_rate: f64,
    /// Probability the stream is truncated (a prefix is forwarded, then
    /// the write side is closed).
    pub truncate_rate: f64,
    /// Probability exactly one bit of the stream is flipped.
    pub flip_rate: f64,
    /// Master seed; per-connection decisions derive from it.
    pub seed: u64,
}

impl ChaosProfile {
    /// A faithful relay: no faults, no added latency.
    pub fn clean(name: &str, seed: u64) -> Self {
        ChaosProfile {
            name: name.into(),
            latency_ms: 0.0,
            jitter_ms: 0.0,
            fault_rate: 0.0,
            truncate_rate: 0.0,
            flip_rate: 0.0,
            seed,
        }
    }
}

/// What one pump direction will do to its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    Clean,
    /// Reset the whole proxied connection once `after` bytes have passed.
    Reset {
        after: usize,
    },
    /// Forward exactly `after` bytes, then close the write side.
    Truncate {
        after: usize,
    },
    /// XOR one bit of the byte at stream offset `at`.
    Flip {
        at: usize,
    },
}

/// Connection-direction fault decisions, drawn from a per-connection rng.
fn draw_plan(p: &ChaosProfile, rng: &mut Rng) -> Plan {
    let r = rng.unit();
    // Fault offsets land inside the first 512 bytes: requests are a few
    // hundred bytes and responses far larger, so both directions get hit
    // mid-message rather than past the end of short streams.
    let offset = rng.index(512);
    if r < p.fault_rate {
        Plan::Reset { after: offset }
    } else if r < p.fault_rate + p.truncate_rate {
        Plan::Truncate { after: offset }
    } else if r < p.fault_rate + p.truncate_rate + p.flip_rate {
        Plan::Flip { at: offset }
    } else {
        Plan::Clean
    }
}

/// Live counters of one proxy, registered in the process-global telemetry
/// registry (families `txstat_chaos_*`).
pub struct ChaosStats {
    pub connections: Arc<Counter>,
    pub resets: Arc<Counter>,
    pub truncations: Arc<Counter>,
    pub flips: Arc<Counter>,
}

impl ChaosStats {
    fn new() -> Self {
        let reg = registry();
        ChaosStats {
            connections: reg.counter(
                "txstat_chaos_connections_total",
                "Connections relayed by chaos proxies",
            ),
            resets: reg.counter(
                "txstat_chaos_resets_total",
                "Connections reset by chaos proxies",
            ),
            truncations: reg.counter(
                "txstat_chaos_truncations_total",
                "Streams truncated by chaos proxies",
            ),
            flips: reg.counter("txstat_chaos_flips_total", "Bits flipped by chaos proxies"),
        }
    }
}

/// A running chaos proxy; dropping it leaves the proxy running (detached),
/// call [`ChaosHandle::stop`] for an orderly shutdown.
pub struct ChaosHandle {
    /// The address clients connect to.
    pub addr: SocketAddr,
    pub stats: Arc<ChaosStats>,
    stop: Arc<AtomicBool>,
    accept_thread: std::thread::JoinHandle<()>,
}

impl ChaosHandle {
    /// Stop accepting new connections and join the accept loop, which one
    /// connection of our own wakes from its blocking accept. In-flight
    /// relays finish on their own.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_thread.join();
    }
}

/// Start a chaos proxy listening on `listen` (e.g. `127.0.0.1:0`) and
/// relaying every connection to `upstream` through `profile`'s fault model.
///
/// A profile that cannot mean what it says is refused with
/// [`std::io::ErrorKind::InvalidInput`] before anything binds: a rate that
/// is NaN or outside `[0, 1]` (a NaN or negative rate never faults, so the
/// run would silently be a clean relay), rates that sum above 1 (the later
/// fault kinds would silently shrink), or a latency or jitter that is
/// negative or not finite.
pub fn spawn_chaos_proxy(
    listen: &str,
    upstream: String,
    profile: ChaosProfile,
) -> std::io::Result<ChaosHandle> {
    let p = &profile;
    let rates = [p.fault_rate, p.truncate_rate, p.flip_rate];
    // The tolerance admits sums like 0.1 + 0.2 + 0.7 that round above 1.
    let rates_ok =
        rates.iter().all(|r| (0.0..=1.0).contains(r)) && rates.iter().sum::<f64>() <= 1.0 + 1e-9;
    let ms_ok = |ms: f64| ms.is_finite() && ms >= 0.0;
    if !(rates_ok && ms_ok(p.latency_ms) && ms_ok(p.jitter_ms)) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "the chaos proxy needs rates in [0, 1] summing to at most 1 and a finite \
                 latency and jitter >= 0 (got fault {}, truncate {}, flip {}, latency {} ms, \
                 jitter {} ms)",
                p.fault_rate, p.truncate_rate, p.flip_rate, p.latency_ms, p.jitter_ms
            ),
        ));
    }
    let listener = TcpListener::bind(listen)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ChaosStats::new());
    let accept_thread = {
        let stop = Arc::clone(&stop);
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || {
            let mut conn_index = 0u64;
            while let Ok((client, _)) = listener.accept() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                stats.connections.inc();
                relay(client, &upstream, &profile, conn_index, &stats);
                conn_index += 1;
            }
        })
    };
    Ok(ChaosHandle {
        addr,
        stats,
        stop,
        accept_thread,
    })
}

/// Wire one accepted client to a fresh upstream connection: two pump
/// threads, one per direction, each with its own seeded fault plan.
fn relay(
    client: TcpStream,
    upstream: &str,
    profile: &ChaosProfile,
    conn_index: u64,
    stats: &Arc<ChaosStats>,
) {
    let Ok(server) = TcpStream::connect(upstream) else {
        // Upstream down: the client sees an immediate close — exactly the
        // reset failure mode the reducer must survive.
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    for (label, from, to) in [
        ("up", client.try_clone(), server.try_clone()),
        ("down", server.try_clone(), client.try_clone()),
    ] {
        let (Ok(from), Ok(to)) = (from, to) else {
            continue;
        };
        let mut rng = rng_for_n(profile.seed, label, conn_index);
        let plan = draw_plan(profile, &mut rng);
        let jitter = rng.uniform(-1.0, 1.0) * profile.jitter_ms;
        let delay =
            Duration::from_micros(((profile.latency_ms + jitter).max(0.0) * 1_000.0) as u64);
        let stats = Arc::clone(stats);
        std::thread::spawn(move || pump(from, to, plan, delay, &stats));
    }
}

/// Relay one direction byte-for-byte, enacting the plan at its offset.
fn pump(mut from: TcpStream, mut to: TcpStream, plan: Plan, delay: Duration, stats: &ChaosStats) {
    if !delay.is_zero() {
        std::thread::sleep(delay);
    }
    let mut pos = 0usize;
    let mut buf = [0u8; 8192];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let chunk = &mut buf[..n];
        match plan {
            Plan::Reset { after } if pos + n > after => {
                stats.resets.inc();
                let _ = to.shutdown(Shutdown::Both);
                let _ = from.shutdown(Shutdown::Both);
                return;
            }
            Plan::Truncate { after } if pos + n > after => {
                stats.truncations.inc();
                let _ = to.write_all(&chunk[..after - pos]);
                let _ = to.shutdown(Shutdown::Write);
                // Drain the rest so the sender does not block on a dead pipe.
                while matches!(from.read(&mut buf), Ok(n) if n > 0) {}
                return;
            }
            Plan::Flip { at } if (pos..pos + n).contains(&at) => {
                stats.flips.inc();
                chunk[at - pos] ^= 0x01;
            }
            _ => {}
        }
        if to.write_all(chunk).is_err() {
            break;
        }
        pos += n;
    }
    let _ = to.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// The `txstat_chaos_*` counters are process-global: a test that expects
    /// no reset holds this lock against the one test whose proxy resets.
    static RESETS: Mutex<()> = Mutex::new(());

    /// An upstream that echoes whatever it receives, one connection at a
    /// time, until dropped.
    fn spawn_echo_upstream() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 || s.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    fn exchange(addr: &SocketAddr, msg: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(2)))?;
        s.write_all(msg)?;
        s.shutdown(Shutdown::Write)?;
        let mut out = Vec::new();
        s.read_to_end(&mut out)?;
        Ok(out)
    }

    #[test]
    fn profiles_that_cannot_mean_what_they_say_are_refused() {
        let profile = |edit: fn(&mut ChaosProfile)| {
            let mut p = ChaosProfile::clean("refused", 1);
            edit(&mut p);
            p
        };
        for (what, bad) in [
            ("NaN fault rate", profile(|p| p.fault_rate = f64::NAN)),
            ("negative fault rate", profile(|p| p.fault_rate = -1.0)),
            ("fault rate above 1", profile(|p| p.fault_rate = 7.0)),
            (
                "infinite truncate rate",
                profile(|p| p.truncate_rate = f64::INFINITY),
            ),
            ("flip rate above 1", profile(|p| p.flip_rate = 1.5)),
            (
                "rates summing above 1",
                profile(|p| (p.fault_rate, p.truncate_rate, p.flip_rate) = (0.5, 0.4, 0.2)),
            ),
            ("negative latency", profile(|p| p.latency_ms = -5.0)),
            ("NaN jitter", profile(|p| p.jitter_ms = f64::NAN)),
            ("infinite jitter", profile(|p| p.jitter_ms = f64::INFINITY)),
        ] {
            let err = spawn_chaos_proxy("127.0.0.1:0", "127.0.0.1:1".into(), bad)
                .err()
                .unwrap_or_else(|| panic!("a proxy with a {what} started"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{what}");
        }
        let whole = profile(|p| (p.fault_rate, p.truncate_rate, p.flip_rate) = (0.1, 0.2, 0.7));
        spawn_chaos_proxy("127.0.0.1:0", "127.0.0.1:1".into(), whole)
            .expect("rates that sum to 1 up to rounding start")
            .stop();
    }

    #[test]
    fn clean_proxy_relays_faithfully() {
        let _resets = RESETS.lock().unwrap_or_else(PoisonError::into_inner);
        let upstream = spawn_echo_upstream();
        let h = spawn_chaos_proxy("127.0.0.1:0", upstream, ChaosProfile::clean("clean", 1))
            .expect("proxy starts");
        let msg: Vec<u8> = (0..2000u32).flat_map(|i| i.to_le_bytes()).collect();
        let back = exchange(&h.addr, &msg).expect("echo");
        assert_eq!(back, msg);
        assert_eq!(h.stats.resets.get(), 0);
        h.stop();
    }

    #[test]
    fn flip_proxy_corrupts_exactly_one_bit_per_direction() {
        let upstream = spawn_echo_upstream();
        let mut p = ChaosProfile::clean("flip", 7);
        p.flip_rate = 1.0;
        let h = spawn_chaos_proxy("127.0.0.1:0", upstream, p).expect("proxy starts");
        let msg = vec![0u8; 4096];
        let back = exchange(&h.addr, &msg).expect("echo");
        assert_eq!(back.len(), msg.len(), "flips never change length");
        let flipped: u32 = back
            .iter()
            .zip(&msg)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        // One flip on the way up, one on the way down — they can land on
        // the same byte-and-bit and cancel to zero visible flips, but with
        // distinct per-direction seeds they land apart here.
        assert!((1..=2).contains(&flipped), "flipped bits: {flipped}");
        assert!(h.stats.flips.get() >= 1);
        h.stop();
    }

    #[test]
    fn reset_proxy_kills_the_stream_early() {
        let _resets = RESETS.lock().unwrap_or_else(PoisonError::into_inner);
        let upstream = spawn_echo_upstream();
        let mut p = ChaosProfile::clean("reset", 11);
        p.fault_rate = 1.0;
        let h = spawn_chaos_proxy("127.0.0.1:0", upstream, p).expect("proxy starts");
        let msg = vec![7u8; 65536];
        // Either the write fails (reset on the way up) or the echo comes
        // back incomplete — never the full faithful round trip.
        if let Ok(back) = exchange(&h.addr, &msg) {
            assert!(back.len() < msg.len(), "reset must lose bytes");
        }
        assert!(h.stats.resets.get() >= 1);
        h.stop();
    }

    #[test]
    fn truncate_proxy_forwards_a_strict_prefix() {
        let upstream = spawn_echo_upstream();
        let mut p = ChaosProfile::clean("trunc", 13);
        p.truncate_rate = 1.0;
        let h = spawn_chaos_proxy("127.0.0.1:0", upstream, p).expect("proxy starts");
        let msg: Vec<u8> = (0..8192usize).map(|i| (i % 251) as u8).collect();
        if let Ok(back) = exchange(&h.addr, &msg) {
            assert!(back.len() < msg.len(), "truncation must shorten the stream");
            assert_eq!(
                back[..],
                msg[..back.len()],
                "what survives is a faithful prefix"
            );
        }
        assert!(h.stats.truncations.get() >= 1);
        h.stop();
    }

    #[test]
    fn same_seed_same_fault_decisions() {
        let mut p = ChaosProfile::clean("det", 99);
        p.fault_rate = 0.3;
        p.truncate_rate = 0.3;
        p.flip_rate = 0.3;
        let plans_a: Vec<Plan> = (0..50)
            .map(|i| draw_plan(&p, &mut rng_for_n(p.seed, "up", i)))
            .collect();
        let plans_b: Vec<Plan> = (0..50)
            .map(|i| draw_plan(&p, &mut rng_for_n(p.seed, "up", i)))
            .collect();
        assert_eq!(plans_a, plans_b);
        assert!(plans_a.iter().any(|pl| *pl != Plan::Clean));
    }
}
