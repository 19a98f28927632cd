//! The host-speed probe behind the calibrated timings.
//!
//! The sandbox's core does not run at one speed. Its clock and its path to
//! memory move between states that last from seconds to many minutes (a
//! pure ALU loop reads 8.8, 10.3 or 11.3 ms for the same work; a pointer
//! chase slows a further 40 % when a neighbour loads the memory system),
//! and every workload moves with them: the same `report` op reads 113 ms
//! in one state and 180 ms in another. No statistic taken inside a 25 s run
//! can average out a state that outlasts the run.
//!
//! So the harness measures the state instead. A probe sample is a fixed
//! script — a dependent pointer chase through a ring too large for the L2,
//! then a burst of hash-map upserts, the two things `reproduce` spends its
//! time on — timed in a helper process of the harness, on the CPU both
//! share with the system under test. One sample is taken after every op; a
//! round's speed is the median of its samples, and every time the round
//! reports is multiplied by `REFERENCE_MS / that median`: times are stated
//! at the reference speed, whatever state the host was in. Over 2400 interleaved
//! `report` ops the per-run medians spread 5.2 % raw and 2.1 % calibrated
//! (max ÷ min 1.36 against 1.09); p90 17.7 % against 6.7 %.
//!
//! The probe never touches the system under test, so a change to the
//! program moves a calibrated time exactly as it moves the raw one.

use std::collections::HashMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::fd::OwnedFd;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// What one probe sample takes on this host in its most common state. Only
/// a scale: it keeps calibrated times in the neighbourhood of wall times.
pub const REFERENCE_MS: f64 = 9.0;

/// The argument that turns the harness binary into the probe's helper.
pub const HELPER_FLAG: &str = "--probe-helper";

/// 8 Mi entries of 4 bytes: 32 MiB, eight times the L2.
const RING_LEN: usize = 8 << 20;
const CHASE_STEPS: usize = 25_000;
const UPSERTS: u64 = 100_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The fixed script one sample times.
struct Script {
    /// One cycle through every entry (Sattolo's shuffle, fixed seed).
    ring: Vec<u32>,
    /// Where the last chase stopped; the next one goes on from there, so a
    /// sample never walks lines the previous one left in the cache.
    at: u32,
}

impl Script {
    fn new() -> Script {
        let mut ring: Vec<u32> = (0..RING_LEN as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15;
        for i in (1..RING_LEN).rev() {
            let j = (xorshift(&mut state) % i as u64) as usize;
            ring.swap(i, j);
        }
        Script { ring, at: 0 }
    }

    /// Run the script once; its wall time in ms.
    fn sample_ms(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..CHASE_STEPS {
            self.at = self.ring[self.at as usize];
        }
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let mut key = 88_172_645_463_325_252;
        for i in 0..UPSERTS {
            *counts
                .entry(xorshift(&mut key) % (UPSERTS / 2))
                .or_insert(0) += i;
        }
        black_box((self.at, counts.len()));
        started.elapsed().as_secs_f64() * 1000.0
    }
}

/// The helper's whole life: build the script, then answer every byte on
/// stdin with one sample (an `f64` of ms, little endian) until stdin ends.
pub fn serve_probe() -> std::io::Result<()> {
    let mut script = Script::new();
    let (mut requests, mut answers) = (std::io::stdin().lock(), std::io::stdout().lock());
    let mut request = [0u8; 1];
    while requests.read(&mut request)? == 1 {
        answers.write_all(&script.sample_ms().to_le_bytes())?;
        answers.flush()?;
    }
    Ok(())
}

/// The probe as the harness holds it: a helper process of its own.
///
/// The script's 32 MiB may not live in the harness: a child's `ru_maxrss`
/// starts from the resident set of the process that spawned it, so a ring
/// in the harness would be the floor of every `peak_rss_mb` it reports. The
/// helper inherits the harness's one CPU, times its own samples, sleeps on
/// its pipe otherwise, and ends when the probe is dropped.
pub struct SpeedProbe {
    helper: Child,
    /// `None` once dropped: closing it is what ends the helper.
    requests: Option<File>,
    answers: File,
}

impl SpeedProbe {
    /// Start `program HELPER_FLAG` (the harness's own binary).
    pub fn spawn(program: &std::path::Path) -> std::io::Result<SpeedProbe> {
        let mut helper = Command::new(program)
            .arg(HELPER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let pipes = (helper.stdin.take(), helper.stdout.take());
        let (Some(stdin), Some(stdout)) = pipes else {
            unreachable!("both were asked for as pipes");
        };
        Ok(SpeedProbe {
            helper,
            requests: Some(File::from(OwnedFd::from(stdin))),
            answers: File::from(OwnedFd::from(stdout)),
        })
    }

    /// One sample, in ms.
    pub fn sample_ms(&self) -> Result<f64, String> {
        let mut answer = [0u8; 8];
        let mut requests = self.requests.as_ref().expect("open until dropped");
        requests
            .write_all(&[1])
            .and_then(|()| (&self.answers).read_exact(&mut answer))
            .map_err(|e| format!("the probe helper is gone: {e}"))?;
        Ok(f64::from_le_bytes(answer))
    }

    pub fn samples_ms(&self, n: usize) -> Result<Vec<f64>, String> {
        (0..n).map(|_| self.sample_ms()).collect()
    }
}

impl Drop for SpeedProbe {
    fn drop(&mut self) {
        drop(self.requests.take());
        let _ = self.helper.wait();
    }
}

/// The factor that states a time measured beside `probe_ms` at the
/// reference speed; 1 when there is no sample to go by.
pub fn factor(probe_ms: &[f64]) -> f64 {
    match crate::stats::median(probe_ms) {
        m if m > 0.0 => REFERENCE_MS / m,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle_and_a_chase_moves_along_it() {
        let mut script = Script::new();
        let mut seen = vec![false; RING_LEN];
        let mut at = 0u32;
        for _ in 0..RING_LEN {
            assert!(!std::mem::replace(&mut seen[at as usize], true));
            at = script.ring[at as usize];
        }
        assert_eq!(at, 0);
        assert!(script.sample_ms() > 0.0);
        assert_ne!(script.at, 0);
    }

    #[test]
    fn factor_scales_to_the_reference_speed() {
        // A host running at half speed takes twice as long over the probe
        // and over the op; the factor takes both back.
        assert_eq!(factor(&[2.0 * REFERENCE_MS; 3]), 0.5);
        assert_eq!(factor(&[REFERENCE_MS, 1.0, 100.0]), 1.0);
        assert_eq!(factor(&[]), 1.0);
    }
}
