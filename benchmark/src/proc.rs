//! Child processes of the harness: spawning `reproduce`, reading the
//! address a server announces, CPU and peak-RSS accounting, and making sure
//! no child outlives the run.
//!
//! Long-lived children (shard workers, `serve`) are read while they run:
//! CPU time through the kernel's per-process CPU clock (nanoseconds, and it
//! keeps the time of threads that have already exited, where
//! `/proc/<pid>/stat` counts in 10 ms ticks — five times a `serve_refresh`
//! op), peak RSS from `VmHWM` in `/proc/<pid>/status`. A child that is
//! waited for is reaped with `wait4`, whose `rusage` gives its exact CPU
//! time and peak RSS — a 100 ms op is over before a poller would have
//! looked twice.
//!
//! `pin_to_one_cpu` keeps the harness and every child on a single CPU; see
//! there for why.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and calls wait4 with the 64-bit Linux rusage layout");

/// `struct timeval` and `struct rusage` as 64-bit Linux lays them out
/// (every member a `long`).
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn clock_getcpuclockid(pid: i32, clock_id: *mut i32) -> i32;
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const SIGKILL: i32 = 9;
/// `cpu_set_t`: 1024 bits.
const CPU_SET_WORDS: usize = 16;

/// Pin the calling process, and so every child it spawns afterwards, to one
/// CPU — the highest-numbered one it is allowed on — and return its number.
///
/// On the two-vCPU sandbox the same multi-threaded op costs 10–30 % more
/// wall and CPU time for minutes at a stretch whenever the second vCPU is
/// contended, while the same op confined to one CPU repeats within 1–3 %.
/// Every op is sequential from the harness's side (one in flight, closed
/// loop), so one CPU loses nothing but thread-level speed-up inside the
/// system under test, which a two-core box could not measure honestly
/// anyway; `cpu_ms_per_op` and wall time then agree wherever the op does
/// not sleep.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is valid for writes of `bytes` bytes for the call.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|i| mask[i / 64] >> (i % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is valid for reads of `bytes` bytes for the call.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// How a reaped child ended and what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exit {
    pub success: bool,
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
}

/// A spawned `reproduce` process. Dropping it kills and reaps the child,
/// so an early return or a panic in the harness leaves nothing running.
pub struct Proc {
    child: Option<Child>,
    /// Kept open after the announce line so the child never sees EPIPE.
    stdout: Option<BufReader<ChildStdout>>,
}

impl Proc {
    /// Spawn `program args…` with stdout piped (servers announce their
    /// address there) and stderr appended to `log`.
    pub fn spawn(program: &Path, args: &[&str], log: &File) -> std::io::Result<Proc> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log.try_clone()?))
            .spawn()?;
        let stdout = child.stdout.take().map(BufReader::new);
        Ok(Proc {
            child: Some(child),
            stdout,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Read stdout until a line starting with `prefix` and return the rest
    /// of that line (`shard worker on ADDR`, `serving on http://ADDR`).
    /// The read happens on a helper thread so a child that never announces
    /// costs `limit`, not the run.
    pub fn announced(&mut self, prefix: &'static str, limit: Duration) -> Result<String, String> {
        let mut reader = self.stdout.take().ok_or("stdout already consumed")?;
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let mut line = String::new();
            let found = loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break None,
                    Ok(_) => {
                        if let Some(rest) = line.trim_end().strip_prefix(prefix) {
                            break Some(rest.to_owned());
                        }
                    }
                }
            };
            let _ = tx.send((found, reader));
        });
        match rx.recv_timeout(limit) {
            Ok((found, reader)) => {
                helper.join().map_err(|_| "announce reader panicked")?;
                self.stdout = Some(reader);
                found.ok_or_else(|| format!("child exited before printing {prefix:?}"))
            }
            Err(_) => {
                // Killing the child closes the pipe, which ends the helper.
                self.kill();
                helper.join().map_err(|_| "announce reader panicked")?;
                Err(format!("no {prefix:?} line within {limit:?}"))
            }
        }
    }

    /// CPU time (user+sys, every thread it has ever had) the live child
    /// has used so far.
    pub fn cpu_ms(&self) -> Option<f64> {
        let mut clock = 0i32;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: both out-pointers are valid for writes for the calls;
        // the pid is our own unreaped child, so it names that process.
        let ok = unsafe {
            clock_getcpuclockid(self.pid() as i32, &mut clock) == 0
                && clock_gettime(clock, &mut ts) == 0
        };
        ok.then(|| ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6)
    }

    /// Peak resident set (`VmHWM`) of the live child so far.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        Some(parse_vm_hwm_kb(&status)? as f64 / 1024.0)
    }

    fn kill(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
        }
    }

    /// Wait for the child to exit on its own, at most `limit` (then it is
    /// killed and the exit reads as a failure), and account for it.
    // The child is reaped below, by `wait4` on its pid instead of
    // `Child::wait`, which has no way to hand back the rusage.
    #[allow(clippy::zombie_processes)]
    pub fn reap(mut self, limit: Duration) -> Exit {
        let child = self.child.take().expect("a Proc is reaped once");
        let pid = child.id() as i32;
        // The watchdog fires only if the child is still running at the
        // deadline; dropping `cancel` after the reap ends it early. A kill
        // racing the reap would need the deadline to expire in the few
        // instructions between `wait4` returning and the drop.
        let (cancel, expired) = mpsc::channel::<()>();
        let watchdog = std::thread::spawn(move || {
            if expired.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
                // SAFETY: `kill` takes plain integers; the pid is our own
                // unreaped child, so it cannot have been reused yet.
                unsafe { kill(pid, SIGKILL) };
            }
        });
        let mut status = 0i32;
        let mut usage = RUsage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss_kb: 0,
            _rest: [0; 13],
        };
        let reaped = loop {
            // SAFETY: both out-pointers are valid for writes for the whole
            // call and `RUsage` matches the kernel's layout (see above).
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == -1 && std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted
            {
                continue;
            }
            break r == pid;
        };
        drop(cancel);
        let _ = watchdog.join();
        let micros = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
        Exit {
            // WIFEXITED && WEXITSTATUS == 0
            success: reaped && status & 0x7f == 0 && (status >> 8) & 0xff == 0,
            cpu_ms: (micros(&usage.utime) + micros(&usage.stime)) / 1000.0,
            peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\treproduce\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    fn log() -> File {
        File::create("/dev/null").unwrap()
    }

    #[test]
    fn live_child_is_readable_through_proc_and_reaped_with_rusage() {
        let mut p =
            Proc::spawn(Path::new("sh"), &["-c", "echo ready on X; read _"], &log()).unwrap();
        // `read _` sees EOF on the null stdin and exits at once, so only
        // the announce line is guaranteed; /proc may already be gone.
        assert_eq!(
            p.announced("ready on ", Duration::from_secs(5)).as_deref(),
            Ok("X")
        );
        let exit = p.reap(Duration::from_secs(5));
        assert!(exit.peak_rss_mb > 0.0 && exit.cpu_ms >= 0.0);

        let busy = Proc::spawn(Path::new("sh"), &["-c", "while :; do :; done"], &log()).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        let early = busy.cpu_ms().unwrap();
        assert!(early > 0.0);
        assert!(busy.peak_rss_mb().unwrap() > 0.0);
        // The deadline turns a hang into a failed, accounted-for exit.
        let exit = busy.reap(Duration::from_millis(50));
        assert!(!exit.success);
        assert!(exit.cpu_ms > 50.0 && exit.cpu_ms > early);
    }

    #[test]
    fn exit_status_and_missing_announce_are_failures() {
        let ok = Proc::spawn(Path::new("sh"), &["-c", "exit 0"], &log()).unwrap();
        assert!(ok.reap(Duration::from_secs(5)).success);
        let bad = Proc::spawn(Path::new("sh"), &["-c", "exit 3"], &log()).unwrap();
        assert!(!bad.reap(Duration::from_secs(5)).success);
        let mut mute = Proc::spawn(Path::new("sh"), &["-c", "exit 0"], &log()).unwrap();
        assert!(mute.announced("never ", Duration::from_secs(5)).is_err());
        let mut hung = Proc::spawn(Path::new("sh"), &["-c", "exec sleep 30"], &log()).unwrap();
        assert!(hung.announced("never ", Duration::from_millis(50)).is_err());
    }

    #[test]
    fn a_pinned_harness_hands_its_one_cpu_to_its_children() {
        // Affinity belongs to the calling thread, so the other tests,
        // which run on threads of their own, keep theirs.
        let cpu = pin_to_one_cpu().unwrap();
        let mut child = Proc::spawn(
            Path::new("sh"),
            &[
                "-c",
                "sed -n 's/^Cpus_allowed_list:[[:space:]]*/cpus /p' /proc/self/status",
            ],
            &log(),
        )
        .unwrap();
        let allowed = child.announced("cpus ", Duration::from_secs(5)).unwrap();
        assert_eq!(allowed, cpu.to_string());
        assert_eq!(pin_to_one_cpu(), Ok(cpu));
    }

    #[test]
    fn dropping_a_proc_kills_the_child() {
        let p = Proc::spawn(Path::new("sh"), &["-c", "exec sleep 30"], &log()).unwrap();
        let pid = p.pid();
        drop(p);
        assert!(!Path::new(&format!("/proc/{pid}/stat")).exists());
    }
}
