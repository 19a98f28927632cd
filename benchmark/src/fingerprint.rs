//! The machine fingerprint printed with every run and stored beside the
//! baseline: numbers from two different boxes, toolchains or commits are
//! not comparable, and the record should say so by itself.

use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// CPU count and model off `/proc/cpuinfo` (the run is pinned to one CPU,
/// so `available_parallelism` would say 1 on any machine).
fn cpus() -> Option<(usize, String)> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let count = info.lines().filter(|l| l.starts_with("processor")).count();
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some((count, line.split_once(':')?.1.trim().to_owned()))
}

/// `nproc`, the CPU the run is pinned to, CPU model, kernel, rustc, build
/// profile, git commit and seed as one JSON object. The driver's checkout
/// is not a git repository, so the commit (like anything else unreadable)
/// degrades to `"unknown"`.
pub fn fingerprint(seed: u64, scale: &str, pinned_cpu: usize) -> serde_json::Value {
    let unknown = || "unknown".to_owned();
    let (nproc, cpu_model) = cpus().unwrap_or_else(|| (0, unknown()));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| unknown(), |s| s.trim().to_owned());
    serde_json::json!({
        "nproc": nproc,
        "pinned_cpu": pinned_cpu,
        "cpu_model": cpu_model,
        "kernel": kernel,
        "rustc": command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "git_commit": command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        "seed": seed,
        "scale": scale,
    })
}

/// The `fingerprint {…}` line both binaries open a run with.
pub fn print(seed: u64, scale: &str, pinned_cpu: usize) {
    let line =
        serde_json::to_string(&fingerprint(seed, scale, pinned_cpu)).expect("a Value serializes");
    println!("fingerprint {line}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn fingerprint_names_every_field() {
        let f = super::fingerprint(7, "small", 1);
        for key in [
            "nproc",
            "pinned_cpu",
            "cpu_model",
            "kernel",
            "rustc",
            "profile",
            "git_commit",
            "scale",
        ] {
            assert!(!f[key].is_null(), "{key} missing");
        }
        assert_eq!(f["seed"].as_u64(), Some(7));
        assert!(f["nproc"].as_u64().unwrap() >= 1);
    }
}
