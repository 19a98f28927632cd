//! Shared pieces of the txstat benchmark: the run plan (scales, rounds, op
//! counts), the percentile rule, the host-speed probe, `/proc` readers,
//! child-process accounting, a std-only HTTP client, the machine
//! fingerprint and the result line both binaries print.
//!
//! The end-to-end harness (`src/main.rs`) only ever talks to the system
//! under test across a process boundary — it spawns `reproduce` and speaks
//! HTTP over loopback — so nothing in this library touches a txstat crate.
//! The traced layer run (`src/bin/layers.rs`) is the only code that calls
//! into the libraries.

pub mod calib;
pub mod fingerprint;
pub mod http;
pub mod proc;
pub mod stats;

use std::path::{Path, PathBuf};

/// The four workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = ["report", "fleet_reduce", "follow_catchup", "serve_refresh"];

/// The route set `serve_refresh` re-reads on every new epoch: the 13
/// report sections, the comparison table, one account that exists from
/// the first epoch on, and the full report last. Both binaries read it
/// from here, and the traced run checks it against the sections the
/// library renders.
pub const ROUTES: [&str; 16] = [
    "/exhibit/headline",
    "/exhibit/fig1",
    "/exhibit/fig2",
    "/exhibit/fig3",
    "/exhibit/fig4",
    "/exhibit/fig5",
    "/exhibit/fig6",
    "/exhibit/fig7",
    "/exhibit/fig8",
    "/exhibit/fig9",
    "/exhibit/fig11",
    "/exhibit/fig12",
    "/exhibit/case_studies",
    "/exhibit/comparison",
    "/account/eos/eosio.token",
    "/report",
];

/// A failed op is recorded, never waited on forever.
pub const OP_DEADLINE: std::time::Duration = std::time::Duration::from_secs(60);

/// Scenario preset, the follow/serve geometry that goes with it, and the
/// run plan: how many rounds a minute of `--seconds` buys and how many ops
/// a round holds. Op counts follow from `--seconds` alone, never from how
/// fast the system under test is, so both sides of a comparison do the
/// same work.
///
/// `small` is what the driver contract runs (its time cap leaves ~35 s per
/// run, set-up included, and one paper-scale `report` alone takes 6–9 s);
/// `paper` is the issue's geometry and op counts, for the hand-run ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub name: &'static str,
    /// Blocks per chain per epoch while `follow_catchup` races to head.
    pub follow_batch: usize,
    /// Blocks per epoch and the follower's sleep between epochs while
    /// `serve_refresh` re-reads the route set.
    pub refresh_batch: usize,
    pub refresh_epoch_ms: u64,
    /// A round is one set-up from nothing (its own scenario seed), then
    /// `ops_per_round` ops, then the teardown check.
    pub rounds_per_minute: f64,
    /// In `WORKLOADS` order. `serve_refresh` runs one whole server session
    /// per round (one op per epoch); its entry is the session's epoch
    /// count, used for planning only.
    pub ops_per_round: [usize; 4],
    /// In `WORKLOADS` order: the percentile `op_tail_ms` reports, fixed
    /// per workload by the issue's rule (p99 from 1000 ops, p90 from 100,
    /// else the median) applied to the op count planned at the contract's
    /// `run_seconds` — a constant, not something a faster or slower build
    /// could move.
    pub tail: [stats::Tail; 4],
}

impl Scale {
    pub const SMALL: Scale = Scale {
        name: "small",
        follow_batch: 32,
        refresh_batch: 64,
        refresh_epoch_ms: 25,
        rounds_per_minute: 36.0,
        ops_per_round: [9, 9, 12, 42],
        tail: [stats::Tail::P90; 4],
    };
    pub const PAPER: Scale = Scale {
        name: "paper",
        follow_batch: 256,
        refresh_batch: 128,
        refresh_epoch_ms: 150,
        rounds_per_minute: 2.0,
        ops_per_round: [5, 6, 11, 207],
        tail: [
            stats::Tail::P50,
            stats::Tail::P50,
            stats::Tail::P50,
            stats::Tail::P90,
        ],
    };

    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "small" => Ok(Scale::SMALL),
            "paper" => Ok(Scale::PAPER),
            other => Err(format!("--scale wants small or paper, got {other:?}")),
        }
    }

    /// The `reproduce` flag selecting this preset (paper is the default).
    pub fn flag(&self) -> Option<&'static str> {
        (self.name == "small").then_some("--small")
    }

    /// Rounds that `seconds` of measuring buy, at least one.
    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds * self.rounds_per_minute / 60.0).round() as usize).max(1)
    }
}

/// Position of a workload in `WORKLOADS` (and in the per-workload tables).
pub fn workload_index(workload: &str) -> Result<usize, String> {
    WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}; one of {WORKLOADS:?}"))
}

/// The scenario seed of round `round`: every round of a run draws its own
/// inputs, all of them made from `--seed`, so that one unusually light or
/// heavy scenario does not decide what a run reports.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(round as u64)
}

/// Command line shared by both binaries (the driver's four flags plus the
/// hand-run extras).
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    /// `None`: the contract's scale for a single run, both for the suite.
    pub scale: Option<Scale>,
    pub smoke: bool,
    pub selfcheck: bool,
    /// Process-level op median of the same workload on the wall clock
    /// (`op_ms` before calibration), handed to the traced run by the suite
    /// so it can print the remainder to the process boundary.
    pub e2e_op_ms: Option<f64>,
}

impl Args {
    pub fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 42,
            seconds: None,
            trace: None,
            scale: None,
            smoke: false,
            selfcheck: false,
            e2e_op_ms: None,
        };
        let mut it = raw;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let bad = |v: &str| format!("{flag}: cannot parse {v:?}");
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload_index(&v)?;
                    out.workload = Some(v);
                }
                "--seed" => {
                    let v = value()?;
                    out.seed = v.parse().map_err(|_| bad(&v))?;
                }
                "--seconds" => {
                    let v = value()?;
                    let s: f64 = v.parse().map_err(|_| bad(&v))?;
                    if !(0.0..=600.0).contains(&s) {
                        return Err(bad(&v));
                    }
                    out.seconds = Some(s);
                }
                "--trace" => {
                    let v = value()?;
                    out.trace = Some(match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&v)),
                    });
                }
                "--scale" => out.scale = Some(Scale::parse(&value()?)?),
                "--e2e-op-ms" => {
                    let v = value()?;
                    out.e2e_op_ms = Some(v.parse().map_err(|_| bad(&v))?);
                }
                "--smoke" => out.smoke = true,
                "--selfcheck" => out.selfcheck = true,
                other => return Err(format!("unrecognized argument {other:?}")),
            }
        }
        Ok(out)
    }

    /// The scale of one run: `--scale`, else the contract's.
    pub fn run_scale(&self) -> Scale {
        self.scale.unwrap_or(Scale::SMALL)
    }

    /// `(rounds, ops per round)` for one run of `workload`: one round of
    /// one op under `--smoke`, else what `--seconds` buys (without the
    /// flag, the `run_seconds` that `BENCHMARK.json` fixes).
    pub fn plan(&self, workload: &str) -> Result<(usize, usize), String> {
        if self.smoke {
            return Ok((1, 1));
        }
        let seconds = match self.seconds {
            Some(s) => s,
            None => contract()?["run_seconds"]
                .as_f64()
                .ok_or("BENCHMARK.json has no run_seconds")?,
        };
        let scale = self.run_scale();
        Ok((
            scale.rounds(seconds),
            scale.ops_per_round[workload_index(workload)?],
        ))
    }
}

/// `BENCHMARK.json`, the one place `run_seconds` and the bounds are fixed.
/// Hand runs start at the repository root, like the driver's.
pub fn contract() -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// Where build products live: `CARGO_TARGET_DIR` (the driver sets it
/// relative to the checkout root, which is the working directory) or the
/// repository's own `target/`.
pub fn target_dir() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    std::path::absolute(&dir).unwrap_or(dir)
}

/// A per-run scratch directory (corpus, outputs, child logs), created
/// fresh under the target directory and removed on every exit path.
pub struct TempRoot {
    path: PathBuf,
}

impl TempRoot {
    pub fn create() -> std::io::Result<TempRoot> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = target_dir()
            .join("txbench-tmp")
            .join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempRoot { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh subdirectory (each round gets its own).
    pub fn subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(name);
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// What one run hands back: the driver reads the JSON form off the last
/// stdout line, people read the `metric …` lines above it.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!("metric {workload}/{} = {} {}", m.name, m.value, m.unit);
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "metric {workload}/failed_share = {share} ratio ({}/{})",
            self.failed, self.attempted
        );
        println!("{}", self.to_json());
    }

    pub fn to_json(&self) -> String {
        let mut metrics = serde_json::Map::new();
        for m in &self.metrics {
            metrics.insert(
                m.name.clone(),
                serde_json::json!({"value": m.value, "unit": m.unit}),
            );
        }
        let line = serde_json::json!({
            "correct": self.correct,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": serde_json::Value::Object(metrics),
        });
        serde_json::to_string(&line).expect("a Value tree always serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_flags_parse() {
        let a = args("--workload report --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("report"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(12.0), Some(true)));
        assert_eq!(a.run_scale(), Scale::SMALL);
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }

    #[test]
    fn op_counts_follow_from_seconds_alone() {
        let a = args("--seconds 22").unwrap();
        assert_eq!(a.plan("report"), Ok((13, 9)));
        assert_eq!(a.plan("follow_catchup"), Ok((13, 12)));
        let paper = args("--seconds 22 --scale paper").unwrap();
        assert_eq!(paper.plan("report"), Ok((1, 5)));
        assert_eq!(paper.plan("fleet_reduce"), Ok((1, 6)));
        assert_eq!(paper.plan("follow_catchup"), Ok((1, 11)));
        assert_eq!(args("--seconds 0.1").unwrap().plan("report"), Ok((1, 9)));
        assert_eq!(args("--smoke").unwrap().plan("serve_refresh"), Ok((1, 1)));
        assert!(a.plan("nope").is_err());
    }

    /// The fixed percentiles are the issue's rule applied to the op counts
    /// planned at the contract's `run_seconds`.
    #[test]
    fn fixed_tails_match_the_rule_at_the_contracts_run_seconds() {
        let text = std::fs::read_to_string("../BENCHMARK.json").unwrap();
        let contract: serde_json::Value = serde_json::from_str(&text).unwrap();
        let seconds = contract["run_seconds"].as_f64().unwrap();
        for scale in [Scale::SMALL, Scale::PAPER] {
            for (i, ops) in scale.ops_per_round.iter().enumerate() {
                let planned = scale.rounds(seconds) * ops;
                assert_eq!(
                    scale.tail[i],
                    stats::Tail::for_count(planned),
                    "{} {}",
                    scale.name,
                    WORKLOADS[i]
                );
            }
        }
    }

    #[test]
    fn round_seeds_are_distinct_and_made_from_the_seed() {
        assert_eq!(round_seed(42, 0), 42_000);
        assert_eq!(round_seed(42, 12), 42_012);
        assert_ne!(round_seed(42, 1), round_seed(43, 1));
        // No overflow panic at the far end of the seed range.
        round_seed(u64::MAX, 3);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("op_ms", 1.25, "ms")],
        };
        let v: serde_json::Value = serde_json::from_str(&r.to_json()).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys.len(), 4);
        assert_eq!(v["attempted"].as_u64(), Some(3));
        assert_eq!(v["metrics"]["op_ms"]["value"].as_f64(), Some(1.25));
        assert_eq!(v["metrics"]["op_ms"]["unit"].as_str(), Some("ms"));
    }

    #[test]
    fn temp_root_is_removed_on_drop() {
        let root = TempRoot::create().unwrap();
        let path = root.path().to_owned();
        std::fs::write(root.subdir("a").unwrap().join("f"), b"x").unwrap();
        assert!(path.is_dir());
        drop(root);
        assert!(!path.exists());
    }
}
