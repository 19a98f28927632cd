//! Shared bench fixtures: a small scenario's pipeline data, built once.

use std::sync::OnceLock;
use txstat_reports::{generate, PipelineData};
use txstat_types::time::{ChainTime, Period};
use txstat_workload::Scenario;

/// The bench scenario: a 12-day window straddling the EIDOS launch.
fn bench_scenario() -> Scenario {
    let mut sc = Scenario::small(42);
    sc.period = Period::new(
        ChainTime::from_ymd(2019, 10, 26),
        ChainTime::from_ymd(2019, 11, 7),
    );
    sc
}

/// Pipeline data for the bench scenario, built once per process.
pub fn bench_data() -> &'static PipelineData {
    static DATA: OnceLock<PipelineData> = OnceLock::new();
    DATA.get_or_init(|| generate(&bench_scenario()))
}
