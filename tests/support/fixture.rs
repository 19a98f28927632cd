//! The generated datasets every suite shares: one [`OnceLock`] per
//! (scale, seed) and test binary, each holding the chains and their
//! one-shot report, so no suite pays a generation per test (or per
//! proptest case) for a dataset another test of its binary has built.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, OnceLock};
use txstat::reports::{generate, render_report, reorg_data, PipelineData};
use txstat::workload::Scenario;

/// The scenario presets the suites generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// `Scenario::small`.
    Small,
    /// The full 92-day window at a lighter scale than the paper preset,
    /// so that it runs in debug builds too.
    Medium,
}

impl Scale {
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Scale::Small => Scenario::small(seed),
            Scale::Medium => {
                let mut sc = Scenario::paper(seed);
                sc.eos_divisor = 5_000.0;
                sc.xrp_divisor = 5_000.0;
                sc.tezos_divisor = 40.0;
                sc.eos_block_secs = 900;
                sc.tezos_block_secs = 1800;
                sc.xrp_close_secs = 7200;
                sc
            }
        }
    }
}

/// A generated dataset and its one-shot report, rendered from `data` on
/// first use (which computes its sweeps, facts and views): a test that
/// needs a dataset nothing has rendered, or one it owns, takes
/// [`Fixture::fresh`].
pub struct Fixture {
    pub data: PipelineData,
    report: OnceLock<String>,
}

impl Fixture {
    pub fn report(&self) -> &str {
        self.report.get_or_init(|| render_report(&self.data))
    }

    /// An owned copy of the chains with nothing computed: `reorg_data`
    /// from past every chain's end rewrites no block.
    pub fn fresh(&self) -> PipelineData {
        reorg_data(&self.data, usize::MAX, 0)
    }
}

/// The fixture of `Scenario::small(seed)`.
pub fn small(seed: u64) -> &'static Fixture {
    fixture(Scale::Small, seed)
}

/// The fixture of `scale` at `seed`, generated on first use.
pub fn fixture(scale: Scale, seed: u64) -> &'static Fixture {
    static CELLS: Cells<(Scale, u64), Fixture> = Mutex::new(None);
    once(&CELLS, (scale, seed), || Fixture {
        data: generate(&scale.scenario(seed)),
        report: OnceLock::new(),
    })
}

/// Lazily built values by key, each behind its own [`OnceLock`]: two keys
/// build side by side, and one key is built once however many threads ask.
pub type Cells<K, V> = Mutex<Option<HashMap<K, &'static OnceLock<V>>>>;

/// The value of `key` in `cells`, built by `init` on first use.
pub fn once<K: Hash + Eq, V>(
    cells: &'static Cells<K, V>,
    key: K,
    init: impl FnOnce() -> V,
) -> &'static V {
    let cell = {
        let mut cells = cells.lock().expect("no fixture panicked while listed");
        let cells = cells.get_or_insert_with(HashMap::new);
        *cells
            .entry(key)
            .or_insert_with(|| Box::leak(Box::default()))
    };
    cell.get_or_init(init)
}
