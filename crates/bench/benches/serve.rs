//! `serve/` bench: what the follow loop pays to publish the last (most
//! corpus-laden) epoch of a catch-up. A process-level harness only sees
//! the whole catch-up (`follow_catchup` in `BENCHMARK.json`); the response
//! path and the loaded HTTP server are timed there (`reports.respond_*`,
//! `netsim.http_*`) and by `reproduce serve --load`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use txstat_reports::{generate, Follower};
use txstat_workload::Scenario;

fn serve(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(20);

    // One epoch publish with the whole corpus behind it: the last advance
    // of a catch-up in the benchmark's small geometry. The follower lives
    // outside the timed closure so that only `advance` and the drop of the
    // fork it returns are on the clock. The set-up dropped every earlier
    // fork, so this is a reclaimed advance: sweep and finalize the batch,
    // fold the owed delta and the new one into the retired copy — no clone
    // of the state, and dropping the fork frees none (the follower's front
    // shares its sweeps).
    const BATCH: usize = 32;
    let follower = std::cell::RefCell::new(None);
    g.bench_function("epoch_advance_last", |b| {
        b.iter_with_setup(
            || {
                let data = generate(&Scenario::small(42));
                let epochs = data.longest_chain().div_ceil(BATCH);
                let mut f = Follower::new(data, BATCH);
                for _ in 1..epochs {
                    f.advance().expect("catch-up epoch");
                }
                assert!(!f.head(), "one batch must be left");
                *follower.borrow_mut() = Some(f);
            },
            |()| {
                let mut slot = follower.borrow_mut();
                black_box(slot.as_mut().expect("set up").advance().expect("last epoch"))
            },
        )
    });
    g.finish();
}

criterion_group!(benches, serve);
criterion_main!(benches);
