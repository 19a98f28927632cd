//! `archive/` benches: the persistent segmented block archive.
//!
//! Arms (the `_v2` suffix is the segment schema's number, kept so
//! `bench_diff` lines up with the recorded rows):
//!
//! - `seal_v2` — sealing a dataset into an on-disk corpus (columnar block
//!   encode, LZSS, hashing).
//! - `replay_all_v2` — replaying the sealed corpus's segments (decompress
//!   and hash-verify, decode fanned across the rayon pool).
//! - `cold_start_v2` — a full `pipeline_from_archive`: replay plus
//!   columnar decode plus sidecar rebuild, measured against
//!   `generate_baseline`, the synthetic generator the cold start
//!   substitutes for.
//! - `fleet_cached_vs_uncached/{cached,uncached}` — a shard worker
//!   answering an overlapping assignment set from the corpus with the
//!   decoded-segment LRU warm (every segment decoded once) versus
//!   effectively cold (budget 0: only the newest decode stays resident).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::OnceLock;
use txstat_archive::Archive;
use txstat_reports::{
    generate, pipeline_from_archive, scenario_meta, write_archive, PipelineData, SegmentFormat,
    ShardContext,
};
use txstat_wire::PayloadFormat;
use txstat_workload::Scenario;

const SEGMENT_BLOCKS: u64 = 256;

/// The archived scenario must be a preset `scenario_from_meta` can
/// rebuild on cold start, so the benches use the plain small preset
/// rather than `bench_scenario()`'s customized window.
fn scenario() -> Scenario {
    Scenario::small(42)
}

/// The dataset the corpus holds, generated once per process.
fn dataset() -> &'static PipelineData {
    static DATA: OnceLock<PipelineData> = OnceLock::new();
    DATA.get_or_init(|| generate(&scenario()))
}

fn corpus_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("txstat-bench-archive-{tag}-{}", std::process::id()))
}

/// A sealed corpus of the dataset, written once per process.
fn sealed() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = corpus_dir("sealed");
        let _ = std::fs::remove_dir_all(&dir);
        write_archive(&dir, dataset(), "small", SEGMENT_BLOCKS, SegmentFormat)
            .expect("seal bench corpus");
        dir
    })
}

/// The overlapping assignment set the fleet arms sweep: strided ranges
/// covering the corpus twice over, so a warm cache serves every repeat
/// visit from memory.
fn assignments(total: u64) -> Vec<(u64, u64)> {
    (0..8u64).map(|i| (i * total / 8, ((i + 2) * total / 8).min(total))).collect()
}

fn archive(c: &mut Criterion) {
    let data = dataset();
    let mut g = c.benchmark_group("archive");
    g.sample_size(10);

    g.bench_function("seal_v2", |b| {
        let dir = corpus_dir("seal");
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            black_box(
                write_archive(&dir, data, "small", SEGMENT_BLOCKS, SegmentFormat).expect("seal"),
            );
        });
        let _ = std::fs::remove_dir_all(&dir);
    });

    g.bench_function("replay_all_v2", |b| {
        let dir = sealed();
        b.iter(|| {
            let archive = Archive::open(dir).expect("open corpus");
            black_box(archive.replay_all().expect("replay"));
        });
    });

    g.bench_function("cold_start_v2", |b| {
        let dir = sealed();
        b.iter(|| {
            black_box(pipeline_from_archive(dir).expect("cold start"));
        });
    });

    g.bench_function("generate_baseline", |b| {
        let sc = scenario();
        b.iter(|| {
            black_box(generate(&sc));
        });
    });

    let total = data
        .eos_blocks
        .len()
        .max(data.tezos_blocks.len())
        .max(data.xrp_blocks.len()) as u64;
    let meta = scenario_meta(&data.scenario, "small");
    for (name, cache_mb) in
        [("fleet_cached_vs_uncached/cached", 1024u64), ("fleet_cached_vs_uncached/uncached", 0)]
    {
        g.bench_function(name, |b| {
            let (ctx, _) = ShardContext::from_archive_with(sealed(), cache_mb)
                .expect("cold start worker");
            let ranges = assignments(total);
            // Warm the first pass out of the measurement so the cached
            // arm measures steady-state assignment service.
            for &(a, e) in &ranges {
                ctx.frames(meta.clone(), a, e, 2, PayloadFormat::Bin).expect("warmup sweep");
            }
            b.iter(|| {
                for &(a, e) in &ranges {
                    black_box(
                        ctx.frames(meta.clone(), a, e, 2, PayloadFormat::Bin)
                            .expect("assignment sweep"),
                    );
                }
            });
        });
    }

    g.finish();
    let _ = std::fs::remove_dir_all(sealed());
}

criterion_group!(benches, archive);
criterion_main!(benches);
