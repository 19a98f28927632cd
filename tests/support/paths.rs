//! The path matrix: every way to a report is a row of [`TABLE`]. A row is
//! a [`Source`] of blocks (generated, crawled, sealed at a segment size,
//! under a memo state) crossed with the [`Path`]s a report can take from
//! it (one-shot render, frames reduced in process, follow epochs, a
//! streamed follower, a serve session), over a set of seeds. Each cell
//! must render its seed's one-shot bytes — the report [`fixture::small`]
//! renders, or the source's own pinned bytes — and every epoch before the
//! head the one-shot sweep of its prefix. A failing cell panics with
//! `(source, path, seed)` and why.
//!
//! Each row names the test that runs it ([`Row::view`]): `tests/paths.rs`
//! runs its own rows, and a test other suites are known by runs its rows
//! under its old name through [`view`]. `tests/paths.rs` checks that every
//! row's view exists.

use super::fixture::{self, once, Cells};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use txstat::archive::{IDX_FILE, MEMO_FILE, SEG_FILE};
use txstat::core::{ChainSweeps, EosColumnar, TezosColumnar, XrpColumnar};
use txstat::ingest::EpochCell;
use txstat::reports::{
    generate_with_crawl, pipeline_from_archive, reduce_frames_labeled_into, render_report,
    sample_account_paths, scenario_meta, streamed_from_archive, write_archive, CrawlOptions,
    Follower, MemoStatus, PipelineData, SegmentFormat, ServeSnapshot, ShardContext, StatsService,
    SECTIONS,
};
use txstat::types::ids::fnv1a64;
use txstat::wire::PayloadFormat;
use txstat::workload::Scenario;

/// Where a report's blocks come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// `generate` (`report`).
    Generated,
    /// The generated chains with every k-th block kept, no chain longer
    /// than this: the whole window, short enough for an epoch per block.
    Thinned(usize),
    /// `generate_with_crawl` keeping its blocks (`report --crawl`).
    Crawled,
    /// The crawled blocks and sidecar sealed at 256 positions a segment
    /// (`archive --crawl`, then `--archive`).
    CrawledCorpus,
    /// The generated chains sealed at this many positions a segment, with
    /// no `archive.memo` yet: the memo-cold state every `--archive` path
    /// fills.
    Archived(u64),
    /// Sealed at 256 with `archive.memo` filled by an earlier run.
    MemoWarm,
    /// Sealed at 256 with one bit of the filled memo flipped.
    MemoDamaged,
    /// `Thinned(120)` cut to 80 EOS and 40 XRP blocks (Tezos keeps 118),
    /// sealed at this many positions a segment: short enough for batches
    /// inside one segment, straddling two, longer than a segment or than
    /// the corpus, and epochs past the heads of the shorter chains.
    Cut(u64),
}

/// What a report is read through.
#[derive(Debug, Clone, Copy)]
pub enum Path {
    /// The source's dataset rendered whole (`report`, `report --archive`).
    OneShot,
    /// Frames of each chunk of the positions tiled evenly into this many
    /// chunks, swept by a worker context over the source and reduced in
    /// process into a fresh (over a corpus: block-free) dataset.
    Frames(&'static [u64]),
    /// A follower over the held blocks at each batch (`follow`); [`ALL`]
    /// is one batch of the longest chain.
    Follow(&'static [usize]),
    /// A follower decoding the corpus's segments as its batches reach
    /// them (`serve --archive`).
    Streamed(&'static [usize]),
    /// A serve session at this batch reading every route at every epoch:
    /// each new epoch carries exactly the routes, views and section parts
    /// that read no chain the advance moved.
    Served(usize),
}

/// The batch of one epoch for the whole corpus.
const ALL: usize = 0;

/// What the bytes of a row's one-shot report must be.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// The seed's one-shot report (the generated fixture's).
    OneShot,
    /// The seed's one-shot report with Figure 2's crawl paragraph (the
    /// endpoint counts) after its table, pinned as `(seed, length,
    /// fnv1a64)`.
    Crawl(&'static [(u64, usize, u64)]),
}

/// One source, the paths taken from it and the seeds, run by the test
/// named `view`.
pub struct Row {
    pub view: &'static str,
    pub source: Source,
    pub paths: &'static [Path],
    pub seeds: &'static [u64],
    pub expect: Expect,
}

const fn row(
    view: &'static str,
    source: Source,
    paths: &'static [Path],
    seeds: &'static [u64],
) -> Row {
    Row {
        view,
        source,
        paths,
        seeds,
        expect: Expect::OneShot,
    }
}

const SEEDS: &[u64] = &[1, 7, 42];
/// A crawl costs ~3 s of CPU in a debug build: the crawl rows run at CI's
/// crawl seed only.
const CRAWL_SEEDS: &[u64] = &[7];
const TILINGS: &[u64] = &[1, 3, 8];
const CUT_BATCHES: &[usize] = &[1, 5, 32, 300];

use Path::*;
use Source::*;

/// Every way to a report.
pub const TABLE: &[Row] = &[
    row(
        "paths::generated",
        Generated,
        &[OneShot, Frames(TILINGS), Served(1024)],
        SEEDS,
    ),
    Row {
        expect: Expect::Crawl(&[(7, 16647, 0xf2fdada7be86ab04)]),
        ..row("paths::crawled", Crawled, &[OneShot], CRAWL_SEEDS)
    },
    row(
        "paths::crawled",
        CrawledCorpus,
        &[OneShot, Frames(&[3])],
        CRAWL_SEEDS,
    ),
    row(
        "paths::archived_256",
        Archived(256),
        &[OneShot, Frames(TILINGS), Follow(&[1024]), Streamed(&[1024])],
        SEEDS,
    ),
    row(
        "paths::archived_97",
        Archived(97),
        &[OneShot, Frames(&[3, 13]), Streamed(&[1024])],
        SEEDS,
    ),
    row(
        "paths::archived_1",
        Archived(1),
        &[OneShot, Streamed(&[1024])],
        SEEDS,
    ),
    row(
        "paths::memo",
        MemoWarm,
        &[OneShot, Frames(&[3]), Streamed(&[1024])],
        SEEDS,
    ),
    row(
        "paths::memo",
        MemoDamaged,
        &[OneShot, Frames(&[3]), Streamed(&[1024])],
        SEEDS,
    ),
    row(
        "serve_query::every_epoch_equals_the_one_shot_sweep_of_its_prefix",
        Generated,
        &[Follow(&[32, ALL])],
        SEEDS,
    ),
    row(
        "serve_query::every_epoch_equals_the_one_shot_sweep_of_its_prefix",
        Thinned(200),
        &[Follow(&[1, 7])],
        SEEDS,
    ),
    row(
        "serve_query::every_epoch_of_a_streamed_follower_is_the_held_followers",
        Cut(1),
        &[Streamed(CUT_BATCHES)],
        &[7],
    ),
    row(
        "serve_query::every_epoch_of_a_streamed_follower_is_the_held_followers",
        Cut(7),
        &[Streamed(CUT_BATCHES)],
        &[7],
    ),
    row(
        "serve_query::every_epoch_of_a_streamed_follower_is_the_held_followers",
        Cut(64),
        &[Streamed(CUT_BATCHES)],
        &[7],
    ),
    row(
        "serve_query::every_epoch_of_a_streamed_follower_is_the_held_followers",
        Cut(256),
        &[Streamed(CUT_BATCHES)],
        &[7],
    ),
    row(
        "serve_query::a_serve_session_carries_what_did_not_move_and_serves_the_one_shot_bytes",
        Generated,
        &[Served(64)],
        &[7],
    ),
    row(
        "serve_query::an_archived_serve_session_carries_and_serves_what_a_held_one_does",
        Archived(256),
        &[Served(64)],
        &[7],
    ),
];

/// Run every row of [`TABLE`] whose view is `name`, every cell even after
/// one fails; then fail with one line per failed cell.
pub fn view(name: &str) {
    let rows: Vec<&Row> = TABLE.iter().filter(|r| r.view == name).collect();
    assert!(
        !rows.is_empty(),
        "no row of the path matrix is viewed as {name}"
    );
    let mut failed = Vec::new();
    for row in rows {
        for &path in row.paths {
            for &seed in row.seeds {
                failed.extend(run(row, path, seed));
            }
        }
    }
    assert!(
        failed.is_empty(),
        "{} cells failed:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

/// The cell of `source` read through `path` at `seed` outside [`TABLE`],
/// for a test that draws the cells it runs.
pub fn check(source: Source, path: Path, seed: u64) {
    if let Some(failed) = run(&row("", source, &[], &[]), path, seed) {
        panic!("{failed}");
    }
}

/// One cell, its panic caught: `(source, path, seed): why` on one line.
fn run(row: &Row, path: Path, seed: u64) -> Option<String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| cell(row, path, seed)));
    for dir in CORPORA.with(|dirs| dirs.take()) {
        let _ = std::fs::remove_dir_all(dir);
    }
    let why = outcome.err()?;
    let why = why
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| why.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
        .replace('\n', " ");
    Some(format!("({:?}, {path:?}, seed {seed}): {why}", row.source))
}

/// One cell: `row`'s source read through `path` at `seed`.
fn cell(row: &Row, path: Path, seed: u64) {
    let source = row.source;
    let want = oracle(row, seed);
    let status = match path {
        // The crawl's one-shot render is its oracle, checked above.
        OneShot if source == Crawled => None,
        OneShot => {
            let data = held(source, seed);
            if let Some(seg) = segment_blocks(source) {
                let lens_of = |d: &PipelineData| {
                    [d.eos_blocks.len(), d.tezos_blocks.len(), d.xrp_blocks.len()]
                };
                let lens = lens_of(chains(source, seed));
                assert_eq!(lens_of(&data), lens, "replayed chain lengths");
                let corpus = data
                    .memo_status()
                    .expect("an archived dataset has a memo status");
                let longest = lens.into_iter().max().unwrap_or(0);
                assert_eq!(
                    corpus.segments as u64,
                    (longest as u64).div_ceil(seg),
                    "segments"
                );
            }
            assert!(render_report(&data) == want, "the one-shot report differs");
            data.memo_status()
        }
        Frames(tilings) => frames(source, seed, tilings, want),
        Follow(batches) | Streamed(batches) => {
            let mut status = None;
            for &batch in batches {
                let data = match path {
                    Follow(_) => held(source, seed),
                    _ => streamed(source, seed),
                };
                let batch = if batch == ALL {
                    data.longest_chain()
                } else {
                    batch
                };
                let follower = follow(Follower::new(data, batch), batch, row, seed, want);
                status = status.or(follower.base().memo_status());
            }
            status
        }
        Served(batch) => {
            let data = match source {
                Generated => held(source, seed),
                _ => streamed(source, seed),
            };
            let follower = serve(Follower::new(data, batch), batch, row, seed, want);
            follower.base().memo_status()
        }
    };
    if let Some(hits) = memo_hits(source) {
        let status = status.expect("an archived dataset has a memo status");
        let segments = status.segments;
        assert_eq!(
            (status.hits, status.memoized, status.write_error),
            (hits.unwrap_or(segments), segments, None),
            "memo hits, memoized segments and write error"
        );
    }
}

/// The bytes every path of `row` renders at its head, checked against
/// the row's [`Expect`] once per seed.
fn oracle(row: &Row, seed: u64) -> &'static str {
    static CELLS: Cells<(Source, u64), String> = Mutex::new(None);
    let report = once(&CELLS, (family(row.source), seed), || match row.source {
        Crawled => render_report(crawled(seed)),
        CrawledCorpus => render_report(&held(CrawledCorpus, seed)),
        _ => render_report(chains(row.source, seed)),
    });
    let one_shot = fixture::small(seed).report();
    match row.expect {
        // A thinned or cut corpus is other chains: its one-shot report is
        // its own.
        Expect::OneShot if matches!(row.source, Thinned(_) | Cut(_)) => {}
        Expect::OneShot => assert!(report == one_shot, "not the seed's one-shot report"),
        Expect::Crawl(pins) => {
            let pin = pins
                .iter()
                .find(|p| p.0 == seed)
                .expect("a pin for every seed");
            let got = (seed, report.len(), fnv1a64(report.as_bytes()));
            assert_eq!(got, *pin, "pinned crawl report");
            let paragraph = report
                .find("\nEOS endpoints: ")
                .expect("the crawl paragraph");
            let end = paragraph + report[paragraph + 1..].find('\n').expect("its line end") + 2;
            assert!(
                [&report[..paragraph], &report[end..]].concat() == *one_shot,
                "beyond the crawl paragraph, not the seed's one-shot report"
            );
        }
    }
    report
}

/// The crawl of small `seed`, keeping its blocks.
fn crawled(seed: u64) -> &'static PipelineData {
    static CELLS: Cells<u64, PipelineData> = Mutex::new(None);
    once(&CELLS, seed, || {
        generate_with_crawl(&Scenario::small(seed), &CrawlOptions::default(), true).expect("crawl")
    })
}

/// The sources whose blocks and sidecar are the same: the generated
/// chains, sealed or not; one cut corpus at any segment size.
fn family(source: Source) -> Source {
    match source {
        Archived(_) | MemoWarm | MemoDamaged => Generated,
        Cut(_) => Cut(0),
        other => other,
    }
}

/// The held chains of `source`: what its corpus seals and what each
/// epoch's one-shot prefix is swept from.
fn chains(source: Source, seed: u64) -> &'static PipelineData {
    static CELLS: Cells<(Source, u64), PipelineData> = Mutex::new(None);
    match family(source) {
        Generated => &fixture::small(seed).data,
        Crawled | CrawledCorpus => crawled(seed),
        family => once(&CELLS, (family, seed), || match family {
            Thinned(cap) => thinned(fixture::small(seed).fresh(), cap),
            _ => {
                let mut data = thinned(fixture::small(seed).fresh(), 120);
                data.eos_blocks = Arc::new(data.eos_blocks[..80].to_vec());
                data.xrp_blocks = Arc::new(data.xrp_blocks[..40].to_vec());
                data
            }
        }),
    }
}

/// Keep every k-th block of each chain so that none is longer than `cap`:
/// a corpus that still spans the whole window (block numbers stay
/// ascending) but is short enough to publish an epoch per block.
pub fn thinned(mut data: PipelineData, cap: usize) -> PipelineData {
    fn every_kth<B: Clone>(blocks: &[B], cap: usize) -> Arc<Vec<B>> {
        Arc::new(
            blocks
                .iter()
                .step_by(blocks.len().div_ceil(cap).max(1))
                .cloned()
                .collect(),
        )
    }
    data.eos_blocks = every_kth(&data.eos_blocks, cap);
    data.tezos_blocks = every_kth(&data.tezos_blocks, cap);
    data.xrp_blocks = every_kth(&data.xrp_blocks, cap);
    data
}

fn segment_blocks(source: Source) -> Option<u64> {
    match source {
        Archived(seg) | Cut(seg) => Some(seg),
        CrawledCorpus | MemoWarm | MemoDamaged => Some(256),
        _ => None,
    }
}

/// The memo hits each source's first facts resolution must count (`None`:
/// every segment), for the sources whose memo state is part of the row.
fn memo_hits(source: Source) -> Option<Option<usize>> {
    match source {
        Archived(_) | Cut(_) | MemoDamaged => Some(Some(0)),
        MemoWarm => Some(None),
        _ => None,
    }
}

/// An owned dataset holding `source`'s blocks, nothing computed.
fn held(source: Source, seed: u64) -> PipelineData {
    match source {
        Generated => fixture::small(seed).fresh(),
        Thinned(cap) => thinned(fixture::small(seed).fresh(), cap),
        Crawled => panic!("a crawl is one-shot only"),
        _ => {
            pipeline_from_archive(&corpus(source, seed))
                .expect("cold start")
                .0
        }
    }
}

/// `source`'s block-free dataset over its corpus.
fn streamed(source: Source, seed: u64) -> PipelineData {
    let (data, _) = streamed_from_archive(&corpus(source, seed)).expect("block-free cold start");
    let held = data.eos_blocks.len() + data.tezos_blocks.len() + data.xrp_blocks.len();
    assert_eq!(held, 0, "a streamed dataset holds no block");
    data
}

thread_local! {
    /// The corpus directories the running cell wrote, removed after it.
    static CORPORA: RefCell<Vec<PathBuf>> = const { RefCell::new(Vec::new()) };
}

/// A private copy of `source`'s corpus, its memo in the source's state,
/// removed once the cell is done.
fn corpus(source: Source, seed: u64) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let seg = segment_blocks(source).expect("a sealed source");
    let tag = format!("{seg}-{seed}-{}", NEXT.fetch_add(1, Ordering::Relaxed));
    let dir = super::tempdir("paths", &tag);
    CORPORA.with(|dirs| dirs.borrow_mut().push(dir.clone()));
    std::fs::create_dir_all(&dir).expect("corpus dir");
    for (name, bytes) in sealed(family(source), seg, seed) {
        std::fs::write(dir.join(name), bytes).expect("write corpus");
    }
    let memo = dir.join(MEMO_FILE);
    match source {
        MemoWarm => std::fs::write(memo, healthy_memo(seed)),
        MemoDamaged => {
            let mut bytes = healthy_memo(seed).clone();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(memo, bytes)
        }
        _ => Ok(()),
    }
    .expect("plant memo");
    dir
}

/// The two files of a sealed corpus, by name.
type Files = [(&'static str, Vec<u8>); 2];

/// The files of the chains of `family` at small `seed` sealed at `seg`.
fn sealed(family: Source, seg: u64, seed: u64) -> &'static Files {
    static CELLS: Cells<(Source, u64, u64), Files> = Mutex::new(None);
    once(&CELLS, (family, seg, seed), || {
        let dir = super::tempdir("paths", &format!("sealed-{family:?}-{seg}-{seed}"));
        let data = chains(family, seed);
        write_archive(&dir, data, "small", seg, SegmentFormat).expect("seal");
        let files = [IDX_FILE, SEG_FILE]
            .map(|name| (name, std::fs::read(dir.join(name)).expect("read corpus")));
        let _ = std::fs::remove_dir_all(&dir);
        files
    })
}

/// The `archive.memo` a first block-free cold start of small `seed`, sealed
/// at 256, writes.
fn healthy_memo(seed: u64) -> &'static Vec<u8> {
    static CELLS: Cells<u64, Vec<u8>> = Mutex::new(None);
    once(&CELLS, seed, || {
        let dir = corpus(Archived(256), seed);
        let (data, _) = streamed_from_archive(&dir).expect("block-free cold start");
        data.check_facts().expect("facts resolve");
        std::fs::read(dir.join(MEMO_FILE)).expect("the memo is written")
    })
}

/// [`Path::Frames`]: reduce each tiling's frames and render.
fn frames(source: Source, seed: u64, tilings: &[u64], want: &str) -> Option<MemoStatus> {
    let sealed = segment_blocks(source).is_some();
    let (ctx, meta, dir) = if sealed {
        let dir = corpus(source, seed);
        let (ctx, manifest) = ShardContext::from_archive(&dir).expect("worker cold start");
        (ctx, manifest.meta, Some(dir))
    } else {
        let data = held(source, seed);
        let meta = scenario_meta(&data.scenario, "small");
        (ShardContext::from(data), meta, None)
    };
    let total = ctx.total_blocks();
    let mut status = None;
    for &chunks in tilings {
        let mut labeled = Vec::new();
        for i in 0..chunks {
            let (lo, hi) = (total * i / chunks, total * (i + 1) / chunks);
            let frames = ctx.frames(meta.clone(), lo, hi, 1, PayloadFormat::Bin);
            let frames = frames.unwrap_or_else(|e| panic!("[{lo}, {hi}): {e}"));
            labeled.extend(frames.into_iter().map(|f| (format!("[{lo}, {hi})"), f)));
        }
        let into = match &dir {
            Some(dir) => streamed_from_archive(dir).expect("block-free cold start").0,
            None => held(source, seed),
        };
        let reduced = reduce_frames_labeled_into(into, &labeled).expect("reduce");
        assert!(
            render_report(&reduced) == want,
            "{chunks} chunks: the report differs"
        );
        status = status.or(reduced.memo_status());
    }
    status
}

/// A query service over one published snapshot of `data`.
pub fn service_over(
    data: PipelineData,
    head: bool,
) -> (Arc<StatsService>, Arc<EpochCell<ServeSnapshot>>) {
    let cell = Arc::new(EpochCell::new(Arc::new(ServeSnapshot::new(1, head, data))));
    (Arc::new(StatsService::new(cell.clone())), cell)
}

/// The dataset a one-shot sweep of the first `(eos, tezos, xrp)` blocks of
/// `base` renders from — the oracle for an epoch of that coverage.
pub fn one_shot_prefix(base: &PipelineData, (e, t, x): (u64, u64, u64)) -> PipelineData {
    let period = base.scenario.period;
    base.fork_with_sweeps(ChainSweeps {
        eos: EosColumnar::compute(&base.eos_blocks[..e as usize], period),
        tezos: TezosColumnar::compute(
            &base.tezos_blocks[..t as usize],
            period,
            &base.governance_periods,
        ),
        xrp: XrpColumnar::compute(&base.xrp_blocks[..x as usize], period, &base.oracle),
    })
}

/// `(route, status, body)` of every route an epoch is read at.
type Routes = Vec<(String, u16, Vec<u8>)>;

/// The blocks `(eos, tezos, xrp)` an epoch has observed.
type Coverage = (u64, u64, u64);

/// The routes of the one-shot sweep of `source`'s prefix `at`: every
/// section and the comparison, the busiest account of each chain in the
/// prefix (present) and in the whole (maybe not yet), then `/report`.
fn prefix_routes(source: Source, seed: u64, at: Coverage) -> Arc<Routes> {
    static CELLS: Cells<(Source, u64, Coverage), Arc<Routes>> = Mutex::new(None);
    Arc::clone(once(&CELLS, (family(source), seed, at), || {
        let base = chains(source, seed);
        let prefix = one_shot_prefix(base, at);
        let present = sample_account_paths(&prefix);
        let mut paths = route_paths(sample_account_paths(base));
        for account in present.iter().rev() {
            if !paths.contains(account) {
                paths.insert(paths.len() - 1, account.clone());
            }
        }
        let (service, _) = service_over(prefix, false);
        let routes: Routes = paths
            .into_iter()
            .map(|path| {
                let reply = service.respond("GET", &path);
                (path, reply.status, reply.body)
            })
            .collect();
        for (path, status, _) in &routes {
            assert!(
                *status == 200 || !present.contains(path),
                "the oracle lacks {path}"
            );
        }
        Arc::new(routes)
    }))
}

/// Every section route, the comparison, `accounts`, then `/report`.
fn route_paths(accounts: Vec<String>) -> Vec<String> {
    let sections = SECTIONS.iter().map(|(name, _)| name).chain(&["comparison"]);
    let mut paths: Vec<String> = sections.map(|name| format!("/exhibit/{name}")).collect();
    paths.extend(accounts);
    paths.push("/report".to_owned());
    paths
}

/// Each of `routes` read from `service` answers the oracle's status and bytes.
fn assert_routes(service: &StatsService, routes: &Routes, what: &str) {
    for (path, status, body) in routes {
        let got = service.respond("GET", path);
        assert_eq!(got.status, *status, "{what}: {path}");
        assert!(got.body == *body, "{what}: {path} diverged");
    }
}

/// The sum of an `(eos, tezos, xrp)` coverage.
fn blocks((e, t, x): Coverage) -> u64 {
    e + t + x
}

/// [`Path::Follow`] and [`Path::Streamed`]: every epoch to the head is the
/// one-shot sweep of its prefix and covers more than the one before; the
/// head renders `want`, in as many epochs as the longest chain takes, and
/// only the first epoch had no retired copy to fold into.
fn follow(mut follower: Follower, batch: usize, row: &Row, seed: u64, want: &str) -> Follower {
    let (mut epochs, mut report) = (0u64, Vec::new());
    while !follower.head() {
        let before = follower.observed();
        epochs += 1;
        let fork = follower.advance().expect("advance");
        let at = follower.observed();
        assert!(
            blocks(at) > blocks(before),
            "epoch {epochs} observed nothing new"
        );
        let (service, _) = service_over(fork, follower.head());
        assert_routes(
            &service,
            &prefix_routes(row.source, seed, at),
            &format!("epoch {epochs} at {at:?}"),
        );
        report = service.respond("GET", "/report").body;
    }
    assert_eq!(
        epochs as usize,
        follower.base().longest_chain().div_ceil(batch),
        "epochs"
    );
    assert_eq!(
        follower.snapshots(),
        (epochs - 1, 1),
        "reclaimed and cloned snapshots"
    );
    assert!(report == want.as_bytes(), "the report at the head differs");
    follower
}

/// [`Path::Served`]: a serve session that reads every route at every
/// epoch against the one-shot render of the observed prefix, although
/// each epoch after the first starts from what the epoch before cached.
/// What a new epoch carries is what reads only chains the advance did not
/// move: Figures 2 and 11 and the headline's dropped-transaction line
/// always; a chain's three sections, its account route, its shared views
/// and its section parts once the chain stands at its head. Nothing read
/// holds a retired snapshot, so the follower clones only its first epoch.
fn serve(mut follower: Follower, batch: usize, row: &Row, seed: u64, want: &str) -> Follower {
    let first = follower.advance().expect("first epoch");
    let (service, _cell) = service_over(first, follower.head());
    let accounts = sample_account_paths(chains(row.source, seed));
    let paths = route_paths(accounts);
    assert_eq!(paths.len(), 18, "{paths:?}");
    let (xrp_routes, eos_routes) = (
        ["fig7", "fig8", "fig12"].len() + 1,
        ["fig4", "fig5", "case_studies"].len() + 1,
    );
    // The views and parts of each chain; the headline's dropped-transaction
    // line reads none.
    let xrp_views = ["value_flow", "most_active", "concentration"].len()
        + ["headline/economic_share", "fig1/xrp", "fig3/c"].len();
    let eos_views = ["eos_category_series", "wash_report"].len()
        + ["headline/boomerang", "fig1/eos", "fig3/a"].len();
    let mut epoch = 1;
    loop {
        let oracle = prefix_routes(row.source, seed, follower.observed());
        for path in &paths {
            let (_, status, body) = oracle
                .iter()
                .find(|(p, ..)| p == path)
                .expect("an oracle route");
            let got = service.respond("GET", path);
            // An account not yet seen is a 404 on both sides, never cached.
            assert_eq!(got.status, *status, "epoch {epoch}: {path}");
            assert!(got.body == *body, "epoch {epoch}: {path} diverged");
            assert!(*status == 200 || !follower.head(), "{path} at the head");
        }
        if follower.head() {
            let report = service.respond("GET", "/report").body;
            assert!(report == want.as_bytes(), "the report at the head differs");
            break;
        }
        let (carried, views, before) = (
            service.cache_carried.get(),
            service.views_carried.get(),
            follower.observed(),
        );
        epoch = service.publish_next(&mut follower).expect("advance");
        let after = follower.observed();
        assert!(
            after.1 > before.1,
            "epoch {epoch}: Tezos, the longest chain, did not move"
        );
        let (eos_still, xrp_still) = (after.0 == before.0, after.2 == before.2);
        let want_routes =
            2 + usize::from(xrp_still) * xrp_routes + usize::from(eos_still) * eos_routes;
        let want_views =
            1 + usize::from(xrp_still) * xrp_views + usize::from(eos_still) * eos_views;
        assert_eq!(
            service.cache_carried.get() - carried,
            want_routes as u64,
            "epoch {epoch} carried"
        );
        assert_eq!(
            service.views_carried.get() - views,
            want_views as u64,
            "epoch {epoch} carried views and parts"
        );
    }
    assert_eq!(
        epoch as usize,
        follower.base().longest_chain().div_ceil(batch),
        "epochs"
    );
    assert_eq!(
        follower.snapshots(),
        (epoch - 1, 1),
        "reclaimed and cloned snapshots"
    );
    follower
}
