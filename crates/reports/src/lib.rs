//! # txstat-reports — regenerating every exhibit of the paper
//!
//! [`pipeline`] assembles the dataset (directly or through the full RPC
//! crawl), [`exhibits`] renders each table and figure, [`paper`] produces
//! the paper-vs-measured comparison every report ends with, [`follow`]
//! replays the chains batch by batch (the one follower behind `reproduce
//! follow` and `reproduce serve`), and [`serve`] wraps it all in an
//! epoch-swapped long-lived query service. Each of those two subcommands
//! is one library call: [`follow_session`], [`serve_session`].

pub mod archive_io;
pub mod exhibits;
pub mod follow;
pub mod paper;
pub mod pipeline;
pub mod serve;

pub use exhibits::{
    comparison_section, render_all, render_report, report_sections, SECTIONS, SECTION_BREAK,
};
pub use paper::{comparison, render_comparison, ComparisonRow};
pub use follow::{
    follow_session, reorg_data, Corpus, FollowPlan, Followed, Follower, Reorg, Resync,
    DEFAULT_SNAPSHOT_WINDOW,
};
pub use serve::{
    sample_account_paths, serve_session, ServeLine, ServePlan, ServeSnapshot, StatsService,
};
pub use archive_io::{Bounds, Manifest, SegmentFormat, SegmentSummary, Sidecar, SUMMARY_SCHEMA};
pub use pipeline::{
    generate, generate_with_crawl, generate_with_crawl_streamed, pipeline_from_archive,
    reduce_frames_labeled_into, reducer_from_archive, scenario_from_meta, scenario_meta,
    summarize, write_archive, ArchiveStats, ChainStreamInfo, ChainSweeps, CrawlOptions,
    MemoStatus, PipelineData, ShardContext, StreamSummary,
};

#[cfg(test)]
mod tests;
