//! Sharded streaming fold: route numbered blocks onto worker-private sweep
//! accumulators, merge the shards when the stream ends.
//!
//! Every chain accumulator in `txstat_core` is a commutative monoid over
//! block observations (`identity / observe / merge` with all merged state in
//! exactly-mergeable integer domains), so folding blocks into per-shard
//! accumulators in *arrival* order and merging the shards in *index* order
//! produces the same finalized statistics as [`txstat_core::par_sweep`] over
//! the materialized slice — the equivalence suite in
//! `tests/property_suite.rs` pins this for random shard counts and channel
//! capacities (driving the pool with the scalar reference fold
//! `*Sweep::observe`; `tests/streamed_ingest.rs` pins the streamed columnar
//! report end to end).
//!
//! Topology (one instance per chain):
//!
//! ```text
//!  source workers ──▶ Sink::send(n, block) ──▶ channel[n % shards] ──▶ shard worker s
//!                                              (bounded, gauged)        fold observe()
//!                                                                            │
//!                                   ShardPool::finish():  merge shards in index order
//! ```

use crate::channel::{bounded, GaugeSnapshot, Receiver, Sender};
use std::sync::Arc;
use tokio::task::JoinHandle;
use txstat_telemetry::{Counter, Span};

/// Ingestion tuning: how many shard workers fold in parallel and how many
/// blocks each shard channel may buffer before producers stall.
#[derive(Debug, Clone, Copy)]
pub struct IngestOptions {
    pub shards: usize,
    pub channel_capacity: usize,
    /// Telemetry label for this pool (conventionally the chain name).
    /// Non-empty: folds count into the global registry's
    /// `txstat_ingest_blocks_folded_total{chain=label}` and shard workers
    /// trace `ingest_shard_fold` spans. Empty: the pool stays unregistered
    /// (private counter, no metric series) — right for anonymous pools in
    /// tests and benches.
    pub label: &'static str,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions { shards: 4, channel_capacity: 128, label: "" }
    }
}

/// The producer-facing half: routes `(n, block)` to shard `n % shards`.
/// Cloneable so concurrent crawl workers can feed the same pool; the pool
/// sees end-of-stream once every clone has dropped.
pub struct Sink<B> {
    senders: Vec<Sender<(u64, B)>>,
}

impl<B> Clone for Sink<B> {
    fn clone(&self) -> Self {
        Sink { senders: self.senders.clone() }
    }
}

impl<B: Send + 'static> Sink<B> {
    /// Route one numbered block to its shard, stalling on a full channel.
    /// `Err` returns the block if the pool was torn down.
    pub async fn send(&self, n: u64, block: B) -> Result<(), B> {
        let shard = (n % self.senders.len() as u64) as usize;
        self.senders[shard].send((n, block)).await.map_err(|(_, b)| b)
    }
}

/// The consumer half: one spawned worker per shard, each folding its
/// channel into a private accumulator. Gauges are captured as closures so
/// the handle does not carry the channel item type.
pub struct ShardPoolHandle<A> {
    workers: Vec<JoinHandle<(A, u64)>>,
    gauge_fns: Vec<Box<dyn Fn() -> GaugeSnapshot + Send>>,
}

/// Everything the reducer knows when the stream ends: the per-shard
/// accumulators (in shard order), per-shard observation counts, and the
/// backpressure gauges of every shard channel.
pub struct IngestOutcome<A> {
    pub shards: Vec<A>,
    pub observed: Vec<u64>,
    pub gauges: Vec<GaugeSnapshot>,
}

impl<A> IngestOutcome<A> {
    /// Total blocks folded across all shards.
    pub fn total_observed(&self) -> u64 {
        self.observed.iter().sum()
    }

    /// Merge the shard accumulators in shard-index order.
    pub fn merged(self, mut merge: impl FnMut(&mut A, A)) -> A {
        let mut it = self.shards.into_iter();
        let mut acc = it.next().expect("at least one shard");
        for other in it {
            merge(&mut acc, other);
        }
        acc
    }

    /// The highest channel high-water mark across shards — the peak number
    /// of blocks the whole pool ever had buffered per shard.
    pub fn peak_buffered(&self) -> u64 {
        self.gauges.iter().map(|g| g.high_water).max().unwrap_or(0)
    }
}

/// Spawn `shards` fold workers, each with a private accumulator built by
/// `identity` and fed through `observe`. Returns the routing [`Sink`] and a
/// handle to await the shard accumulators once every sink clone dropped.
pub fn spawn_sharded<B, A, I, O>(
    opts: IngestOptions,
    identity: I,
    observe: O,
) -> (Sink<B>, ShardPoolHandle<A>)
where
    B: Send + 'static,
    A: Send + 'static,
    I: Fn() -> A + Send + Sync + 'static,
    O: Fn(&mut A, u64, &B) + Send + Sync + 'static,
{
    let shards = opts.shards.max(1);
    let identity = Arc::new(identity);
    let observe = Arc::new(observe);
    // Resolve the fold counter once, outside the per-block hot loop:
    // labeled pools share the registry series, anonymous pools get a
    // private (unexported) counter.
    let folded: Arc<Counter> = if opts.label.is_empty() {
        Arc::new(Counter::new())
    } else {
        txstat_telemetry::registry().counter_with(
            "txstat_ingest_blocks_folded_total",
            "Blocks folded by sharded ingest workers",
            &[("chain", opts.label)],
        )
    };
    let mut senders = Vec::with_capacity(shards);
    let mut workers = Vec::with_capacity(shards);
    let mut gauge_fns: Vec<Box<dyn Fn() -> GaugeSnapshot + Send>> = Vec::with_capacity(shards);
    for shard in 0..shards {
        let (tx, rx, gauge) = bounded::<(u64, B)>(opts.channel_capacity);
        senders.push(tx);
        gauge_fns.push(Box::new(move || gauge.snapshot()));
        let identity = identity.clone();
        let observe = observe.clone();
        let folded = folded.clone();
        let label = if opts.label.is_empty() {
            String::new()
        } else {
            format!("{}/{shard}", opts.label)
        };
        workers.push(tokio::spawn(worker_loop(rx, identity, observe, label, folded)));
    }
    (Sink { senders }, ShardPoolHandle { workers, gauge_fns })
}

async fn worker_loop<B, A>(
    mut rx: Receiver<(u64, B)>,
    identity: Arc<impl Fn() -> A>,
    observe: Arc<impl Fn(&mut A, u64, &B)>,
    label: String,
    folded: Arc<Counter>,
) -> (A, u64) {
    // One span covers the worker's whole fold (first recv to stream end);
    // per-block spans would out-cost the observe() they measure.
    let _span = Span::enter("ingest_shard_fold", &label);
    let mut acc = identity();
    let mut observed = 0u64;
    while let Some((n, block)) = rx.recv().await {
        observe(&mut acc, n, &block);
        observed += 1;
        folded.inc();
    }
    (acc, observed)
}

impl<A: Send + 'static> ShardPoolHandle<A> {
    /// Await every shard worker (the stream must have ended: all [`Sink`]
    /// clones dropped) and collect the outcome.
    pub async fn finish(self) -> IngestOutcome<A> {
        let mut shards = Vec::with_capacity(self.workers.len());
        let mut observed = Vec::with_capacity(self.workers.len());
        for w in self.workers {
            let (acc, n) = w.await.expect("shard worker panicked");
            shards.push(acc);
            observed.push(n);
        }
        let gauges = self.gauge_fns.iter().map(|g| g()).collect();
        IngestOutcome { shards, observed, gauges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_sum_equals_sequential() {
        tokio::runtime::block_on(async {
            let opts = IngestOptions { shards: 3, channel_capacity: 4, label: "" };
            let (sink, pool) =
                spawn_sharded(opts, || 0u64, |acc: &mut u64, _n, b: &u64| *acc += *b);
            for (n, v) in (0u64..1000).enumerate() {
                sink.send(n as u64, v * 3).await.unwrap();
            }
            drop(sink);
            let out = pool.finish().await;
            assert_eq!(out.total_observed(), 1000);
            assert_eq!(out.shards.len(), 3);
            let total = out.merged(|a, b| *a += b);
            assert_eq!(total, (0u64..1000).map(|v| v * 3).sum::<u64>());
        });
    }

    #[test]
    fn routing_is_by_residue_class() {
        tokio::runtime::block_on(async {
            let opts = IngestOptions { shards: 4, channel_capacity: 8, label: "" };
            let (sink, pool) = spawn_sharded(
                opts,
                Vec::new,
                |acc: &mut Vec<u64>, n, _b: &()| acc.push(n),
            );
            for n in 0..40u64 {
                sink.send(n, ()).await.unwrap();
            }
            drop(sink);
            let out = pool.finish().await;
            for (shard, ns) in out.shards.iter().enumerate() {
                assert!(ns.iter().all(|n| (*n % 4) as usize == shard));
                assert_eq!(ns.len(), 10);
            }
        });
    }

    #[test]
    fn gauges_report_bounded_buffering() {
        tokio::runtime::block_on(async {
            let opts = IngestOptions { shards: 2, channel_capacity: 2, label: "" };
            let (sink, pool) =
                spawn_sharded(opts, || 0u64, |acc: &mut u64, _n, _b: &u64| *acc += 1);
            for n in 0..100u64 {
                sink.send(n, n).await.unwrap();
            }
            drop(sink);
            let out = pool.finish().await;
            assert!(out.peak_buffered() <= 2);
            assert_eq!(out.total_observed(), 100);
        });
    }
}
