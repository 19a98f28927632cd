//! Tezos analytics: the Figure 1 operation taxonomy, Figure 3b consensus
//! vs payment throughput, Figure 6 sender-dispersion table, and the
//! Figure 9 / §4.2 governance vote curves — the shared vocabulary and
//! result types, and [`TezosSweep`]: the finalized state
//! [`crate::columnar::TezosColumnar`] emits, with its merge, its accessors
//! and the scalar reference fold.

use std::collections::HashMap;
use txstat_tezos::address::Address;
use txstat_tezos::chain::TezosBlock;
use txstat_tezos::governance::PeriodKind;
use txstat_tezos::ops::{OpPayload, OperationKind, Vote};
use txstat_types::series::BucketSeries;
use txstat_types::stats::{RunningStats, TopK};
use txstat_types::time::{ChainTime, Period, SIX_HOURS};

/// Figure 1 Tezos row classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TezosOpClass {
    P2pTransaction,
    AccountAction,
    OtherAction,
}

impl TezosOpClass {
    pub const fn label(self) -> &'static str {
        match self {
            TezosOpClass::P2pTransaction => "P2P transaction",
            TezosOpClass::AccountAction => "Account actions",
            TezosOpClass::OtherAction => "Other actions",
        }
    }
}

/// Figure 1's grouping of operation kinds.
pub fn classify_op(kind: OperationKind) -> TezosOpClass {
    match kind {
        OperationKind::Transaction => TezosOpClass::P2pTransaction,
        OperationKind::Origination | OperationKind::Reveal | OperationKind::Activation => {
            TezosOpClass::AccountAction
        }
        OperationKind::Endorsement
        | OperationKind::Delegation
        | OperationKind::RevealNonce
        | OperationKind::Ballot
        | OperationKind::Proposals
        | OperationKind::DoubleBakingEvidence => TezosOpClass::OtherAction,
    }
}

/// One row of Figure 1's Tezos column.
#[derive(Debug, Clone)]
pub struct OpRow {
    pub class: TezosOpClass,
    pub kind: OperationKind,
    pub count: u64,
}

/// Figure 3b's categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TezosThroughputCat {
    Endorsement,
    Transaction,
    Others,
}

impl TezosThroughputCat {
    pub const fn label(self) -> &'static str {
        match self {
            TezosThroughputCat::Endorsement => "Endorsement",
            TezosThroughputCat::Transaction => "Transaction",
            TezosThroughputCat::Others => "Others",
        }
    }
}

/// One Figure 6 row: a top sender's receiver-dispersion statistics.
#[derive(Debug, Clone)]
pub struct SenderDispersion {
    pub sender: Address,
    pub sent_count: u64,
    pub unique_receivers: u64,
    pub mean_per_receiver: f64,
    pub stdev_per_receiver: f64,
}

/// A cumulative vote curve: sample points of (time, cumulative rolls).
#[derive(Debug, Clone)]
pub struct VoteCurve {
    pub label: String,
    pub points: Vec<(ChainTime, u64)>,
}

impl VoteCurve {
    pub fn total(&self) -> u64 {
        self.points.last().map(|(_, v)| *v).unwrap_or(0)
    }
}

/// Figure 9 for one voting period.
#[derive(Debug, Clone)]
pub struct PeriodCurves {
    pub kind: PeriodKind,
    pub window: Period,
    pub curves: Vec<VoteCurve>,
    /// Rolls that participated / total rolls.
    pub participation_pct: f64,
}

pub(crate) fn short_hash(h: &str) -> String {
    h.chars().take(12).collect()
}

/// One raw governance event: (block time, curve label, voting baker).
pub(crate) type GovEvent = (ChainTime, String, Address);

/// The Tezos sweep state: every Tezos exhibit statistic of one observation
/// window. Production obtains it from
/// [`crate::columnar::TezosColumnar::finalize`]; see [`crate::accumulate`]
/// for the merge algebra. [`TezosSweep::observe`] / [`TezosSweep::compute`]
/// are the scalar reference fold.
#[derive(Debug, Clone)]
pub struct TezosSweep {
    pub(crate) period: Period,
    pub(crate) periods: Vec<(PeriodKind, Period)>,
    // Figure 1.
    pub(crate) op_counts: HashMap<OperationKind, u64>,
    pub(crate) op_total: u64,
    // Figure 3b.
    pub(crate) series: BucketSeries<TezosThroughputCat>,
    // Figure 6.
    pub(crate) sent: TopK<Address>,
    pub(crate) per_receiver: HashMap<Address, TopK<Address>>,
    // Figure 9: raw events per governance period, in block order (the
    // sweep's order-preserving merge keeps concatenation == block order).
    pub(crate) gov_events: Vec<Vec<GovEvent>>,
    // §4.2 and the headline.
    pub(crate) gov_ops_in_window: u64,
    pub(crate) txs_in_period: u64,
}

impl TezosSweep {
    /// The sweep identity for an observation window and its chain's
    /// governance period boundaries.
    pub fn new(period: Period, periods: Vec<(PeriodKind, Period)>) -> Self {
        let gov_events = periods.iter().map(|_| Vec::new()).collect();
        TezosSweep {
            period,
            periods,
            op_counts: HashMap::new(),
            op_total: 0,
            series: BucketSeries::new(period, SIX_HOURS),
            sent: TopK::new(),
            per_receiver: HashMap::new(),
            gov_events,
            gov_ops_in_window: 0,
            txs_in_period: 0,
        }
    }

    /// Fold one block into the sweep. Reference fold: the equivalence
    /// suites compare the columnar engine against it, no production path
    /// calls it.
    pub fn observe(&mut self, b: &TezosBlock) {
        for op in &b.operations {
            let cat = match op.kind() {
                OperationKind::Endorsement => TezosThroughputCat::Endorsement,
                OperationKind::Transaction => TezosThroughputCat::Transaction,
                _ => TezosThroughputCat::Others,
            };
            self.series.record(b.time, cat, 1);
        }
        // Governance events accumulate per period window (the windows tile
        // the chain's life, independent of the observation window).
        for (idx, (kind, window)) in self.periods.iter().enumerate() {
            if !window.contains(b.time) {
                continue;
            }
            for op in &b.operations {
                match &op.payload {
                    OpPayload::Proposals { proposals } if *kind == PeriodKind::Proposal => {
                        for p in proposals {
                            self.gov_events[idx].push((b.time, short_hash(p), op.source));
                        }
                    }
                    OpPayload::Ballot { vote, .. }
                        if matches!(kind, PeriodKind::Exploration | PeriodKind::Promotion) =>
                    {
                        let label = match vote {
                            Vote::Yay => "yay",
                            Vote::Nay => "nay",
                            Vote::Pass => "pass",
                        };
                        self.gov_events[idx].push((b.time, label.to_owned(), op.source));
                    }
                    _ => {}
                }
            }
        }
        if !self.period.contains(b.time) {
            return;
        }
        for op in &b.operations {
            *self.op_counts.entry(op.kind()).or_insert(0) += 1;
            self.op_total += 1;
            if matches!(op.kind(), OperationKind::Ballot | OperationKind::Proposals) {
                self.gov_ops_in_window += 1;
            }
            if let OpPayload::Transaction { destination, .. } = &op.payload {
                self.txs_in_period += 1;
                self.sent.inc(op.source);
                self.per_receiver.entry(op.source).or_default().inc(*destination);
            }
        }
    }

    /// Merge another partial sweep.
    pub fn merge(&mut self, other: TezosSweep) {
        assert_eq!(
            self.periods, other.periods,
            "merge requires identical governance period lists"
        );
        for (k, n) in other.op_counts {
            *self.op_counts.entry(k).or_insert(0) += n;
        }
        self.op_total += other.op_total;
        self.series.merge(other.series);
        self.sent.merge(other.sent);
        for (k, t) in other.per_receiver {
            self.per_receiver.entry(k).or_default().merge(t);
        }
        for (mine, theirs) in self.gov_events.iter_mut().zip(other.gov_events) {
            mine.extend(theirs);
        }
        self.gov_ops_in_window += other.gov_ops_in_window;
        self.txs_in_period += other.txs_in_period;
    }

    /// One parallel [`TezosSweep::observe`] sweep over the blocks: the
    /// reference the suites hold `TezosColumnar::compute` to.
    pub fn compute(
        blocks: &[TezosBlock],
        period: Period,
        periods: &[(PeriodKind, Period)],
    ) -> Self {
        crate::accumulate::par_sweep(
            blocks,
            || TezosSweep::new(period, periods.to_vec()),
            |acc, b| acc.observe(b),
            |a, b| a.merge(b),
        )
    }

    /// Figure 1: counts per operation kind.
    pub fn op_distribution(&self) -> (Vec<OpRow>, u64) {
        let mut rows: Vec<OpRow> = self
            .op_counts
            .iter()
            .map(|(kind, count)| OpRow { class: classify_op(*kind), kind: *kind, count: *count })
            .collect();
        rows.sort_by(|a, b| {
            a.class.cmp(&b.class).then(b.count.cmp(&a.count)).then(a.kind.cmp(&b.kind))
        });
        (rows, self.op_total)
    }

    /// Figure 3b: the category throughput series.
    pub fn throughput_series(&self) -> &BucketSeries<TezosThroughputCat> {
        &self.series
    }

    /// Figure 6: top `k` senders with receiver-dispersion statistics.
    pub fn top_senders(&self, k: usize) -> Vec<SenderDispersion> {
        self.sent
            .top(k)
            .into_iter()
            .map(|(sender, sent_count)| {
                let recv = self.per_receiver.get(&sender).cloned().unwrap_or_default();
                // Fold the per-receiver counts in sorted order: HashMap
                // iteration order varies per instance, and a float fold over
                // a varying order can flip the rounded mean/stdev between two
                // otherwise-identical accumulations (direct sweep vs merged
                // shards).
                let mut counts: Vec<u64> = recv.iter().map(|(_, c)| *c).collect();
                counts.sort_unstable();
                let mut stats = RunningStats::new();
                for c in counts {
                    stats.push(c as f64);
                }
                SenderDispersion {
                    sender,
                    sent_count,
                    unique_receivers: recv.distinct() as u64,
                    mean_per_receiver: stats.mean(),
                    stdev_per_receiver: stats.stdev(),
                }
            })
            .collect()
    }

    /// Figure 9: build the vote curves from the accumulated events. `rolls`
    /// weights each baker's vote, as the paper's vote counts are
    /// roll-weighted.
    pub fn governance_curves(&self, rolls: &HashMap<Address, u64>) -> Vec<PeriodCurves> {
        let total_rolls: u64 = rolls.values().sum();
        self.periods
            .iter()
            .zip(&self.gov_events)
            .map(|((kind, window), events)| {
                // Blocks arrive chronologically and the merge is
                // order-preserving, so the log is almost always already
                // sorted — only clone and sort when it is not.
                let sorted_storage;
                let events: &[GovEvent] =
                    if events.windows(2).all(|w| w[0].0 <= w[1].0) {
                        events
                    } else {
                        let mut v = events.clone();
                        v.sort_by_key(|(t, ..)| *t);
                        sorted_storage = v;
                        &sorted_storage
                    };
                let mut curves: HashMap<String, VoteCurve> = HashMap::new();
                let mut cumulative: HashMap<String, u64> = HashMap::new();
                let mut participants: HashMap<Address, ()> = HashMap::new();
                for (t, label, baker) in events {
                    let w = rolls.get(baker).copied().unwrap_or(0);
                    let c = cumulative.entry(label.clone()).or_insert(0);
                    *c += w;
                    participants.insert(*baker, ());
                    curves
                        .entry(label.clone())
                        .or_insert_with(|| VoteCurve { label: label.clone(), points: Vec::new() })
                        .points
                        .push((*t, *c));
                }
                let participated: u64 =
                    participants.keys().map(|a| rolls.get(a).copied().unwrap_or(0)).sum();
                let mut curves: Vec<VoteCurve> = curves.into_values().collect();
                curves.sort_by(|a, b| b.total().cmp(&a.total()).then(a.label.cmp(&b.label)));
                PeriodCurves {
                    kind: *kind,
                    window: *window,
                    curves,
                    participation_pct: participated as f64 * 100.0 / total_rolls.max(1) as f64,
                }
            })
            .collect()
    }

    /// §4.2: governance operations inside the observation window ("merely
    /// 245 within our observation period").
    pub fn governance_op_count(&self) -> u64 {
        self.gov_ops_in_window
    }

    /// Headline payment-transactions-per-second (the "0.08 TPS for Tezos"
    /// headline counts *transactions*, i.e. manager payment operations).
    pub fn tps(&self) -> f64 {
        self.txs_in_period as f64 / self.period.seconds().max(1) as f64
    }

    /// Point lookup for one address's send activity (the serve path's
    /// `/account/tezos/<address>` query). `None` if the sweep never saw it.
    pub fn account_stats(&self, address: Address) -> Option<TezosAccountStats> {
        let sent_ops = self.sent.count_of(&address);
        if sent_ops == 0 {
            return None;
        }
        let (unique_receivers, top_receivers) = self
            .per_receiver
            .get(&address)
            .map(|t| {
                let top = t
                    .top(5)
                    .into_iter()
                    .map(|(a, c)| (a.to_string(), c))
                    .collect();
                (t.distinct() as u64, top)
            })
            .unwrap_or((0, Vec::new()));
        Some(TezosAccountStats { address, sent_ops, unique_receivers, top_receivers })
    }
}

/// One Tezos address's sweep-level activity summary.
#[derive(Debug, Clone)]
pub struct TezosAccountStats {
    pub address: Address,
    /// Transactions this address sent inside the window.
    pub sent_ops: u64,
    /// Distinct destinations it sent to.
    pub unique_receivers: u64,
    /// Top destinations, `(address, count)`.
    pub top_receivers: Vec<(String, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use txstat_tezos::ops::Operation;

    fn t0() -> ChainTime {
        ChainTime::from_ymd(2019, 10, 1)
    }

    fn period() -> Period {
        Period::new(t0(), ChainTime::from_ymd(2019, 10, 2))
    }

    fn block(i: u64, operations: Vec<Operation>) -> TezosBlock {
        TezosBlock { level: 628_951 + i, time: t0() + 60 * i as i64, baker: Address::implicit(1), operations }
    }

    fn endorse(baker: u64, slots: u8) -> Operation {
        Operation::new(Address::implicit(baker), OpPayload::Endorsement { level: 1, slots })
    }

    fn pay(from: u64, to: u64) -> Operation {
        Operation::new(
            Address::implicit(from),
            OpPayload::Transaction { destination: Address::implicit(to), amount_mutez: 100 },
        )
    }

    #[test]
    fn classification_matches_figure_1() {
        assert_eq!(classify_op(OperationKind::Transaction), TezosOpClass::P2pTransaction);
        assert_eq!(classify_op(OperationKind::Origination), TezosOpClass::AccountAction);
        assert_eq!(classify_op(OperationKind::Endorsement), TezosOpClass::OtherAction);
        assert_eq!(classify_op(OperationKind::Ballot), TezosOpClass::OtherAction);
    }

    #[test]
    fn distribution_and_series() {
        let blocks = vec![block(0, vec![endorse(1, 16), endorse(2, 16), pay(10, 11)])];
        let sweep = TezosSweep::compute(&blocks, period(), &[]);
        let (rows, total) = sweep.op_distribution();
        assert_eq!(total, 3);
        let endorse_row = rows.iter().find(|r| r.kind == OperationKind::Endorsement).unwrap();
        assert_eq!(endorse_row.count, 2);
        let series = sweep.throughput_series();
        assert_eq!(series.category_total(&TezosThroughputCat::Endorsement), 2);
        assert_eq!(series.category_total(&TezosThroughputCat::Transaction), 1);
    }

    #[test]
    fn sender_dispersion_statistics() {
        // Sender 100 sends twice to each of two receivers; sender 200 sends
        // once to one receiver.
        let blocks = vec![block(
            0,
            vec![pay(100, 1), pay(100, 1), pay(100, 2), pay(100, 2), pay(200, 3)],
        )];
        let top = TezosSweep::compute(&blocks, period(), &[]).top_senders(2);
        assert_eq!(top[0].sender, Address::implicit(100));
        assert_eq!(top[0].sent_count, 4);
        assert_eq!(top[0].unique_receivers, 2);
        assert!((top[0].mean_per_receiver - 2.0).abs() < 1e-12);
        assert!(top[0].stdev_per_receiver.abs() < 1e-12, "uniform dispersion");
    }

    #[test]
    fn governance_curves_accumulate_rolls() {
        let mut rolls = HashMap::new();
        rolls.insert(Address::implicit(1), 100u64);
        rolls.insert(Address::implicit(2), 300u64);
        rolls.insert(Address::implicit(3), 600u64);
        let blocks = vec![
            block(
                0,
                vec![Operation::new(
                    Address::implicit(1),
                    OpPayload::Ballot { proposal: "B2".into(), vote: Vote::Yay },
                )],
            ),
            block(
                1,
                vec![
                    Operation::new(
                        Address::implicit(2),
                        OpPayload::Ballot { proposal: "B2".into(), vote: Vote::Yay },
                    ),
                    Operation::new(
                        Address::implicit(3),
                        OpPayload::Ballot { proposal: "B2".into(), vote: Vote::Nay },
                    ),
                ],
            ),
        ];
        let sweep = TezosSweep::compute(&blocks, period(), &[(PeriodKind::Promotion, period())]);
        let curves = sweep.governance_curves(&rolls);
        assert_eq!(curves.len(), 1);
        let pc = &curves[0];
        let yay = pc.curves.iter().find(|c| c.label == "yay").unwrap();
        assert_eq!(yay.total(), 400);
        assert_eq!(yay.points.len(), 2);
        assert_eq!(yay.points[0].1, 100, "cumulative");
        let nay = pc.curves.iter().find(|c| c.label == "nay").unwrap();
        assert_eq!(nay.total(), 600);
        assert!((pc.participation_pct - 100.0).abs() < 1e-9);
        assert_eq!(sweep.governance_op_count(), 3);
    }

    #[test]
    fn tps_counts_only_payment_transactions() {
        let blocks = vec![block(0, vec![endorse(1, 32), pay(1, 2)])];
        let rate = TezosSweep::compute(&blocks, period(), &[]).tps();
        assert!((rate - 1.0 / 86_400.0).abs() < 1e-15);
    }
}
