//! Columnar Tezos sweep: interned addresses, a dense kind-tag batch for
//! the Figure 1/3b classification loops, and id-indexed Figure 6 counters,
//! finalized into the scalar [`TezosSweep`].

use super::tables::{IdVec, PairTable};
use super::{resolve_dense_series, resolve_pairs, resolve_topk};
use crate::tezos_analysis::{short_hash, GovEvent, TezosSweep, TezosThroughputCat};
use std::collections::HashMap;
use txstat_tezos::address::Address;
use txstat_tezos::chain::TezosBlock;
use txstat_tezos::governance::PeriodKind;
use txstat_tezos::ops::{OpPayload, OperationKind, Vote};
use txstat_types::intern::Interner;
use txstat_types::time::{Period, SIX_HOURS};

/// Figure 3b category per operation-kind tag (`OperationKind as usize`).
const CAT_OF_KIND: [u8; 10] = {
    let mut t = [2u8; 10]; // Others
    t[OperationKind::Endorsement as usize] = 0;
    t[OperationKind::Transaction as usize] = 1;
    t
};

const CATS: [TezosThroughputCat; 3] = [
    TezosThroughputCat::Endorsement,
    TezosThroughputCat::Transaction,
    TezosThroughputCat::Others,
];

/// The columnar Tezos accumulator: same algebra as [`TezosSweep`], with
/// operation kinds classified into a reused tag column per block and the
/// Figure 6 sender/receiver maps id-indexed over interned addresses.
#[derive(Debug, Clone)]
pub struct TezosColumnar {
    period: Period,
    periods: Vec<(PeriodKind, Period)>,
    addrs: Interner<Address>,
    op_counts: [u64; 10],
    op_total: u64,
    /// Figure 3b: dense per-bucket category counts plus the audit counter.
    series: Vec<[u64; 3]>,
    series_oor: u64,
    sent: IdVec<u64>,
    per_receiver: PairTable,
    gov_events: Vec<Vec<GovEvent>>,
    gov_ops_in_window: u64,
    txs_in_period: u64,
    /// Reused per-block kind-tag batch.
    tags: Vec<u8>,
}

impl TezosColumnar {
    /// The sweep identity for an observation window and governance period
    /// boundaries.
    pub fn new(period: Period, periods: Vec<(PeriodKind, Period)>) -> Self {
        let gov_events = periods.iter().map(|_| Vec::new()).collect();
        TezosColumnar {
            period,
            periods,
            addrs: Interner::new(),
            op_counts: [0; 10],
            op_total: 0,
            series: vec![[0; 3]; period.bucket_count(SIX_HOURS)],
            series_oor: 0,
            sent: IdVec::new(),
            per_receiver: PairTable::new(),
            gov_events,
            gov_ops_in_window: 0,
            txs_in_period: 0,
            tags: Vec::new(),
        }
    }

    /// The observation window this accumulator folds over. Partial sweeps
    /// are only mergeable over identical windows.
    pub fn period(&self) -> Period {
        self.period
    }

    /// The governance period windows this accumulator attributes events
    /// to. [`TezosColumnar::merge`] requires identical lists.
    pub fn governance_windows(&self) -> &[(PeriodKind, Period)] {
        &self.periods
    }

    /// Fold one block: one pass builds the kind-tag batch, the counting
    /// loops then bump dense counters straight off the tag column.
    pub fn observe(&mut self, b: &TezosBlock) {
        let mut tags = std::mem::take(&mut self.tags);
        tags.clear();
        tags.extend(b.operations.iter().map(|op| op.kind() as u8));

        let in_period = self.period.contains(b.time);
        if in_period {
            let bucket = b.time.bucket_index(self.period.start, SIX_HOURS) as usize;
            let row = &mut self.series[bucket];
            for &tag in &tags {
                row[CAT_OF_KIND[tag as usize] as usize] += 1;
            }
        } else {
            self.series_oor += tags.len() as u64;
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

        if in_period {
            self.op_total += tags.len() as u64;
            for &tag in &tags {
                self.op_counts[tag as usize] += 1;
            }
            self.gov_ops_in_window += tags
                .iter()
                .filter(|t| {
                    **t == OperationKind::Ballot as u8 || **t == OperationKind::Proposals as u8
                })
                .count() as u64;
            for op in &b.operations {
                if let OpPayload::Transaction { destination, .. } = &op.payload {
                    self.txs_in_period += 1;
                    let src = self.addrs.intern(op.source);
                    let dst = self.addrs.intern(*destination);
                    self.sent.add(src, 1);
                    self.per_receiver.add(src, dst, 1);
                }
            }
        }
        self.tags = tags;
    }

    /// Merge another partial sweep through the interner remap table.
    pub fn merge(&mut self, other: TezosColumnar) {
        assert_eq!(
            self.periods, other.periods,
            "merge requires identical governance period lists"
        );
        let remap = self.addrs.absorb(&other.addrs);
        let r = |id: u32| remap[id as usize];
        for (a, b) in self.op_counts.iter_mut().zip(other.op_counts) {
            *a += b;
        }
        self.op_total += other.op_total;
        for (mine, theirs) in self.series.iter_mut().zip(&other.series) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.series_oor += other.series_oor;
        self.sent.merge_remap(&other.sent, &remap);
        self.per_receiver.merge_remap(&other.per_receiver, r, r);
        for (mine, theirs) in self.gov_events.iter_mut().zip(other.gov_events) {
            mine.extend(theirs);
        }
        self.gov_ops_in_window += other.gov_ops_in_window;
        self.txs_in_period += other.txs_in_period;
    }

    /// Resolve ids and emit the scalar sweep.
    pub fn finalize(self) -> TezosSweep {
        let addrs = &self.addrs;
        let resolve = |id: u32| addrs.resolve(id);
        let mut op_counts: HashMap<OperationKind, u64> = HashMap::new();
        for (tag, n) in self.op_counts.iter().enumerate() {
            if *n > 0 {
                op_counts.insert(OperationKind::ALL[tag], *n);
            }
        }
        TezosSweep {
            period: self.period,
            periods: self.periods,
            op_counts,
            op_total: self.op_total,
            series: resolve_dense_series(
                &self.series,
                self.series_oor,
                CATS,
                self.period,
                SIX_HOURS,
            ),
            sent: resolve_topk(&self.sent, resolve),
            per_receiver: resolve_pairs(&self.per_receiver, resolve, resolve),
            gov_events: self.gov_events,
            gov_ops_in_window: self.gov_ops_in_window,
            txs_in_period: self.txs_in_period,
        }
    }

    /// One columnar fold over the blocks in order, finalized.
    pub fn compute(
        blocks: &[TezosBlock],
        period: Period,
        periods: &[(PeriodKind, Period)],
    ) -> TezosSweep {
        let mut acc = TezosColumnar::new(period, periods.to_vec());
        for b in blocks {
            acc.observe(b);
        }
        acc.finalize()
    }
}

impl TezosColumnar {
    /// The decode-time hardening.
    fn validate(&self) -> Result<(), String> {
        if self.gov_events.len() != self.periods.len() {
            return Err("governance event arity disagrees with period list".to_owned());
        }
        let (n, n32) = (self.addrs.len(), self.addrs.len() as u32);
        super::state::check_idvec(&self.sent, n, "sent")?;
        super::state::check_pairs(&self.per_receiver, n32, n32, "per_receiver")?;
        Ok(())
    }
}

/// [`PeriodKind`]'s wire column tag.
fn period_kind_tag(k: PeriodKind) -> u8 {
    match k {
        PeriodKind::Proposal => 0,
        PeriodKind::Exploration => 1,
        PeriodKind::Testing => 2,
        PeriodKind::Promotion => 3,
    }
}

fn period_kind_of(tag: u8) -> Option<PeriodKind> {
    Some(match tag {
        0 => PeriodKind::Proposal,
        1 => PeriodKind::Exploration,
        2 => PeriodKind::Testing,
        3 => PeriodKind::Promotion,
        _ => return None,
    })
}

impl super::wire::WireState for TezosColumnar {
    /// Binary column sections in struct declaration order: the mergeable
    /// state; the per-block kind-tag scratch is not state.
    fn encode_columns(&self, w: &mut txstat_types::colcodec::ColWriter) {
        use super::wire::{write_period, write_prefix, write_rows, TAG_TEZOS};
        use txstat_types::colcodec::ColKey;
        write_prefix(w, TAG_TEZOS);
        write_period(w, self.period);
        w.u64(self.periods.len() as u64);
        for (kind, window) in &self.periods {
            w.byte(period_kind_tag(*kind));
            write_period(w, *window);
        }
        self.addrs.encode_columns(w);
        for c in self.op_counts {
            w.u64(c);
        }
        w.u64(self.op_total);
        write_rows(w, &self.series);
        w.u64(self.series_oor);
        self.sent.encode_columns(w);
        self.per_receiver.encode_columns(w);
        w.u64(self.gov_events.len() as u64);
        for events in &self.gov_events {
            w.u64(events.len() as u64);
            for (time, label, source) in events {
                w.i64(time.0);
                w.str(label);
                source.encode_key(w);
            }
        }
        w.u64(self.gov_ops_in_window);
        w.u64(self.txs_in_period);
    }

    fn decode_columns(
        r: &mut txstat_types::colcodec::ColReader<'_>,
    ) -> Result<Self, txstat_types::colcodec::ColError> {
        use super::tables::{IdVec, PairTable};
        use super::wire::{read_period, read_prefix, read_rows, RESERVE_CAP, TAG_TEZOS};
        use txstat_types::colcodec::ColKey;
        use txstat_types::time::ChainTime;
        read_prefix(r, TAG_TEZOS)?;
        let period = read_period(r)?;
        let n_periods = r.len(3)?;
        let mut periods = Vec::with_capacity(n_periods.min(RESERVE_CAP));
        for _ in 0..n_periods {
            let tag = r.byte()?;
            let kind = period_kind_of(tag)
                .ok_or_else(|| r.invalid(format!("bad governance period kind tag {tag}")))?;
            periods.push((kind, read_period(r)?));
        }
        let addrs = Interner::<Address>::decode_columns(r)?;
        let mut op_counts = [0u64; 10];
        for c in &mut op_counts {
            *c = r.u64()?;
        }
        let op_total = r.u64()?;
        let series = read_rows(r)?;
        let series_oor = r.u64()?;
        let sent = IdVec::decode_columns(r)?;
        let per_receiver = PairTable::decode_columns(r)?;
        let n_event_lists = r.len(1)?;
        let mut gov_events = Vec::with_capacity(n_event_lists.min(RESERVE_CAP));
        for _ in 0..n_event_lists {
            let n_events = r.len(3)?;
            let mut events: Vec<GovEvent> = Vec::with_capacity(n_events.min(RESERVE_CAP));
            for _ in 0..n_events {
                let time = ChainTime(r.i64()?);
                let label = r.str()?.to_owned();
                let source = Address::decode_key(r)?;
                events.push((time, label, source));
            }
            gov_events.push(events);
        }
        let out = TezosColumnar {
            period,
            periods,
            addrs,
            op_counts,
            op_total,
            series,
            series_oor,
            sent,
            per_receiver,
            gov_events,
            gov_ops_in_window: r.u64()?,
            txs_in_period: r.u64()?,
            tags: Vec::new(),
        };
        out.validate().map_err(|m| r.invalid(m))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txstat_tezos::ops::Operation;
    use txstat_types::time::ChainTime;

    fn t0() -> ChainTime {
        ChainTime::from_ymd(2019, 10, 1)
    }

    fn period() -> Period {
        Period::new(t0(), ChainTime::from_ymd(2019, 10, 2))
    }

    #[test]
    fn columnar_matches_scalar_on_mixed_ops() {
        let pay = |from: u64, to: u64| {
            Operation::new(
                Address::implicit(from),
                OpPayload::Transaction {
                    destination: Address::implicit(to),
                    amount_mutez: 100,
                },
            )
        };
        let blocks = vec![
            TezosBlock {
                level: 1,
                time: t0() + 60,
                baker: Address::implicit(1),
                operations: vec![
                    Operation::new(
                        Address::implicit(2),
                        OpPayload::Endorsement {
                            level: 1,
                            slots: 16,
                        },
                    ),
                    pay(10, 11),
                    pay(10, 12),
                    Operation::new(
                        Address::implicit(3),
                        OpPayload::Ballot {
                            proposal: "PsBabyM1".into(),
                            vote: Vote::Yay,
                        },
                    ),
                ],
            },
            TezosBlock {
                level: 2,
                time: t0() + 3 * 86_400, // out of period
                baker: Address::implicit(1),
                operations: vec![pay(9, 9)],
            },
        ];
        let periods = vec![(PeriodKind::Promotion, period())];
        let scalar = TezosSweep::compute(&blocks, period(), &periods);
        let columnar = TezosColumnar::compute(&blocks, period(), &periods);
        assert_eq!(columnar.op_distribution().1, scalar.op_distribution().1);
        assert_eq!(columnar.governance_op_count(), scalar.governance_op_count());
        assert_eq!(columnar.tps(), scalar.tps());
        assert_eq!(
            columnar.throughput_series().total(),
            scalar.throughput_series().total()
        );
        assert_eq!(
            columnar.throughput_series().out_of_range(),
            scalar.throughput_series().out_of_range()
        );
        let flat = |rows: Vec<crate::tezos_analysis::SenderDispersion>| {
            rows.into_iter()
                .map(|r| (r.sender, r.sent_count, r.unique_receivers))
                .collect::<Vec<_>>()
        };
        assert_eq!(flat(columnar.top_senders(5)), flat(scalar.top_senders(5)));
    }

    #[test]
    fn binary_columns_round_trip_canonically() {
        use super::super::wire::WireState;
        let pay = |from: u64, to: u64| {
            Operation::new(
                Address::implicit(from),
                OpPayload::Transaction {
                    destination: Address::implicit(to),
                    amount_mutez: 7,
                },
            )
        };
        let block = TezosBlock {
            level: 1,
            time: t0() + 120,
            baker: Address::implicit(1),
            operations: vec![
                pay(4, 5),
                Operation::new(
                    Address::implicit(3),
                    OpPayload::Ballot {
                        proposal: "PsBabyM1".into(),
                        vote: Vote::Nay,
                    },
                ),
            ],
        };
        let mut acc = TezosColumnar::new(period(), vec![(PeriodKind::Promotion, period())]);
        acc.observe(&block);
        let bytes = acc.to_wire_bytes();
        let back = TezosColumnar::from_wire_bytes(&bytes).expect("valid columns");
        assert_eq!(back.to_wire_bytes(), bytes);
        let (a, b) = (acc.finalize(), back.finalize());
        assert_eq!(a.op_distribution().1, b.op_distribution().1);
        assert_eq!(a.governance_op_count(), b.governance_op_count());
        assert_eq!(a.tps(), b.tps());
    }
}
