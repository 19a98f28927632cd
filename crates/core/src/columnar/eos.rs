//! Columnar EOS sweep: interned names, per-block SoA batches, id-indexed
//! counters, and a remap merge — finalized into the scalar [`EosSweep`]
//! so every exhibit accessor (and its output, bit for bit) is shared.

use super::tables::{IdVec, PairTable};
use super::{encode_opt, resolve_map, resolve_pairs, resolve_topk, SeriesTable};
use crate::eos_analysis::{classify_action, BoomAcc, EosActionClass, EosSweep, WashAcc};
use std::collections::HashMap;
use txstat_eos::name::Name;
use txstat_eos::types::{ActionData, Block};
use txstat_types::amount::SymCode;
use txstat_types::intern::Interner;
use txstat_types::time::{Period, SIX_HOURS};

/// Figure 1 class tags, in [`CLASSES`] order; `TAG_OTHERS` collapses into
/// one scalar counter (the scalar sweep's `(Others, None)` key).
const TAG_P2P: u8 = 0;
const TAG_OTHERS: u8 = 3;

/// Tag → class for the three name-keyed classes.
const CLASSES: [EosActionClass; 3] = [
    EosActionClass::P2pTransaction,
    EosActionClass::AccountAction,
    EosActionClass::OtherAction,
];

fn class_tag(class: EosActionClass) -> u8 {
    match class {
        EosActionClass::P2pTransaction => TAG_P2P,
        EosActionClass::AccountAction => 1,
        EosActionClass::OtherAction => 2,
        EosActionClass::Others => TAG_OTHERS,
    }
}

/// One block's actions in struct-of-arrays form: the class tag column plus
/// the id columns every counting loop reads, rebuilt (in reused buffers)
/// per block.
#[derive(Debug, Clone, Default)]
struct EosBatch {
    /// Figure 1 class tag per action.
    tag: Vec<u8>,
    name: Vec<u32>,
    actor: Vec<u32>,
    contract: Vec<u32>,
    /// Exclusive end index into the action columns, per transaction.
    tx_end: Vec<u32>,
    /// Transfer legs: `(tx index, from, to, symbol, amount)`.
    xfer: Vec<(u32, u32, u32, SymCode, i64)>,
    /// DEX trade reports: `(buyer, seller)`.
    trade: Vec<(u32, u32)>,
    /// Distinct-contract dedup scratch.
    dedup: Vec<u32>,
}

impl EosBatch {
    fn clear(&mut self) {
        self.tag.clear();
        self.name.clear();
        self.actor.clear();
        self.contract.clear();
        self.tx_end.clear();
        self.xfer.clear();
        self.trade.clear();
    }
}

/// Mergeable boomerang state over interned ids (see
/// [`crate::eos_analysis::BoomAcc`] for the pattern definition).
#[derive(Debug, Clone, Default)]
struct BoomCol {
    boomerang_txs: u64,
    boomerangs: u64,
    total_txs: u64,
    transfer_actions: u64,
    boomerang_transfers: u64,
    hubs: IdVec<u64>,
    used: Vec<bool>,
}

impl BoomCol {
    /// Match one transaction's transfer legs (in action order).
    fn observe_legs(&mut self, legs: &[(u32, u32, u32, SymCode, i64)]) {
        self.total_txs += 1;
        self.transfer_actions += legs.len() as u64;
        self.used.clear();
        self.used.resize(legs.len(), false);
        let mut found = 0u64;
        for idx in 0..legs.len() {
            if self.used[idx] {
                continue;
            }
            let (_, from, to, symbol, amount) = legs[idx];
            let refund = (idx + 1..legs.len()).find(|&jdx| {
                let (_, f2, t2, s2, a2) = legs[jdx];
                !self.used[jdx] && f2 == to && t2 == from && s2 == symbol && a2 == amount
            });
            if let Some(jdx) = refund {
                found += 1;
                self.used[idx] = true;
                self.used[jdx] = true;
                self.hubs.add(to, 1);
                let payout = (0..legs.len()).find(|&kdx| {
                    let (_, f3, t3, s3, _) = legs[kdx];
                    !self.used[kdx] && f3 == to && t3 == from && s3 != symbol
                });
                if let Some(kdx) = payout {
                    self.used[kdx] = true;
                    self.boomerang_transfers += 1;
                }
                self.boomerang_transfers += 2;
            }
        }
        if found > 0 {
            self.boomerang_txs += 1;
            self.boomerangs += found;
        }
    }

    fn merge(&mut self, other: &BoomCol, remap: &[u32]) {
        self.boomerang_txs += other.boomerang_txs;
        self.boomerangs += other.boomerangs;
        self.total_txs += other.total_txs;
        self.transfer_actions += other.transfer_actions;
        self.boomerang_transfers += other.boomerang_transfers;
        self.hubs.merge_remap(&other.hubs, remap);
    }
}

/// Mergeable wash-trading state over interned ids.
#[derive(Debug, Clone, Default)]
struct WashCol {
    total: u64,
    self_trades: u64,
    participation: IdVec<u64>,
    self_by_account: IdVec<u64>,
    pairs: PairTable,
}

impl WashCol {
    #[inline]
    fn observe_trade(&mut self, buyer: u32, seller: u32) {
        self.total += 1;
        self.pairs.add(buyer, seller, 1);
        self.participation.add(buyer, 1);
        if seller != buyer {
            self.participation.add(seller, 1);
        } else {
            self.self_trades += 1;
            self.self_by_account.add(buyer, 1);
        }
    }

    fn merge(&mut self, other: &WashCol, remap: &[u32]) {
        self.total += other.total;
        self.self_trades += other.self_trades;
        self.participation.merge_remap(&other.participation, remap);
        self.self_by_account
            .merge_remap(&other.self_by_account, remap);
        self.pairs
            .merge_remap(&other.pairs, |a| remap[a as usize], |b| remap[b as usize]);
    }
}

/// The columnar EOS accumulator: same `identity / observe / merge` algebra
/// as [`EosSweep`], but every hot map is an id-indexed [`IdVec`] or
/// residue-sharded [`PairTable`] over a chunk-local [`Interner`]. Merging
/// absorbs the other chunk's interner and gathers its counters through the
/// resulting remap table; [`EosColumnar::finalize`] resolves ids back to
/// names and yields the scalar sweep struct.
#[derive(Debug, Clone)]
pub struct EosColumnar {
    period: Period,
    names: Interner<Name>,
    /// Per interned name: the Figure 1 class tag of a non-transfer action
    /// of that name (the batch classifier's tag table).
    class_of: Vec<u8>,
    /// Figure 1 counts per `(class tag, name id)` for the three name-keyed
    /// classes; the collapsed Others bucket counts in [`EosColumnar::others`].
    by_class: [IdVec<u64>; 3],
    others: u64,
    action_total: u64,
    tx_contracts: IdVec<u64>,
    contract_actions: PairTable,
    sent: IdVec<u64>,
    sender_receivers: PairTable,
    series: SeriesTable,
    wash: WashCol,
    boom: BoomCol,
    edges: PairTable,
    txs_in_period: u64,
    batch: EosBatch,
}

impl EosColumnar {
    /// The sweep identity for an observation window.
    pub fn new(period: Period) -> Self {
        EosColumnar {
            period,
            names: Interner::new(),
            class_of: Vec::new(),
            by_class: [IdVec::new(), IdVec::new(), IdVec::new()],
            others: 0,
            action_total: 0,
            tx_contracts: IdVec::new(),
            contract_actions: PairTable::new(),
            sent: IdVec::new(),
            sender_receivers: PairTable::new(),
            series: SeriesTable::new(),
            wash: WashCol::default(),
            boom: BoomCol::default(),
            edges: PairTable::new(),
            txs_in_period: 0,
            batch: EosBatch::default(),
        }
    }

    /// The observation window this accumulator folds over. Partial sweeps
    /// are only mergeable over identical windows.
    pub fn period(&self) -> Period {
        self.period
    }

    /// Intern a name, extending the tag table on first sight.
    #[inline]
    fn intern(&mut self, n: Name) -> u32 {
        let id = self.names.intern(n);
        if id as usize == self.class_of.len() {
            self.class_of
                .push(class_tag(classify_action(n, &ActionData::Generic)));
        }
        id
    }

    /// Fold one block: decode it into the SoA batch (interning every name
    /// once), then bump counters column-wise off the tag/id arrays.
    pub fn observe(&mut self, b: &Block) {
        if !self.period.contains(b.time) {
            // Out-of-period blocks only audit the Figure 3a series.
            self.series.oor += b.transactions.len() as u64;
            return;
        }
        let bucket = b.time.bucket_index(self.period.start, SIX_HOURS) as u32;
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();

        // Decode pass: intern names, classify through the tag table, and
        // lay the block out as parallel columns.
        for (tx_idx, tx) in b.transactions.iter().enumerate() {
            let first = tx.actions.first().map(|a| self.intern(a.contract));
            self.series.add(encode_opt(first), bucket, 1);
            for a in &tx.actions {
                let name = self.intern(a.name);
                let tag = match &a.data {
                    ActionData::Transfer {
                        from,
                        to,
                        symbol,
                        amount,
                    } => {
                        let f = self.intern(*from);
                        let t = self.intern(*to);
                        batch.xfer.push((tx_idx as u32, f, t, *symbol, *amount));
                        TAG_P2P
                    }
                    ActionData::Trade { buyer, seller, .. } => {
                        let bu = self.intern(*buyer);
                        let se = self.intern(*seller);
                        batch.trade.push((bu, se));
                        self.class_of[name as usize]
                    }
                    _ => self.class_of[name as usize],
                };
                batch.tag.push(tag);
                batch.name.push(name);
                batch.actor.push(self.intern(a.actor));
                batch.contract.push(self.intern(a.contract));
            }
            batch.tx_end.push(batch.tag.len() as u32);
        }

        // Counting pass: every loop walks one or two columns.
        let n = batch.tag.len();
        self.txs_in_period += b.transactions.len() as u64;
        self.action_total += n as u64;
        for i in 0..n {
            let tag = batch.tag[i];
            if tag == TAG_OTHERS {
                self.others += 1;
            } else {
                self.by_class[tag as usize].add(batch.name[i], 1);
            }
        }
        for &actor in &batch.actor {
            self.sent.add(actor, 1);
        }
        for i in 0..n {
            self.sender_receivers
                .add(batch.actor[i], batch.contract[i], 1);
        }
        for i in 0..n {
            self.contract_actions
                .add(batch.contract[i], batch.name[i], 1);
        }
        for &(_, f, t, ..) in &batch.xfer {
            self.edges.add(f, t, 1);
        }
        for &(bu, se) in &batch.trade {
            self.wash.observe_trade(bu, se);
        }

        // Per-transaction passes: distinct-contract dedup and boomerang
        // matching over each transaction's slice of the columns.
        let mut start = 0usize;
        let mut xi = 0usize;
        for (tx_idx, &end) in batch.tx_end.iter().enumerate() {
            let contracts = &batch.contract[start..end as usize];
            batch.dedup.clear();
            for &c in contracts {
                if !batch.dedup.contains(&c) {
                    batch.dedup.push(c);
                }
            }
            for &c in &batch.dedup {
                self.tx_contracts.add(c, 1);
            }
            let lo = xi;
            while xi < batch.xfer.len() && batch.xfer[xi].0 == tx_idx as u32 {
                xi += 1;
            }
            self.boom.observe_legs(&batch.xfer[lo..xi]);
            start = end as usize;
        }
        self.batch = batch;
    }

    /// Merge another partial sweep: absorb its interner, then gather every
    /// id-indexed counter through the remap table.
    pub fn merge(&mut self, other: EosColumnar) {
        let remap = self.names.absorb(&other.names);
        self.class_of.resize(self.names.len(), 0);
        for (oid, &nid) in remap.iter().enumerate() {
            self.class_of[nid as usize] = other.class_of[oid];
        }
        let r = |id: u32| remap[id as usize];
        for (mine, theirs) in self.by_class.iter_mut().zip(&other.by_class) {
            mine.merge_remap(theirs, &remap);
        }
        self.others += other.others;
        self.action_total += other.action_total;
        self.tx_contracts.merge_remap(&other.tx_contracts, &remap);
        self.contract_actions
            .merge_remap(&other.contract_actions, r, r);
        self.sent.merge_remap(&other.sent, &remap);
        self.sender_receivers
            .merge_remap(&other.sender_receivers, r, r);
        self.series.merge_remap(&other.series, &remap);
        self.wash.merge(&other.wash, &remap);
        self.boom.merge(&other.boom, &remap);
        self.edges.merge_remap(&other.edges, r, r);
        self.txs_in_period += other.txs_in_period;
    }

    /// Resolve ids back to names and emit the scalar sweep. All maps are
    /// rebuilt key-by-key, so the result is state-identical to a scalar
    /// [`EosSweep`] fold over the same blocks.
    pub fn finalize(self) -> EosSweep {
        let names = &self.names;
        let mut action_counts: HashMap<(EosActionClass, Option<Name>), u64> = HashMap::new();
        for (tag, class) in CLASSES.iter().enumerate() {
            for (id, count) in self.by_class[tag].iter_nonzero() {
                *action_counts
                    .entry((*class, Some(names.resolve(id))))
                    .or_insert(0) += count;
            }
        }
        if self.others > 0 {
            action_counts.insert((EosActionClass::Others, None), self.others);
        }

        let contract_series = self.series.resolve(self.period, SIX_HOURS, |enc| {
            (enc != 0).then(|| names.resolve(enc - 1))
        });

        let resolve = |id: u32| names.resolve(id);
        let wash = WashAcc {
            total: self.wash.total,
            self_trades: self.wash.self_trades,
            participation: resolve_topk(&self.wash.participation, resolve),
            self_by_account: resolve_map(&self.wash.self_by_account, resolve),
            pair_counts: self
                .wash
                .pairs
                .iter()
                .map(|(a, b, n)| ((names.resolve(a), names.resolve(b)), n))
                .collect(),
        };
        let boom = BoomAcc {
            boomerang_txs: self.boom.boomerang_txs,
            boomerangs: self.boom.boomerangs,
            total_txs: self.boom.total_txs,
            transfer_actions: self.boom.transfer_actions,
            boomerang_transfers: self.boom.boomerang_transfers,
            hubs: resolve_topk(&self.boom.hubs, resolve),
            scratch: Vec::new(),
            used: Vec::new(),
        };
        let mut graph = crate::graph::TransferGraph::new();
        for (f, t, n) in self.edges.iter() {
            graph.record_many(names.resolve(f), names.resolve(t), n);
        }

        EosSweep {
            period: self.period,
            action_counts,
            action_total: self.action_total,
            tx_contracts: resolve_topk(&self.tx_contracts, resolve),
            contract_actions: resolve_pairs(&self.contract_actions, resolve, resolve),
            sent: resolve_topk(&self.sent, resolve),
            sender_receivers: resolve_pairs(&self.sender_receivers, resolve, resolve),
            contract_series,
            wash,
            boom,
            graph,
            txs_in_period: self.txs_in_period,
            contract_scratch: Vec::new(),
        }
    }

    /// One columnar fold over the blocks in order, finalized into the
    /// scalar sweep every exhibit renders from.
    pub fn compute(blocks: &[Block], period: Period) -> EosSweep {
        let mut acc = EosColumnar::new(period);
        for b in blocks {
            acc.observe(b);
        }
        acc.finalize()
    }
}

impl EosColumnar {
    /// The decode-time hardening: every
    /// id-indexed structure must stay inside the interner's id range (and
    /// the tag table must have one *valid* tag per key), or merge/observe
    /// would panic on a forged frame.
    fn validate(&self) -> Result<(), String> {
        use super::state::{check_idvec, check_pairs, check_series};
        if self.class_of.len() != self.names.len() {
            return Err("tag table arity disagrees with interner".to_owned());
        }
        if let Some(tag) = self.class_of.iter().find(|t| **t > TAG_OTHERS) {
            return Err(format!("class tag {tag} outside the class-tag range"));
        }
        let (n, n32) = (self.names.len(), self.names.len() as u32);
        for c in &self.by_class {
            check_idvec(c, n, "by_class")?;
        }
        check_idvec(&self.tx_contracts, n, "tx_contracts")?;
        check_idvec(&self.sent, n, "sent")?;
        check_idvec(&self.wash.participation, n, "wash.participation")?;
        check_idvec(&self.wash.self_by_account, n, "wash.self_by_account")?;
        check_idvec(&self.boom.hubs, n, "boom.hubs")?;
        check_pairs(&self.contract_actions, n32, n32, "contract_actions")?;
        check_pairs(&self.sender_receivers, n32, n32, "sender_receivers")?;
        check_pairs(&self.wash.pairs, n32, n32, "wash.pairs")?;
        check_pairs(&self.edges, n32, n32, "edges")?;
        check_series(&self.series, n32, "series")?;
        Ok(())
    }
}

impl super::wire::WireState for EosColumnar {
    /// Binary column sections in struct declaration order: the mergeable
    /// state (interner key table, tag table, id-indexed counters, scalar
    /// tallies). The per-block SoA scratch is not state.
    fn encode_columns(&self, w: &mut txstat_types::colcodec::ColWriter) {
        use super::wire::{write_period, write_prefix, TAG_EOS};
        write_prefix(w, TAG_EOS);
        write_period(w, self.period);
        self.names.encode_columns(w);
        w.bytes(&self.class_of);
        for c in &self.by_class {
            c.encode_columns(w);
        }
        w.u64(self.others);
        w.u64(self.action_total);
        self.tx_contracts.encode_columns(w);
        self.contract_actions.encode_columns(w);
        self.sent.encode_columns(w);
        self.sender_receivers.encode_columns(w);
        self.series.encode_columns(w);
        w.u64(self.wash.total);
        w.u64(self.wash.self_trades);
        self.wash.participation.encode_columns(w);
        self.wash.self_by_account.encode_columns(w);
        self.wash.pairs.encode_columns(w);
        w.u64(self.boom.boomerang_txs);
        w.u64(self.boom.boomerangs);
        w.u64(self.boom.total_txs);
        w.u64(self.boom.transfer_actions);
        w.u64(self.boom.boomerang_transfers);
        self.boom.hubs.encode_columns(w);
        self.edges.encode_columns(w);
        w.u64(self.txs_in_period);
    }

    fn decode_columns(
        r: &mut txstat_types::colcodec::ColReader<'_>,
    ) -> Result<Self, txstat_types::colcodec::ColError> {
        use super::tables::{IdVec, PairTable};
        use super::wire::{read_period, read_prefix, TAG_EOS};
        read_prefix(r, TAG_EOS)?;
        let period = read_period(r)?;
        let names = Interner::<Name>::decode_columns(r)?;
        let class_of = r.bytes()?.to_vec();
        let by_class = [
            IdVec::<u64>::decode_columns(r)?,
            IdVec::<u64>::decode_columns(r)?,
            IdVec::<u64>::decode_columns(r)?,
        ];
        let out = EosColumnar {
            period,
            names,
            class_of,
            by_class,
            others: r.u64()?,
            action_total: r.u64()?,
            tx_contracts: IdVec::decode_columns(r)?,
            contract_actions: PairTable::decode_columns(r)?,
            sent: IdVec::decode_columns(r)?,
            sender_receivers: PairTable::decode_columns(r)?,
            series: super::SeriesTable::decode_columns(r)?,
            wash: WashCol {
                total: r.u64()?,
                self_trades: r.u64()?,
                participation: IdVec::decode_columns(r)?,
                self_by_account: IdVec::decode_columns(r)?,
                pairs: PairTable::decode_columns(r)?,
            },
            boom: BoomCol {
                boomerang_txs: r.u64()?,
                boomerangs: r.u64()?,
                total_txs: r.u64()?,
                transfer_actions: r.u64()?,
                boomerang_transfers: r.u64()?,
                hubs: IdVec::decode_columns(r)?,
                used: Vec::new(),
            },
            edges: PairTable::decode_columns(r)?,
            txs_in_period: r.u64()?,
            batch: EosBatch::default(),
        };
        out.validate().map_err(|m| r.invalid(m))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txstat_eos::types::{Action, Transaction};
    use txstat_types::time::ChainTime;

    fn t0() -> ChainTime {
        ChainTime::from_ymd(2019, 10, 1)
    }

    fn period() -> Period {
        Period::new(t0(), ChainTime::from_ymd(2019, 10, 2))
    }

    fn transfer(from: &str, to: &str, amount: i64) -> Action {
        Action::token_transfer(
            Name::new("eosio.token"),
            Name::new(from),
            Name::new(to),
            SymCode::new("EOS"),
            amount,
        )
    }

    fn blocks() -> Vec<Block> {
        let tx = |actions: Vec<Action>| Transaction {
            id: 0,
            actions,
            cpu_us: 100,
            net_bytes: 128,
        };
        vec![
            Block {
                num: 1,
                time: t0() + 60,
                producer: Name::new("bp"),
                transactions: vec![
                    tx(vec![
                        transfer("miner1", "eidosonecoin", 10_000),
                        transfer("eidosonecoin", "miner1", 10_000),
                        Action::token_transfer(
                            Name::new("eidosonecoin"),
                            Name::new("eidosonecoin"),
                            Name::new("miner1"),
                            SymCode::new("EIDOS"),
                            42,
                        ),
                    ]),
                    tx(vec![Action::new(
                        Name::new("eosio"),
                        Name::new("bidname"),
                        Name::new("alice"),
                        ActionData::Generic,
                    )]),
                ],
            },
            // Out-of-period block: only audited by the series.
            Block {
                num: 2,
                time: t0() + 3 * 86_400,
                producer: Name::new("bp"),
                transactions: vec![tx(vec![transfer("a", "b", 5)])],
            },
        ]
    }

    #[test]
    fn columnar_equals_scalar_sweep_outputs() {
        let blocks = blocks();
        let scalar = EosSweep::compute(&blocks, period());
        let columnar = EosColumnar::compute(&blocks, period());
        let flat = |s: &EosSweep| {
            let (rows, total) = s.action_distribution();
            (
                rows.iter()
                    .map(|r| (r.class, r.action.clone(), r.count))
                    .collect::<Vec<_>>(),
                total,
            )
        };
        assert_eq!(flat(&columnar), flat(&scalar));
        assert_eq!(columnar.tps(), scalar.tps());
        let boom = columnar.boomerang_report();
        assert_eq!(boom.boomerangs, 1);
        assert_eq!(boom.hub, Some(Name::new("eidosonecoin")));
        assert_eq!(
            columnar.graph().report(3).transfers,
            scalar.graph().report(3).transfers
        );
    }

    #[test]
    fn binary_columns_round_trip_preserves_finalized_outputs() {
        use super::super::wire::WireState;
        let blocks = blocks();
        let mut acc = EosColumnar::new(period());
        for b in &blocks {
            acc.observe(b);
        }
        let bytes = acc.to_wire_bytes();
        let back = EosColumnar::from_wire_bytes(&bytes).expect("valid columns");
        // Canonical: re-encoding the decoded state is byte-identical.
        assert_eq!(back.to_wire_bytes(), bytes);
        let (a, b) = (acc.finalize(), back.finalize());
        let flat = |s: &EosSweep| {
            let (rows, total) = s.action_distribution();
            (
                rows.iter()
                    .map(|r| (r.class, r.action.clone(), r.count))
                    .collect::<Vec<_>>(),
                total,
            )
        };
        assert_eq!(flat(&a), flat(&b));
        assert_eq!(a.tps(), b.tps());
        assert_eq!(
            a.top_received(5)
                .iter()
                .map(|r| (r.account, r.tx_count))
                .collect::<Vec<_>>(),
            b.top_received(5)
                .iter()
                .map(|r| (r.account, r.tx_count))
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            a.boomerang_report().boomerangs,
            b.boomerang_report().boomerangs
        );
    }

    #[test]
    fn binary_columns_reject_forged_ids_tags_and_arity() {
        use super::super::wire::WireState;
        let observed = || {
            let mut acc = EosColumnar::new(period());
            acc.observe(&blocks()[0]);
            acc
        };
        // An extra sent slot beyond the interner's id range.
        let mut acc = observed();
        acc.sent.add(acc.names.len() as u32 + 7, 1);
        assert!(EosColumnar::from_wire_bytes(&acc.to_wire_bytes()).is_err());
        // A tag table shorter than the interner.
        let mut acc = observed();
        acc.class_of.truncate(1);
        assert!(EosColumnar::from_wire_bytes(&acc.to_wire_bytes()).is_err());
        // A tag above TAG_OTHERS would index past by_class in observe() if
        // a decoded accumulator kept folding blocks.
        let mut acc = observed();
        acc.class_of[0] = TAG_OTHERS + 6;
        assert!(EosColumnar::from_wire_bytes(&acc.to_wire_bytes()).is_err());
    }

    #[test]
    fn split_merge_equals_whole() {
        let blocks = blocks();
        let mut left = EosColumnar::new(period());
        left.observe(&blocks[0]);
        let mut right = EosColumnar::new(period());
        right.observe(&blocks[1]);
        left.merge(right);
        let whole = EosColumnar::compute(&blocks, period());
        let merged = left.finalize();
        assert_eq!(
            merged.action_distribution().1,
            whole.action_distribution().1
        );
        assert_eq!(
            merged
                .top_received(5)
                .iter()
                .map(|r| (r.account, r.tx_count))
                .collect::<Vec<_>>(),
            whole
                .top_received(5)
                .iter()
                .map(|r| (r.account, r.tx_count))
                .collect::<Vec<_>>(),
        );
    }
}
