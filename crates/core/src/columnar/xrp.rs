//! Columnar XRP sweep: interned account ids, a per-ledger type/category
//! tag batch for the Figure 1/3c loops, id-indexed Figure 8 / Figure 12 /
//! §3.3 counters, and oracle-at-observe valuation — finalized into the
//! scalar [`XrpSweep`].

use super::tables::{IdVec, PairTable};
use super::{resolve_dense_series, resolve_pairs};
use crate::xrp_analysis::{Funnel, XrpSweep, XrpThroughputCat};
use std::collections::HashMap;
use txstat_types::amount::SymCode;
use txstat_types::intern::{FxHashMap, Interner};
use txstat_types::series::BucketSeries;
use txstat_types::time::{Period, SIX_HOURS};
use txstat_xrp::amount::Asset;
use txstat_xrp::ledger::LedgerBlock;
use txstat_xrp::rates::RateOracle;
use txstat_xrp::tx::{TxPayload, TxType};
use txstat_xrp::AccountId;

const CATS: [XrpThroughputCat; 4] = [
    XrpThroughputCat::Payment,
    XrpThroughputCat::OfferCreate,
    XrpThroughputCat::Others,
    XrpThroughputCat::Unsuccessful,
];

/// Figure 3c category tag per `(success, TxType as usize)`.
#[inline]
fn cat_tag(success: bool, type_tag: u8) -> u8 {
    if !success {
        3
    } else if type_tag == TxType::Payment as u8 {
        0
    } else if type_tag == TxType::OfferCreate as u8 {
        1
    } else {
        2
    }
}

/// The columnar XRP accumulator: same algebra as [`XrpSweep`] with every
/// account-keyed hot map id-indexed and the per-ledger classification
/// loops reading reused tag columns. The oracle is consulted per
/// transaction during the sweep (like the scalar path), so all merged
/// state stays integral.
#[derive(Debug, Clone)]
pub struct XrpColumnar {
    period: Period,
    accounts: Interner<AccountId>,
    type_counts: [u64; 13],
    type_total: u64,
    series: Vec<[u64; 4]>,
    series_oor: u64,
    payment_series: Vec<u64>,
    payment_oor: u64,
    funnel: Funnel,
    acct_offers: IdVec<u64>,
    acct_pays: IdVec<u64>,
    acct_others: IdVec<u64>,
    tags: PairTable,
    grand_total: u64,
    xrp_volume_drops: i128,
    sender_drops: IdVec<i128>,
    sender_touched: IdVec<u64>,
    receiver_drops: IdVec<i128>,
    receiver_touched: IdVec<u64>,
    /// The XRP row of the Figure 12 currency table: (nominal, valuable,
    /// drops) plus a presence counter so finalize only materializes the
    /// row when an XRP-delivering payment was actually observed.
    xrp_cur: (i128, i128, i128),
    xrp_cur_touched: u64,
    iou_cur: FxHashMap<SymCode, (i128, i128, i128)>,
    edges: PairTable,
    /// Reused per-ledger tag batch: `(TxType tag, Figure 3c category tag)`.
    tag_batch: Vec<(u8, u8)>,
}

impl XrpColumnar {
    /// The sweep identity for an observation window.
    pub fn new(period: Period) -> Self {
        let buckets = period.bucket_count(SIX_HOURS);
        XrpColumnar {
            period,
            accounts: Interner::new(),
            type_counts: [0; 13],
            type_total: 0,
            series: vec![[0; 4]; buckets],
            series_oor: 0,
            payment_series: vec![0; buckets],
            payment_oor: 0,
            funnel: Funnel::default(),
            acct_offers: IdVec::new(),
            acct_pays: IdVec::new(),
            acct_others: IdVec::new(),
            tags: PairTable::new(),
            grand_total: 0,
            xrp_volume_drops: 0,
            sender_drops: IdVec::new(),
            sender_touched: IdVec::new(),
            receiver_drops: IdVec::new(),
            receiver_touched: IdVec::new(),
            xrp_cur: (0, 0, 0),
            xrp_cur_touched: 0,
            iou_cur: FxHashMap::default(),
            edges: PairTable::new(),
            tag_batch: Vec::new(),
        }
    }

    /// The observation window this accumulator folds over. Partial sweeps
    /// are only mergeable over identical windows.
    pub fn period(&self) -> Period {
        self.period
    }

    /// Fold one ledger, valuing payments through `oracle`.
    pub fn observe(&mut self, b: &LedgerBlock, oracle: &RateOracle) {
        // Classification batch: one tag pair per transaction.
        let mut batch = std::mem::take(&mut self.tag_batch);
        batch.clear();
        batch.extend(b.transactions.iter().map(|tx| {
            let t = tx.tx.tx_type() as u8;
            (t, cat_tag(tx.result.is_success(), t))
        }));

        let in_period = self.period.contains(b.close_time);
        if in_period {
            let bucket = b.close_time.bucket_index(self.period.start, SIX_HOURS) as usize;
            let row = &mut self.series[bucket];
            for &(_, cat) in &batch {
                row[cat as usize] += 1;
            }
            // Successful payments are exactly category 0.
            self.payment_series[bucket] += batch.iter().filter(|(_, cat)| *cat == 0).count() as u64;
        } else {
            self.series_oor += batch.len() as u64;
            self.payment_oor += batch.iter().filter(|(_, cat)| *cat == 0).count() as u64;
            self.tag_batch = batch;
            return;
        }

        for &(type_tag, _) in &batch {
            self.type_counts[type_tag as usize] += 1;
        }
        self.type_total += batch.len() as u64;
        self.grand_total += batch.len() as u64;

        for tx in &b.transactions {
            let tx_type = tx.tx.tx_type();
            let account = self.accounts.intern(tx.tx.account);
            match tx_type {
                TxType::OfferCreate => self.acct_offers.add(account, 1),
                TxType::Payment => {
                    self.acct_pays.add(account, 1);
                    if let Some(tag) = tx.tx.destination_tag {
                        self.tags.add(account, tag, 1);
                    }
                }
                _ => self.acct_others.add(account, 1),
            }

            // Figure 7 funnel.
            self.funnel.total += 1;
            if !tx.result.is_success() {
                self.funnel.failed += 1;
                continue;
            }
            self.funnel.successful += 1;
            match tx_type {
                TxType::Payment => {
                    self.funnel.payments += 1;
                    let has_value = match &tx.delivered {
                        Some(a) => match a.asset {
                            Asset::Xrp => true,
                            Asset::Iou(ic) => oracle.has_value(ic),
                        },
                        None => false,
                    };
                    if has_value {
                        self.funnel.payments_with_value += 1;
                    } else {
                        self.funnel.payments_no_value += 1;
                    }
                }
                TxType::OfferCreate => {
                    self.funnel.offers += 1;
                    if tx.crossed {
                        self.funnel.offers_exchanged += 1;
                    } else {
                        self.funnel.offers_no_exchange += 1;
                    }
                }
                _ => self.funnel.others += 1,
            }

            // Figure 12 value flows + §5 graph (successful payments only).
            if tx_type != TxType::Payment {
                continue;
            }
            let destination = match &tx.tx.payload {
                TxPayload::Payment { destination, .. } => *destination,
                _ => continue,
            };
            let dest = self.accounts.intern(destination);
            self.edges.add(account, dest, 1);
            let delivered = match &tx.delivered {
                Some(a) => a,
                None => continue,
            };
            let (cur, valuable_drops) = match delivered.asset {
                Asset::Xrp => {
                    self.xrp_volume_drops += delivered.value;
                    (None, Some(delivered.value))
                }
                Asset::Iou(ic) => (
                    Some(ic.currency),
                    oracle
                        .value_in_drops(ic, delivered.value)
                        .filter(|d| *d > 0)
                        .map(|d| d as i128),
                ),
            };
            let c = match cur {
                None => {
                    self.xrp_cur_touched += 1;
                    &mut self.xrp_cur
                }
                Some(sym) => self.iou_cur.entry(sym).or_insert((0, 0, 0)),
            };
            c.0 += delivered.value;
            if let Some(drops) = valuable_drops {
                c.1 += delivered.value;
                c.2 += drops;
                self.sender_drops.add(account, drops);
                self.sender_touched.add(account, 1);
                self.receiver_drops.add(dest, drops);
                self.receiver_touched.add(dest, 1);
            }
        }
        self.tag_batch = batch;
    }

    /// Merge another partial sweep through the interner remap table.
    pub fn merge(&mut self, other: XrpColumnar) {
        let remap = self.accounts.absorb(&other.accounts);
        let r = |id: u32| remap[id as usize];
        for (a, b) in self.type_counts.iter_mut().zip(other.type_counts) {
            *a += b;
        }
        self.type_total += other.type_total;
        for (mine, theirs) in self.series.iter_mut().zip(&other.series) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.series_oor += other.series_oor;
        for (a, b) in self.payment_series.iter_mut().zip(&other.payment_series) {
            *a += b;
        }
        self.payment_oor += other.payment_oor;
        self.funnel.merge(other.funnel);
        self.acct_offers.merge_remap(&other.acct_offers, &remap);
        self.acct_pays.merge_remap(&other.acct_pays, &remap);
        self.acct_others.merge_remap(&other.acct_others, &remap);
        self.tags.merge_remap(&other.tags, r, |tag| tag);
        self.grand_total += other.grand_total;
        self.xrp_volume_drops += other.xrp_volume_drops;
        self.sender_drops.merge_remap(&other.sender_drops, &remap);
        self.sender_touched
            .merge_remap(&other.sender_touched, &remap);
        self.receiver_drops
            .merge_remap(&other.receiver_drops, &remap);
        self.receiver_touched
            .merge_remap(&other.receiver_touched, &remap);
        self.xrp_cur.0 += other.xrp_cur.0;
        self.xrp_cur.1 += other.xrp_cur.1;
        self.xrp_cur.2 += other.xrp_cur.2;
        self.xrp_cur_touched += other.xrp_cur_touched;
        for (sym, triple) in other.iou_cur {
            let e = self.iou_cur.entry(sym).or_insert((0, 0, 0));
            e.0 += triple.0;
            e.1 += triple.1;
            e.2 += triple.2;
        }
        self.edges.merge_remap(&other.edges, r, r);
    }

    /// Resolve ids and emit the scalar sweep.
    pub fn finalize(self) -> XrpSweep {
        let accounts = &self.accounts;
        let resolve = |id: u32| accounts.resolve(id);
        let mut type_counts: HashMap<TxType, u64> = HashMap::new();
        for (tag, n) in self.type_counts.iter().enumerate() {
            if *n > 0 {
                type_counts.insert(TxType::ALL[tag], *n);
            }
        }

        let mut per_account: HashMap<AccountId, (u64, u64, u64)> = HashMap::new();
        for id in 0..accounts.len() as u32 {
            let triple = (
                self.acct_offers.get(id),
                self.acct_pays.get(id),
                self.acct_others.get(id),
            );
            if triple != (0, 0, 0) {
                per_account.insert(resolve(id), triple);
            }
        }

        let drops_map = |drops: &IdVec<i128>, touched: &IdVec<u64>| -> HashMap<AccountId, i128> {
            touched
                .iter_nonzero()
                .map(|(id, _)| (resolve(id), drops.get(id)))
                .collect()
        };

        let mut currencies: HashMap<String, (i128, i128, i128)> = HashMap::new();
        for (sym, triple) in &self.iou_cur {
            let e = currencies
                .entry(sym.as_str().to_owned())
                .or_insert((0, 0, 0));
            e.0 += triple.0;
            e.1 += triple.1;
            e.2 += triple.2;
        }
        if self.xrp_cur_touched > 0 {
            let e = currencies.entry("XRP".to_owned()).or_insert((0, 0, 0));
            e.0 += self.xrp_cur.0;
            e.1 += self.xrp_cur.1;
            e.2 += self.xrp_cur.2;
        }

        let mut payment_series = BucketSeries::new(self.period, SIX_HOURS);
        for (i, n) in self.payment_series.iter().enumerate() {
            if *n > 0 {
                payment_series.record(self.period.bucket_start(i, SIX_HOURS), (), *n);
            }
        }
        if self.payment_oor > 0 {
            payment_series.record(self.period.start + (-1), (), self.payment_oor);
        }

        let mut graph = crate::graph::TransferGraph::new();
        for (f, t, n) in self.edges.iter() {
            graph.record_many(resolve(f), resolve(t), n);
        }

        XrpSweep {
            period: self.period,
            type_counts,
            type_total: self.type_total,
            series: resolve_dense_series(
                &self.series,
                self.series_oor,
                CATS,
                self.period,
                SIX_HOURS,
            ),
            funnel: self.funnel,
            per_account,
            tags: resolve_pairs(&self.tags, resolve, |tag| tag),
            grand_total: self.grand_total,
            xrp_volume_drops: self.xrp_volume_drops,
            sender_drops: drops_map(&self.sender_drops, &self.sender_touched),
            receiver_drops: drops_map(&self.receiver_drops, &self.receiver_touched),
            currencies,
            payment_series,
            graph,
        }
    }

    /// One columnar fold over the ledgers in order, finalized.
    pub fn compute(blocks: &[LedgerBlock], period: Period, oracle: &RateOracle) -> XrpSweep {
        let mut acc = XrpColumnar::new(period);
        for b in blocks {
            acc.observe(b, oracle);
        }
        acc.finalize()
    }
}

impl XrpColumnar {
    /// The decode-time hardening.
    fn validate(&self) -> Result<(), String> {
        use super::state::{check_idvec, check_pairs};
        let (n, n32) = (self.accounts.len(), self.accounts.len() as u32);
        check_idvec(&self.acct_offers, n, "acct_offers")?;
        check_idvec(&self.acct_pays, n, "acct_pays")?;
        check_idvec(&self.acct_others, n, "acct_others")?;
        check_idvec(&self.sender_drops, n, "sender_drops")?;
        check_idvec(&self.sender_touched, n, "sender_touched")?;
        check_idvec(&self.receiver_drops, n, "receiver_drops")?;
        check_idvec(&self.receiver_touched, n, "receiver_touched")?;
        // The second column of `tags` is a raw destination tag, not an id.
        check_pairs(&self.tags, n32, u32::MAX, "tags")?;
        check_pairs(&self.edges, n32, n32, "edges")?;
        Ok(())
    }
}

impl super::wire::WireState for XrpColumnar {
    /// Binary column sections in struct declaration order: the mergeable
    /// state; the per-ledger tag scratch is not state. The IOU currency
    /// table encodes in symbol order (canonical).
    fn encode_columns(&self, w: &mut txstat_types::colcodec::ColWriter) {
        use super::wire::{write_period, write_prefix, write_rows, TAG_XRP};
        write_prefix(w, TAG_XRP);
        write_period(w, self.period);
        self.accounts.encode_columns(w);
        for c in self.type_counts {
            w.u64(c);
        }
        w.u64(self.type_total);
        write_rows(w, &self.series);
        w.u64(self.series_oor);
        w.u64(self.payment_series.len() as u64);
        for v in &self.payment_series {
            w.u64(*v);
        }
        w.u64(self.payment_oor);
        self.funnel.encode_columns(w);
        self.acct_offers.encode_columns(w);
        self.acct_pays.encode_columns(w);
        self.acct_others.encode_columns(w);
        self.tags.encode_columns(w);
        w.u64(self.grand_total);
        w.i128(self.xrp_volume_drops);
        self.sender_drops.encode_columns(w);
        self.sender_touched.encode_columns(w);
        self.receiver_drops.encode_columns(w);
        self.receiver_touched.encode_columns(w);
        w.i128(self.xrp_cur.0);
        w.i128(self.xrp_cur.1);
        w.i128(self.xrp_cur.2);
        w.u64(self.xrp_cur_touched);
        let mut ious: Vec<(SymCode, (i128, i128, i128))> =
            self.iou_cur.iter().map(|(s, t)| (*s, *t)).collect();
        ious.sort_unstable_by_key(|(s, _)| *s);
        w.u64(ious.len() as u64);
        for (sym, (nominal, valuable, drops)) in ious {
            w.str(sym.as_str());
            w.i128(nominal);
            w.i128(valuable);
            w.i128(drops);
        }
        self.edges.encode_columns(w);
    }

    fn decode_columns(
        r: &mut txstat_types::colcodec::ColReader<'_>,
    ) -> Result<Self, txstat_types::colcodec::ColError> {
        use super::tables::{IdVec, PairTable};
        use super::wire::{read_period, read_prefix, read_rows, RESERVE_CAP, TAG_XRP};
        read_prefix(r, TAG_XRP)?;
        let period = read_period(r)?;
        let accounts = Interner::<AccountId>::decode_columns(r)?;
        let mut type_counts = [0u64; 13];
        for c in &mut type_counts {
            *c = r.u64()?;
        }
        let type_total = r.u64()?;
        let series = read_rows(r)?;
        let series_oor = r.u64()?;
        let n_payment = r.len(1)?;
        let mut payment_series = Vec::with_capacity(n_payment.min(RESERVE_CAP));
        for _ in 0..n_payment {
            payment_series.push(r.u64()?);
        }
        let payment_oor = r.u64()?;
        let funnel = Funnel::decode_columns(r)?;
        let acct_offers = IdVec::decode_columns(r)?;
        let acct_pays = IdVec::decode_columns(r)?;
        let acct_others = IdVec::decode_columns(r)?;
        let tags = PairTable::decode_columns(r)?;
        let grand_total = r.u64()?;
        let xrp_volume_drops = r.i128()?;
        let sender_drops = IdVec::decode_columns(r)?;
        let sender_touched = IdVec::decode_columns(r)?;
        let receiver_drops = IdVec::decode_columns(r)?;
        let receiver_touched = IdVec::decode_columns(r)?;
        let xrp_cur = (r.i128()?, r.i128()?, r.i128()?);
        let xrp_cur_touched = r.u64()?;
        let n_ious = r.len(4)?;
        let mut iou_cur = FxHashMap::default();
        for _ in 0..n_ious {
            let sym = SymCode::try_new(r.str()?)
                .map_err(|e| r.invalid(format!("bad currency symbol: {e}")))?;
            let triple = (r.i128()?, r.i128()?, r.i128()?);
            if iou_cur.insert(sym, triple).is_some() {
                return Err(r.invalid("duplicate currency in IOU table section"));
            }
        }
        let out = XrpColumnar {
            period,
            accounts,
            type_counts,
            type_total,
            series,
            series_oor,
            payment_series,
            payment_oor,
            funnel,
            acct_offers,
            acct_pays,
            acct_others,
            tags,
            grand_total,
            xrp_volume_drops,
            sender_drops,
            sender_touched,
            receiver_drops,
            receiver_touched,
            xrp_cur,
            xrp_cur_touched,
            iou_cur,
            edges: PairTable::decode_columns(r)?,
            tag_batch: Vec::new(),
        };
        out.validate().map_err(|m| r.invalid(m))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterInfo;
    use txstat_types::time::ChainTime;
    use txstat_xrp::amount::{Amount, IssuedCurrency, DROPS_PER_XRP, IOU_UNIT};
    use txstat_xrp::rates::TradeRecord;
    use txstat_xrp::tx::{AppliedTx, Transaction, TxResult};

    fn t0() -> ChainTime {
        ChainTime::from_ymd(2019, 10, 1)
    }

    fn period() -> Period {
        Period::new(t0(), ChainTime::from_ymd(2019, 10, 2))
    }

    fn oracle() -> RateOracle {
        RateOracle::from_trades(
            &[TradeRecord {
                time: t0(),
                currency: IssuedCurrency::new("USD", AccountId(1)),
                iou_value: 2 * IOU_UNIT,
                drops: 10 * DROPS_PER_XRP,
                maker: AccountId(1),
            }],
            ChainTime::from_ymd(2019, 10, 2),
            30,
        )
    }

    fn payment(from: u64, to: u64, amount: Amount, result: TxResult) -> AppliedTx {
        let delivered = result.is_success().then_some(amount);
        AppliedTx {
            tx: Transaction::new(
                AccountId(from),
                TxPayload::Payment {
                    destination: AccountId(to),
                    amount,
                    send_max: None,
                },
                10,
            ),
            result,
            delivered,
            crossed: false,
        }
    }

    #[test]
    fn columnar_matches_scalar_on_mixed_ledger() {
        let ora = oracle();
        let blocks = vec![
            LedgerBlock {
                index: 1,
                close_time: t0() + 60,
                transactions: vec![
                    payment(1, 2, Amount::xrp(100), TxResult::Success),
                    payment(
                        1,
                        3,
                        Amount::iou_whole("USD", AccountId(1), 50),
                        TxResult::Success,
                    ),
                    payment(
                        4,
                        2,
                        Amount::iou_whole("GKO", AccountId(9), 7),
                        TxResult::Success,
                    ),
                    payment(1, 2, Amount::xrp(5), TxResult::PathDry),
                    AppliedTx {
                        tx: Transaction::new(AccountId(5), TxPayload::SetRegularKey, 10),
                        result: TxResult::Success,
                        delivered: None,
                        crossed: false,
                    },
                ],
            },
            LedgerBlock {
                index: 2,
                close_time: t0() + 3 * 86_400, // out of period
                transactions: vec![payment(1, 2, Amount::xrp(9), TxResult::Success)],
            },
        ];
        let scalar = XrpSweep::compute(&blocks, period(), &ora);
        let columnar = XrpColumnar::compute(&blocks, period(), &ora);
        assert_eq!(columnar.tx_distribution().1, scalar.tx_distribution().1);
        let (f, lf) = (columnar.funnel(), scalar.funnel());
        assert_eq!(
            (
                f.total,
                f.failed,
                f.payments_with_value,
                f.payments_no_value
            ),
            (
                lf.total,
                lf.failed,
                lf.payments_with_value,
                lf.payments_no_value
            )
        );
        assert_eq!(
            columnar.throughput_series().out_of_range(),
            scalar.throughput_series().out_of_range()
        );
        let clu = ClusterInfo::new();
        let (flow, lflow) = (columnar.value_flow(&clu), scalar.value_flow(&clu));
        assert_eq!(flow.xrp_payment_volume, lflow.xrp_payment_volume);
        assert_eq!(flow.top_senders, lflow.top_senders);
        assert_eq!(flow.currencies, lflow.currencies);
        let (c, lc) = (columnar.concentration(), scalar.concentration());
        assert_eq!(c.accounts, lc.accounts);
        assert_eq!(c.single_tx_accounts, lc.single_tx_accounts);
        assert_eq!(c.gini, lc.gini);
        assert_eq!(
            columnar.graph().report(2).top_sinks,
            scalar.graph().report(2).top_sinks
        );
    }

    #[test]
    fn binary_columns_round_trip_canonically() {
        use super::super::wire::WireState;
        let ora = oracle();
        let block = LedgerBlock {
            index: 1,
            close_time: t0() + 60,
            transactions: vec![
                payment(1, 2, Amount::xrp(100), TxResult::Success),
                payment(
                    1,
                    3,
                    Amount::iou_whole("USD", AccountId(1), 50),
                    TxResult::Success,
                ),
                payment(
                    4,
                    2,
                    Amount::iou_whole("GKO", AccountId(9), 7),
                    TxResult::Success,
                ),
                payment(1, 2, Amount::xrp(5), TxResult::PathDry),
            ],
        };
        let mut acc = XrpColumnar::new(period());
        acc.observe(&block, &ora);
        let bytes = acc.to_wire_bytes();
        let back = XrpColumnar::from_wire_bytes(&bytes).expect("valid columns");
        assert_eq!(back.to_wire_bytes(), bytes);
        let (a, b) = (acc.finalize(), back.finalize());
        assert_eq!(a.tx_distribution().1, b.tx_distribution().1);
        let clu = ClusterInfo::new();
        assert_eq!(a.value_flow(&clu).currencies, b.value_flow(&clu).currencies);
        assert_eq!(
            a.funnel().payments_with_value,
            b.funnel().payments_with_value
        );
        assert_eq!(a.tps(), b.tps());
    }
}
