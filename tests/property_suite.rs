//! Workspace-level property tests, exercised through the public facade:
//! the primitives' laws (civil dates, LZSS, bucket series, `TopK`, names),
//! the ledgers' conservation invariants (paper §2: what each chain's
//! state machine guarantees), and the analytics engine's equivalence with
//! its scalar reference fold (`txstat_core`'s module doc).

// EOS asset literals group as <whole>_<4 decimals> on purpose; the flatten
// helpers in the equivalence suite trade type brevity for exact comparisons.
#![allow(clippy::inconsistent_digit_grouping, clippy::type_complexity)]

use proptest::prelude::*;
use txstat::eos::{Name, RamMarket};
use txstat::types::time::{civil_from_days, days_from_civil, ChainTime, Period};
use txstat::types::{lzss, BucketSeries, TopK, SIX_HOURS};
use txstat::xrp::{
    Amount, AccountId, Asset, IssuedCurrency, LedgerConfig, Transaction, TxPayload, XrpLedger,
    DROPS_PER_XRP,
};

proptest! {
    /// Civil-date math: days ↔ (y, m, d) roundtrips over ±120 years.
    #[test]
    fn civil_date_roundtrip(z in -43_800i64..43_800) {
        let (y, m, d) = civil_from_days(z);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
        prop_assert_eq!(days_from_civil(y, m, d), z);
    }

    /// Month lengths are respected (no Feb 30 etc.).
    #[test]
    fn civil_date_month_lengths(z in -43_800i64..43_800) {
        let (y, m, d) = civil_from_days(z);
        let leap = (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
        let max_d = match m {
            2 => if leap { 29 } else { 28 },
            4 | 6 | 9 | 11 => 30,
            _ => 31,
        };
        prop_assert!(d <= max_d, "{y}-{m}-{d}");
    }

    /// LZSS: arbitrary bytes roundtrip; output bounded by 9/8·n + ε.
    #[test]
    fn lzss_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let compressed = lzss::compress(&data);
        prop_assert!(compressed.len() <= data.len() + data.len() / 8 + 2);
        prop_assert_eq!(lzss::decompress(&compressed, data.len()).expect("valid stream"), data);
    }

    /// LZSS decompression never panics on arbitrary (possibly corrupt) input.
    #[test]
    fn lzss_decompress_total(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = lzss::decompress(&data, 4096);
    }

    /// Every event lands in exactly one bucket and bucket sums equal totals.
    #[test]
    fn bucket_sums_equal_totals(offsets in proptest::collection::vec(0i64..(92 * 86_400), 1..200)) {
        let period = Period::paper();
        let mut series: BucketSeries<&str> = BucketSeries::six_hourly(period);
        for o in &offsets {
            series.record(period.start + *o, "x", 1);
        }
        let sum: u64 = (0..series.bucket_count()).map(|i| series.bucket_total(i)).sum();
        prop_assert_eq!(sum, offsets.len() as u64);
        prop_assert_eq!(series.total(), offsets.len() as u64);
        prop_assert_eq!(series.out_of_range(), 0);
        // Bucket indices are within range for all in-period instants.
        for o in &offsets {
            let idx = (period.start + *o).bucket_index(period.start, SIX_HOURS);
            prop_assert!((0..series.bucket_count() as i64).contains(&idx));
        }
    }

    /// TopK matches an exact sort on random streams.
    #[test]
    fn topk_matches_exact_sort(items in proptest::collection::vec(0u8..20, 1..300)) {
        let mut topk = TopK::new();
        let mut exact = std::collections::HashMap::new();
        for i in &items {
            topk.inc(*i);
            *exact.entry(*i).or_insert(0u64) += 1;
        }
        let mut sorted: Vec<(u8, u64)> = exact.into_iter().collect();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        sorted.truncate(5);
        prop_assert_eq!(topk.top(5), sorted);
    }

    /// EOS names: parse(render(x)) is identity over the raw u64 space of
    /// valid names (generated from strings).
    #[test]
    fn eos_name_stability(s in "[a-z1-5]{1,12}") {
        let n = Name::parse(&s).expect("valid name");
        let rendered = n.to_string_repr();
        prop_assert_eq!(Name::parse(&rendered).expect("still valid"), n);
        // Same-length names order like their strings (on-chain table order).
        prop_assert_eq!(rendered, s);
    }

    /// RAM market: a buy-then-sell round trip never mints EOS or RAM.
    #[test]
    fn ram_market_no_minting(
        reserve_ram in 1_000_000u64..100_000_000,
        reserve_eos in 1_000_0000i64..1_000_000_0000,
        spend in 1_0000i64..100_000_0000,
    ) {
        let mut m = RamMarket::new(reserve_ram, reserve_eos);
        let bytes = match m.buy_bytes(spend) {
            Ok(b) => b,
            Err(_) => return Ok(()),
        };
        prop_assert!(bytes < reserve_ram, "cannot drain the reserve");
        if bytes == 0 {
            return Ok(());
        }
        let refund = m.sell_bytes(bytes).expect("sell back");
        prop_assert!(refund <= spend, "round trip loses fees: {refund} vs {spend}");
    }

    /// XRP ledger: a random stream of payments conserves drops exactly
    /// (balances + locked + burned == supply), regardless of failures.
    #[test]
    fn xrp_random_payments_conserve(
        ops in proptest::collection::vec((0u64..6, 0u64..6, 1i64..100_000), 1..60)
    ) {
        let mut ledger = XrpLedger::new(LedgerConfig::default());
        for i in 1..=5u64 {
            ledger.bootstrap_account(AccountId(i), 1_000 * DROPS_PER_XRP, None);
        }
        let now = ledger.config.genesis_time;
        for (f, t, amount) in ops {
            let tx = Transaction::new(
                AccountId(f + 1),
                TxPayload::Payment {
                    destination: AccountId(t + 1),
                    amount: Amount::xrp_drops(amount * 1_000),
                    send_max: None,
                },
                10,
            );
            let _ = ledger.submit(tx, now);
            ledger.check_conservation().map_err(TestCaseError::fail)?;
        }
    }

    /// XRP ledger: random offer streams keep books sorted and IOU
    /// obligations consistent.
    #[test]
    fn xrp_random_offers_consistent(
        ops in proptest::collection::vec((0u64..4, 1i64..500, 1i64..500, any::<bool>()), 1..40)
    ) {
        let mut ledger = XrpLedger::new(LedgerConfig::default());
        let issuer = AccountId(1);
        for i in 1..=4u64 {
            ledger.bootstrap_account(AccountId(i), 10_000 * DROPS_PER_XRP, None);
        }
        for i in 2..=4u64 {
            ledger.bootstrap_iou(AccountId(i), IssuedCurrency::new("USD", issuer), 1_000_000_000);
        }
        let now = ledger.config.genesis_time;
        let usd = Asset::Iou(IssuedCurrency::new("USD", issuer));
        for (a, gets, pays, direction) in ops {
            let account = AccountId(a + 1);
            let (g, p) = if direction {
                (Amount { asset: usd, value: gets as i128 * 1_000 }, Amount::xrp_drops(pays * 1_000))
            } else {
                (Amount::xrp_drops(gets * 1_000), Amount { asset: usd, value: pays as i128 * 1_000 })
            };
            let tx = Transaction::new(account, TxPayload::OfferCreate { gets: g, pays: p }, 10);
            let _ = ledger.submit(tx, now);
            ledger.check_conservation().map_err(TestCaseError::fail)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Engine equivalence: the columnar sweeps — one-shot, split and merged,
// delta-folded — must reproduce the scalar reference fold
// (`*Sweep::compute`) bit for bit on every accessor, and the merge algebra
// of both must satisfy identity/associativity/commutativity on split block
// ranges. ("legacy" in six test names means that reference fold: the
// names are pinned by the tier-1 floor list.)
// ---------------------------------------------------------------------------

mod fused {
    use proptest::prelude::*;
    use txstat::core::eos_analysis::EosLabels;
    use txstat::core::{ClusterInfo, EosColumnar, EosSweep, TezosSweep, XrpSweep};
    use txstat::eos::{Action, ActionData, Block, Name, Transaction};
    use txstat::tezos::{Address, OpPayload, Operation, PeriodKind, TezosBlock, Vote};
    use txstat::types::amount::SymCode;
    use txstat::types::time::{ChainTime, Period};
    use txstat::types::BucketSeries;
    use txstat::xrp::{
        AccountId, Amount, AppliedTx, IssuedCurrency, LedgerBlock, RateOracle, TradeRecord,
        TxPayload, TxResult, DROPS_PER_XRP, IOU_UNIT,
    };

    fn t0() -> ChainTime {
        ChainTime::from_ymd(2019, 10, 1)
    }

    fn window() -> Period {
        Period::new(t0(), ChainTime::from_ymd(2019, 10, 4))
    }

    /// Block times stride 2 hours starting *before* the window, so every
    /// random scenario exercises the out-of-period paths too.
    fn block_time(i: usize) -> ChainTime {
        t0() + (i as i64 - 3) * 7_200
    }

    // ---- EOS ---------------------------------------------------------------

    /// Action spec: (kind, actor, peer, amount).
    type EosSpec = (u8, u8, u8, i64);

    fn eos_name(i: u8) -> Name {
        Name::parse(&format!("acct{}", (b'a' + i % 8) as char)).expect("valid name")
    }

    fn eos_action((kind, a, b, amount): EosSpec) -> Action {
        let (actor, peer) = (eos_name(a), eos_name(b));
        match kind % 6 {
            0 | 1 => Action::token_transfer(
                Name::new("eosio.token"),
                actor,
                peer,
                SymCode::new(if kind == 0 { "EOS" } else { "EIDOS" }),
                amount,
            ),
            2 => Action::new(
                Name::new("whaleextrust"),
                Name::new("verifytrade2"),
                actor,
                ActionData::Trade {
                    buyer: actor,
                    seller: peer,
                    base_symbol: SymCode::new("PLA"),
                    base_amount: amount,
                    quote_symbol: SymCode::new("EOS"),
                    quote_amount: amount / 2 + 1,
                },
            ),
            3 => Action::new(Name::new("eosio"), Name::new("bidname"), actor, ActionData::Generic),
            4 => Action::new(Name::new("eosio"), Name::new("delegatebw"), actor, ActionData::Generic),
            _ => Action::new(peer, Name::new("play"), actor, ActionData::Generic),
        }
    }

    fn eos_blocks(spec: &[Vec<Vec<EosSpec>>]) -> Vec<Block> {
        spec.iter()
            .enumerate()
            .map(|(i, txs)| Block {
                num: 1 + i as u64,
                time: block_time(i),
                producer: Name::new("bp"),
                transactions: txs
                    .iter()
                    .enumerate()
                    .map(|(j, actions)| Transaction {
                        id: (i * 100 + j) as u64,
                        actions: actions.iter().map(|s| eos_action(*s)).collect(),
                        cpu_us: 100,
                        net_bytes: 128,
                    })
                    .collect(),
            })
            .collect()
    }

    fn eos_strategy() -> impl Strategy<Value = Vec<Vec<Vec<EosSpec>>>> {
        proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0u8..8, 0u8..8, 1i64..50), 0..5),
                0..5,
            ),
            1..12,
        )
    }

    /// One accessor's output, rendered: every result type derives `Debug`
    /// and `f64` prints its shortest round-trip form, so equal renderings
    /// are bit-equal outputs.
    type Battery = Vec<(&'static str, String)>;

    fn same_battery(mine: Battery, reference: Battery) -> Result<(), TestCaseError> {
        prop_assert_eq!(mine.len(), reference.len());
        for ((accessor, mine), (_, reference)) in mine.iter().zip(&reference) {
            prop_assert_eq!(mine, reference, "{}", accessor);
        }
        Ok(())
    }

    /// A bucket series in a hash-order-free shape.
    fn series_rows<K: Eq + std::hash::Hash + Clone + Ord + std::fmt::Debug>(
        series: &BucketSeries<K>,
    ) -> String {
        let rows: Vec<_> = series
            .categories_sorted()
            .into_iter()
            .map(|cat| (cat.clone(), series.series_for(&cat)))
            .collect();
        format!("{:?}", (series.total(), series.out_of_range(), rows))
    }

    /// Every figure-shaped EOS accessor.
    fn eos_battery(sweep: &EosSweep) -> Battery {
        let curated = EosLabels::curated();
        let labels = sweep.labels(100, &|n| curated.get(n));
        vec![
            ("action_distribution", format!("{:?}", sweep.action_distribution())),
            ("throughput_series", series_rows(&sweep.throughput_series(&labels))),
            ("top_received", format!("{:?}", sweep.top_received(5))),
            ("top_senders", format!("{:?}", sweep.top_senders(5))),
            ("wash_trading_report", format!("{:?}", sweep.wash_trading_report())),
            ("boomerang_report", format!("{:?}", sweep.boomerang_report())),
            ("tps", format!("{:?}", sweep.tps())),
            ("graph", format!("{:?}", sweep.graph().report(3))),
        ]
    }

    /// `sweep` — however it was produced — equals the scalar reference fold
    /// of the same blocks on every accessor.
    fn assert_eos_equiv(sweep: &EosSweep, blocks: &[Block], period: Period) -> Result<(), TestCaseError> {
        same_battery(eos_battery(sweep), eos_battery(&EosSweep::compute(blocks, period)))
    }

    proptest! {
        /// The columnar EOS sweep (interned ids, batched classification,
        /// remap merges) finalizes to the same outputs as the scalar
        /// reference fold.
        #[test]
        fn eos_columnar_equals_legacy_scans(spec in eos_strategy()) {
            let blocks = eos_blocks(&spec);
            let sweep = EosColumnar::compute(&blocks, window());
            assert_eos_equiv(&sweep, &blocks, window())?;
        }

        /// Columnar merge algebra: split-range remap merges at any pivot
        /// (and in commuted order) finalize to the whole-range result —
        /// even though the two sides' interners assign different ids.
        #[test]
        fn eos_columnar_merge_algebra(spec in eos_strategy(), pivot in 0usize..12) {
            let blocks = eos_blocks(&spec);
            let pivot = pivot.min(blocks.len());
            let fold = |range: &[Block]| {
                let mut acc = EosColumnar::new(window());
                for b in range {
                    acc.observe(b);
                }
                acc
            };
            let mut split = fold(&blocks[..pivot]);
            split.merge(fold(&blocks[pivot..]));
            assert_eos_equiv(&split.finalize(), &blocks, window())?;

            let mut commuted = fold(&blocks[pivot..]);
            commuted.merge(fold(&blocks[..pivot]));
            assert_eos_equiv(&commuted.finalize(), &blocks, window())?;

            let mut with_identity = EosColumnar::new(window());
            with_identity.merge(fold(&blocks));
            assert_eos_equiv(&with_identity.finalize(), &blocks, window())?;
        }

        /// merge(identity, x) == x, and split-range merges at any pivot (plus
        /// the reversed, "commuted" order) equal the whole-range sweep.
        #[test]
        fn eos_merge_algebra(spec in eos_strategy(), pivot in 0usize..12) {
            let blocks = eos_blocks(&spec);
            let pivot = pivot.min(blocks.len());
            let whole = EosSweep::compute(&blocks, window());

            let mut with_identity = EosSweep::new(window());
            with_identity.merge(whole.clone());
            assert_eos_equiv(&with_identity, &blocks, window())?;

            let mut split = EosSweep::compute(&blocks[..pivot], window());
            split.merge(EosSweep::compute(&blocks[pivot..], window()));
            assert_eos_equiv(&split, &blocks, window())?;

            let mut commuted = EosSweep::compute(&blocks[pivot..], window());
            commuted.merge(EosSweep::compute(&blocks[..pivot], window()));
            assert_eos_equiv(&commuted, &blocks, window())?;
        }
    }

    // ---- Tezos -------------------------------------------------------------

    /// Operation spec: (kind, source, peer).
    type TzSpec = (u8, u8, u8);

    fn tz_op((kind, src, peer): TzSpec) -> Operation {
        let source = Address::implicit(100 + src as u64);
        match kind % 6 {
            0 | 1 => Operation::new(source, OpPayload::Endorsement { level: 1, slots: 16 }),
            2 | 3 => Operation::new(
                source,
                OpPayload::Transaction {
                    destination: Address::implicit(200 + peer as u64),
                    amount_mutez: 1_000,
                },
            ),
            4 => Operation::new(
                source,
                OpPayload::Ballot {
                    proposal: "PsBabyM1".into(),
                    vote: match peer % 3 {
                        0 => Vote::Yay,
                        1 => Vote::Nay,
                        _ => Vote::Pass,
                    },
                },
            ),
            _ => Operation::new(
                source,
                OpPayload::Proposals { proposals: vec![format!("Prop{}", peer % 2)] },
            ),
        }
    }

    fn tz_blocks(spec: &[Vec<TzSpec>]) -> Vec<TezosBlock> {
        spec.iter()
            .enumerate()
            .map(|(i, ops)| TezosBlock {
                level: 100 + i as u64,
                time: block_time(i),
                baker: Address::implicit(1),
                operations: ops.iter().map(|s| tz_op(*s)).collect(),
            })
            .collect()
    }

    fn tz_periods() -> Vec<(PeriodKind, Period)> {
        // Two windows tiling the block-time range: proposals then promotion.
        let mid = t0() + 86_400;
        vec![
            (PeriodKind::Proposal, Period::new(t0() + -86_400, mid)),
            (PeriodKind::Promotion, Period::new(mid, t0() + 4 * 86_400)),
        ]
    }

    fn tz_rolls() -> std::collections::HashMap<Address, u64> {
        (0..8u64).map(|i| (Address::implicit(100 + i), 100 + i * 37)).collect()
    }

    /// Every figure-shaped Tezos accessor.
    fn tz_battery(sweep: &TezosSweep) -> Battery {
        vec![
            ("op_distribution", format!("{:?}", sweep.op_distribution())),
            ("throughput_series", series_rows(sweep.throughput_series())),
            ("top_senders", format!("{:?}", sweep.top_senders(4))),
            ("governance_curves", format!("{:?}", sweep.governance_curves(&tz_rolls()))),
            ("governance_op_count", format!("{:?}", sweep.governance_op_count())),
            ("tps", format!("{:?}", sweep.tps())),
        ]
    }

    fn assert_tz_equiv(
        sweep: &TezosSweep,
        blocks: &[TezosBlock],
        period: Period,
    ) -> Result<(), TestCaseError> {
        same_battery(
            tz_battery(sweep),
            tz_battery(&TezosSweep::compute(blocks, period, &tz_periods())),
        )
    }

    fn tz_strategy() -> impl Strategy<Value = Vec<Vec<TzSpec>>> {
        proptest::collection::vec(
            proptest::collection::vec((0u8..6, 0u8..8, 0u8..8), 0..8),
            1..12,
        )
    }

    proptest! {
        /// The columnar Tezos sweep finalizes to the same outputs as the
        /// scalar reference fold, at any merge pivot.
        #[test]
        fn tezos_columnar_equals_legacy_scans(spec in tz_strategy(), pivot in 0usize..12) {
            use txstat::core::TezosColumnar;
            let blocks = tz_blocks(&spec);
            let sweep = TezosColumnar::compute(&blocks, window(), &tz_periods());
            assert_tz_equiv(&sweep, &blocks, window())?;

            let pivot = pivot.min(blocks.len());
            let fold = |range: &[TezosBlock]| {
                let mut acc = TezosColumnar::new(window(), tz_periods());
                for b in range {
                    acc.observe(b);
                }
                acc
            };
            let mut split = fold(&blocks[..pivot]);
            split.merge(fold(&blocks[pivot..]));
            assert_tz_equiv(&split.finalize(), &blocks, window())?;
        }

        /// Identity/split-merge/commuted-merge algebra for the Tezos sweep.
        #[test]
        fn tezos_merge_algebra(spec in tz_strategy(), pivot in 0usize..12) {
            let blocks = tz_blocks(&spec);
            let pivot = pivot.min(blocks.len());
            let whole = TezosSweep::compute(&blocks, window(), &tz_periods());

            let mut with_identity = TezosSweep::new(window(), tz_periods());
            with_identity.merge(whole.clone());
            assert_tz_equiv(&with_identity, &blocks, window())?;

            let mut split = TezosSweep::compute(&blocks[..pivot], window(), &tz_periods());
            split.merge(TezosSweep::compute(&blocks[pivot..], window(), &tz_periods()));
            assert_tz_equiv(&split, &blocks, window())?;
        }
    }

    // ---- XRP ---------------------------------------------------------------

    /// Transaction spec: (kind, account, peer, whole-units).
    type XSpec = (u8, u8, u8, i64);

    fn oracle() -> RateOracle {
        let trades = vec![
            TradeRecord {
                time: t0(),
                currency: IssuedCurrency::new("USD", AccountId(1)),
                iou_value: 2 * IOU_UNIT,
                drops: 10 * DROPS_PER_XRP,
                maker: AccountId(1),
            },
            TradeRecord {
                time: t0() + 3_600,
                currency: IssuedCurrency::new("BTC", AccountId(2)),
                iou_value: IOU_UNIT,
                drops: 30_000 * DROPS_PER_XRP,
                maker: AccountId(2),
            },
        ];
        RateOracle::from_trades(&trades, ChainTime::from_ymd(2019, 10, 4), 30)
    }

    fn cluster() -> ClusterInfo {
        let mut c = ClusterInfo::new();
        c.insert(AccountId(10), Some("Binance".into()), None);
        c.insert(AccountId(11), None, Some(AccountId(10)));
        c.insert(AccountId(12), Some("Huobi".into()), None);
        c
    }

    fn x_tx((kind, account, peer, units): XSpec) -> AppliedTx {
        let account_id = AccountId(10 + account as u64);
        let dest = AccountId(10 + peer as u64);
        let applied = |payload, result: TxResult, delivered, crossed| AppliedTx {
            tx: txstat::xrp::Transaction::new(account_id, payload, 10),
            result,
            delivered,
            crossed,
        };
        match kind % 8 {
            0 | 1 => {
                let amt = Amount::xrp(units);
                applied(
                    TxPayload::Payment { destination: dest, amount: amt, send_max: None },
                    TxResult::Success,
                    Some(amt),
                    false,
                )
            }
            2 => {
                // Rated IOU payment (USD@1 has oracle value).
                let amt = Amount::iou_whole("USD", AccountId(1), units);
                applied(
                    TxPayload::Payment { destination: dest, amount: amt, send_max: None },
                    TxResult::Success,
                    Some(amt),
                    false,
                )
            }
            3 => {
                // Unrated IOU payment: nominal only.
                let amt = Amount::iou_whole("GKO", AccountId(9), units);
                applied(
                    TxPayload::Payment { destination: dest, amount: amt, send_max: None },
                    TxResult::Success,
                    Some(amt),
                    false,
                )
            }
            4 => applied(
                TxPayload::Payment {
                    destination: dest,
                    amount: Amount::xrp(units),
                    send_max: None,
                },
                TxResult::PathDry,
                None,
                false,
            ),
            5 | 6 => {
                let mut tx = applied(
                    TxPayload::OfferCreate {
                        gets: Amount::xrp(units),
                        pays: Amount::iou_whole("USD", AccountId(1), units / 5 + 1),
                    },
                    TxResult::Success,
                    None,
                    kind == 5,
                );
                if peer % 3 == 0 {
                    tx.tx.destination_tag = Some(104_398);
                }
                tx
            }
            _ => applied(TxPayload::SetRegularKey, TxResult::Success, None, false),
        }
    }

    fn x_blocks(spec: &[Vec<XSpec>]) -> Vec<LedgerBlock> {
        spec.iter()
            .enumerate()
            .map(|(i, txs)| LedgerBlock {
                index: 50_000 + i as u64,
                close_time: block_time(i),
                transactions: txs.iter().map(|s| x_tx(*s)).collect(),
            })
            .collect()
    }

    fn x_strategy() -> impl Strategy<Value = Vec<Vec<XSpec>>> {
        proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u8..6, 0u8..6, 1i64..500), 0..8),
            1..12,
        )
    }

    /// Every figure-shaped XRP accessor.
    fn x_battery(sweep: &XrpSweep) -> Battery {
        let clu = cluster();
        vec![
            ("tx_distribution", format!("{:?}", sweep.tx_distribution())),
            ("throughput_series", series_rows(sweep.throughput_series())),
            ("funnel", format!("{:?}", sweep.funnel())),
            ("most_active", format!("{:?}", sweep.most_active(6, &clu))),
            ("value_flow", format!("{:?}", sweep.value_flow(&clu))),
            ("payment_spike_buckets", format!("{:?}", sweep.payment_spike_buckets(3.0))),
            ("concentration", format!("{:?}", sweep.concentration())),
            ("tps", format!("{:?}", sweep.tps())),
            ("graph", format!("{:?}", sweep.graph().report(3))),
        ]
    }

    fn assert_x_equiv(
        sweep: &XrpSweep,
        blocks: &[LedgerBlock],
        period: Period,
    ) -> Result<(), TestCaseError> {
        same_battery(x_battery(sweep), x_battery(&XrpSweep::compute(blocks, period, &oracle())))
    }

    proptest! {
        /// The columnar XRP sweep finalizes to the same outputs as the
        /// scalar reference fold, at any merge pivot.
        #[test]
        fn xrp_columnar_equals_legacy_scans(spec in x_strategy(), pivot in 0usize..12) {
            use txstat::core::XrpColumnar;
            let blocks = x_blocks(&spec);
            let ora = oracle();
            let sweep = XrpColumnar::compute(&blocks, window(), &ora);
            assert_x_equiv(&sweep, &blocks, window())?;

            let pivot = pivot.min(blocks.len());
            let fold = |range: &[LedgerBlock]| {
                let mut acc = XrpColumnar::new(window());
                for b in range {
                    acc.observe(b, &ora);
                }
                acc
            };
            let mut split = fold(&blocks[..pivot]);
            split.merge(fold(&blocks[pivot..]));
            assert_x_equiv(&split.finalize(), &blocks, window())?;
        }

        /// Identity/split-merge/commuted-merge algebra for the XRP sweep.
        #[test]
        fn xrp_merge_algebra(spec in x_strategy(), pivot in 0usize..12) {
            let blocks = x_blocks(&spec);
            let pivot = pivot.min(blocks.len());
            let ora = oracle();
            let whole = XrpSweep::compute(&blocks, window(), &ora);

            let mut with_identity = XrpSweep::new(window());
            with_identity.merge(whole.clone());
            assert_x_equiv(&with_identity, &blocks, window())?;

            let mut split = XrpSweep::compute(&blocks[..pivot], window(), &ora);
            split.merge(XrpSweep::compute(&blocks[pivot..], window(), &ora));
            assert_x_equiv(&split, &blocks, window())?;

            let mut commuted = XrpSweep::compute(&blocks[pivot..], window(), &ora);
            commuted.merge(XrpSweep::compute(&blocks[..pivot], window(), &ora));
            assert_x_equiv(&commuted, &blocks, window())?;
        }
    }

    // ---- Streamed sharded ingestion ----------------------------------------
    //
    // The `txstat_ingest` shard pool — blocks through bounded channels into
    // per-shard accumulators, shards merged in index order — must equal
    // `par_sweep` over the materialized slice for random shard counts and
    // channel capacities. The pool is generic over the accumulator; it is
    // exercised here on the scalar reference fold (the streamed columnar
    // report is pinned end to end in `tests/streamed_ingest.rs`).

    /// Stream `blocks` through a sharded pool and merge the shards.
    fn stream_sharded<B, A>(
        blocks: Vec<(u64, B)>,
        shards: usize,
        capacity: usize,
        identity: impl Fn() -> A + Send + Sync + 'static,
        observe: impl Fn(&mut A, u64, &B) + Send + Sync + 'static,
        merge: impl FnMut(&mut A, A),
    ) -> A
    where
        B: Send + 'static,
        A: Send + 'static,
    {
        use txstat::ingest::{spawn_sharded, IngestOptions};
        tokio::runtime::block_on(async move {
            let opts = IngestOptions { shards, channel_capacity: capacity, label: "" };
            let (sink, pool) = spawn_sharded(opts, identity, observe);
            // Dropping the sink with the task is what ends the stream.
            let producer = tokio::spawn(async move {
                for (n, b) in blocks {
                    assert!(sink.send(n, b).await.is_ok(), "shard pool closed mid-stream");
                }
            });
            let out = pool.finish().await;
            producer.await.expect("producer task");
            out.merged(merge)
        })
    }

    proptest! {
        /// EOS: streamed sharded ingestion == par_sweep.
        #[test]
        fn eos_streamed_equals_sweep_and_legacy(
            spec in eos_strategy(),
            shards in 1usize..5,
            capacity in 1usize..8,
        ) {
            let blocks = eos_blocks(&spec);
            let streamed = stream_sharded(
                blocks.iter().map(|b| (b.num, b.clone())).collect(),
                shards,
                capacity,
                move || EosSweep::new(window()),
                |acc: &mut EosSweep, _n, b: &Block| acc.observe(b),
                |a, b| a.merge(b),
            );
            // == par_sweep over the materialized slice (full battery).
            assert_eos_equiv(&streamed, &blocks, window())?;
        }

        /// XRP: streamed sharded ingestion (oracle-valued observes) ==
        /// par_sweep.
        #[test]
        fn xrp_streamed_equals_sweep_and_legacy(
            spec in x_strategy(),
            shards in 1usize..5,
            capacity in 1usize..8,
        ) {
            let blocks = x_blocks(&spec);
            let shard_ora = oracle();
            let streamed = stream_sharded(
                blocks.iter().map(|b| (b.index, b.clone())).collect(),
                shards,
                capacity,
                move || XrpSweep::new(window()),
                move |acc: &mut XrpSweep, _n, b: &LedgerBlock| acc.observe(b, &shard_ora),
                |a, b| a.merge(b),
            );
            assert_x_equiv(&streamed, &blocks, window())?;
        }

        /// Tezos: streamed sharded ingestion == par_sweep.
        #[test]
        fn tezos_streamed_equals_legacy(
            spec in tz_strategy(),
            shards in 1usize..5,
            capacity in 1usize..8,
        ) {
            let blocks = tz_blocks(&spec);
            let streamed = stream_sharded(
                blocks.iter().map(|b| (b.level, b.clone())).collect(),
                shards,
                capacity,
                move || TezosSweep::new(window(), tz_periods()),
                |acc: &mut TezosSweep, _n, b: &TezosBlock| acc.observe(b),
                |a, b| a.merge(b),
            );
            assert_tz_equiv(&streamed, &blocks, window())?;
        }

        /// Incremental re-sweep groundwork: a range-keyed checkpoint of the
        /// shard states, extended with only the tail, equals the full sweep.
        #[test]
        fn eos_checkpoint_tail_equals_full_sweep(
            spec in eos_strategy(),
            pivot in 0usize..12,
            shards in 1usize..4,
        ) {
            let blocks = eos_blocks(&spec);
            let pivot = pivot.min(blocks.len());
            let mut cp = txstat::ingest::Checkpoint::new(vec![EosSweep::new(window()); shards], 1);
            let observe = |a: &mut EosSweep, _n: u64, b: &&Block| a.observe(b);
            cp.observe_tail(blocks[..pivot].iter().map(|b| (b.num, b)), observe)
                .expect("prefix is ascending");
            // Appending the tail re-observes only the new blocks.
            cp.observe_tail(blocks[pivot..].iter().map(|b| (b.num, b)), observe)
                .expect("tail extends the range");
            prop_assert_eq!(cp.observed(), blocks.len() as u64);
            let merged = cp.merged(|a, b| a.merge(b));
            assert_eos_equiv(&merged, &blocks, window())?;
            // Re-observing the prefix is rejected (would double-count).
            if !blocks.is_empty() {
                prop_assert!(cp
                    .observe_tail([(blocks[0].num, &blocks[0])], observe)
                    .is_err());
            }
        }
    }

    // ---- Delta-folded epochs -------------------------------------------------
    //
    // The serve follower never holds a whole-history columnar accumulator:
    // it finalizes each batch's accumulator on its own and folds the scalar
    // deltas into a standing sweep. For any partition of a chain into
    // batches — empty ones included, which is what a short chain hands the
    // follower once it is exhausted — folded in any order, the standing
    // sweep must equal the one-shot sweep of the whole chain.

    /// How a chain is cut into batches and in which order they are folded.
    type Partition = (Vec<usize>, usize, bool);

    fn partition_strategy() -> impl Strategy<Value = Partition> {
        (proptest::collection::vec(0usize..13, 0..6), 0usize..8, any::<bool>())
    }

    /// Finalize each batch of the partition alone (`delta`) and fold the
    /// results into `standing`.
    fn delta_fold<B, S>(
        blocks: &[B],
        (cuts, rotate, reverse): &Partition,
        mut standing: S,
        delta: impl Fn(&[B]) -> S,
        merge: impl Fn(&mut S, S),
    ) -> S {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| (*c).min(blocks.len())).collect();
        cuts.extend([0, blocks.len()]);
        cuts.sort_unstable();
        // Repeated cuts yield empty batches.
        let mut batches: Vec<&[B]> = cuts.windows(2).map(|w| &blocks[w[0]..w[1]]).collect();
        let n = batches.len();
        batches.rotate_left(rotate % n);
        if *reverse {
            batches.reverse();
        }
        for batch in batches {
            merge(&mut standing, delta(batch));
        }
        standing
    }

    proptest! {
        #[test]
        fn eos_delta_fold_equals_one_shot(spec in eos_strategy(), partition in partition_strategy()) {
            let blocks = eos_blocks(&spec);
            let standing = delta_fold(
                &blocks,
                &partition,
                EosSweep::new(window()),
                |batch| {
                    let mut acc = EosColumnar::new(window());
                    batch.iter().for_each(|b| acc.observe(b));
                    acc.finalize()
                },
                |a, b| a.merge(b),
            );
            assert_eos_equiv(&standing, &blocks, window())?;
        }

        #[test]
        fn tezos_delta_fold_equals_one_shot(spec in tz_strategy(), partition in partition_strategy()) {
            use txstat::core::TezosColumnar;
            let blocks = tz_blocks(&spec);
            let standing = delta_fold(
                &blocks,
                &partition,
                TezosSweep::new(window(), tz_periods()),
                |batch| {
                    let mut acc = TezosColumnar::new(window(), tz_periods());
                    batch.iter().for_each(|b| acc.observe(b));
                    acc.finalize()
                },
                |a, b| a.merge(b),
            );
            assert_tz_equiv(&standing, &blocks, window())?;
        }

        #[test]
        fn xrp_delta_fold_equals_one_shot(spec in x_strategy(), partition in partition_strategy()) {
            use txstat::core::XrpColumnar;
            let blocks = x_blocks(&spec);
            let ora = oracle();
            let standing = delta_fold(
                &blocks,
                &partition,
                XrpSweep::new(window()),
                |batch| {
                    let mut acc = XrpColumnar::new(window());
                    batch.iter().for_each(|b| acc.observe(b, &ora));
                    acc.finalize()
                },
                |a, b| a.merge(b),
            );
            assert_x_equiv(&standing, &blocks, window())?;
        }
    }

    /// The sweep result — the engine's and the reference fold's — is
    /// identical at any rayon worker count.
    #[test]
    fn sweeps_are_thread_count_invariant() {
        let spec: Vec<Vec<Vec<EosSpec>>> = (0..600)
            .map(|i| {
                (0..4)
                    .map(|j| {
                        (0..3).map(|k| ((i + j + k) as u8, i as u8, j as u8, 7 + k as i64)).collect()
                    })
                    .collect()
            })
            .collect();
        // Enough blocks that `par_sweep` really cuts 2–3 chunks (its floor
        // is 256 a chunk), starting before the window and ending inside it.
        let mut blocks = eos_blocks(&spec);
        for (i, b) in blocks.iter_mut().enumerate() {
            b.time = t0() + (i as i64 - 30) * 400;
        }
        let engines: [(&str, fn(&[Block], Period) -> EosSweep); 2] =
            [("EosColumnar::compute", EosColumnar::compute), ("EosSweep::compute", EosSweep::compute)];
        for (engine, compute) in engines {
            let at = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                eos_battery(&pool.install(|| compute(&blocks, window())))
            };
            let base = at(1);
            for threads in [2, 4, 8] {
                assert_eq!(base, at(threads), "{engine} at {threads} threads");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Columnar-engine primitives: the interner round-trip and the merge-algebra
// laws of the id-indexed accumulators behind the columnar sweeps.
// ---------------------------------------------------------------------------

mod columnar_laws {
    use proptest::prelude::*;
    use txstat::core::columnar::tables::{IdVec, PairTable};
    use txstat::eos::Name;
    use txstat::types::intern::Interner;

    proptest! {
        /// Interner round-trip: name → id → name is the identity, ids are
        /// dense and stable on re-intern.
        #[test]
        fn interner_round_trip(names in proptest::collection::vec("[a-z1-5.]{1,12}", 1..80)) {
            let parsed: Vec<Name> = names.iter().map(|s| Name::parse(s).expect("valid")).collect();
            let mut interner: Interner<Name> = Interner::new();
            let ids: Vec<u32> = parsed.iter().map(|n| interner.intern(*n)).collect();
            prop_assert!(interner.len() <= parsed.len());
            for (n, id) in parsed.iter().zip(&ids) {
                prop_assert_eq!(interner.resolve(*id), *n, "resolve inverts intern");
                prop_assert_eq!(interner.get(*n), Some(*id), "get agrees");
                prop_assert!((*id as usize) < interner.len(), "ids are dense");
            }
            // Re-interning the whole stream assigns the same ids.
            let again: Vec<u32> = parsed.iter().map(|n| interner.intern(*n)).collect();
            prop_assert_eq!(ids, again);
        }

        /// Absorb law: the remap table maps every id of the absorbed
        /// interner onto an id resolving to the same key.
        #[test]
        fn interner_absorb_preserves_keys(
            left in proptest::collection::vec(0u64..40, 0..60),
            right in proptest::collection::vec(0u64..40, 0..60),
        ) {
            let mut a: Interner<u64> = Interner::new();
            left.iter().for_each(|k| { a.intern(*k); });
            let mut b: Interner<u64> = Interner::new();
            right.iter().for_each(|k| { b.intern(*k); });
            let before = a.len();
            let remap = a.absorb(&b);
            prop_assert_eq!(remap.len(), b.len());
            for (oid, nid) in remap.iter().enumerate() {
                prop_assert_eq!(a.resolve(*nid), b.resolve(oid as u32));
            }
            prop_assert!(a.len() >= before);
        }

        /// IdVec merge laws: split folds merged (same-interner vector add)
        /// equal the whole fold, in either merge order.
        #[test]
        fn idvec_merge_equals_whole(
            events in proptest::collection::vec((0u32..50, 1u64..9), 1..120),
            pivot in 0usize..120,
        ) {
            let pivot = pivot.min(events.len());
            let fold = |evs: &[(u32, u64)]| {
                let mut v: IdVec<u64> = IdVec::new();
                evs.iter().for_each(|(id, n)| v.add(*id, *n));
                v
            };
            let whole = fold(&events);
            let mut split = fold(&events[..pivot]);
            split.merge(&fold(&events[pivot..]));
            let mut commuted = fold(&events[pivot..]);
            commuted.merge(&fold(&events[..pivot]));
            let flat = |v: &IdVec<u64>| v.iter_nonzero().collect::<Vec<_>>();
            prop_assert_eq!(flat(&split), flat(&whole));
            prop_assert_eq!(flat(&commuted), flat(&whole));
        }

        /// PairTable merge laws: residue-sharded pair counters merged from
        /// split folds equal the whole fold, and an identity remap merge
        /// equals the plain merge.
        #[test]
        fn pair_table_merge_equals_whole(
            events in proptest::collection::vec((0u32..40, 0u32..40, 1u64..5), 1..120),
            pivot in 0usize..120,
        ) {
            let pivot = pivot.min(events.len());
            let fold = |evs: &[(u32, u32, u64)]| {
                let mut t = PairTable::new();
                evs.iter().for_each(|(a, b, n)| t.add(*a, *b, *n));
                t
            };
            let whole = fold(&events);
            let mut split = fold(&events[..pivot]);
            split.merge(&fold(&events[pivot..]));
            let mut remapped = fold(&events[..pivot]);
            remapped.merge_remap(&fold(&events[pivot..]), |a| a, |b| b);
            let flat = |t: &PairTable| {
                let mut v: Vec<(u32, u32, u64)> = t.iter().collect();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(flat(&split), flat(&whole));
            prop_assert_eq!(flat(&remapped), flat(&whole));
        }
    }
}

#[test]
fn chaintime_bucket_index_is_monotonic() {
    let origin = ChainTime::from_ymd(2019, 10, 1);
    let mut prev = i64::MIN;
    for s in (-100_000..100_000).step_by(977) {
        let idx = (origin + s).bucket_index(origin, SIX_HOURS);
        assert!(idx >= prev);
        prev = idx;
    }
}
