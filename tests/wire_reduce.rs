//! Cross-process reduction equivalence: splitting a block set into k wire
//! frames (random cuts, random in-frame shard counts), round-tripping
//! every frame through the `txstat_wire` codec *bytes*, and reducing them
//! centrally must produce sweeps bit-identical to one single-process
//! columnar sweep over the whole set — plus rejection tests for damaged
//! frames/payloads and an end-to-end reduced-report identity check.

use proptest::prelude::*;
use serde_json::json;
use txstat::core::{EosColumnar, TezosColumnar, WireState, XrpColumnar};
use txstat::ingest::{ReduceError, ReduceSession, ShardWorker};
use txstat::wire::{decode_all, encode_all, ShardFrame, WireError};

use txstat::eos::{Action, ActionData, Block, Name, Transaction};
use txstat::tezos::{Address, OpPayload, Operation, PeriodKind, TezosBlock, Vote};
use txstat::types::amount::SymCode;
use txstat::types::time::{ChainTime, Period};
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

/// Block times stride 2 hours starting *before* the window so shards also
/// carry out-of-period audit state across the wire.
fn block_time(i: usize) -> ChainTime {
    t0() + (i as i64 - 3) * 7_200
}

fn eos_name(i: u8) -> Name {
    Name::parse(&format!("acct{}", (b'a' + i % 8) as char)).expect("valid name")
}

/// (kind, actor, peer, amount) → a mixed-class EOS action.
fn eos_action(kind: u8, a: u8, b: u8, amount: i64) -> Action {
    let (actor, peer) = (eos_name(a), eos_name(b));
    match kind % 5 {
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
        _ => Action::new(peer, Name::new("play"), actor, ActionData::Generic),
    }
}

type BlockSpec = Vec<Vec<(u8, u8, u8, i64)>>;

fn eos_blocks(spec: &[BlockSpec]) -> Vec<Block> {
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
                    actions: actions.iter().map(|&(k, a, b, n)| eos_action(k, a, b, n)).collect(),
                    cpu_us: 100,
                    net_bytes: 128,
                })
                .collect(),
        })
        .collect()
}

fn tezos_blocks(spec: &[BlockSpec]) -> Vec<TezosBlock> {
    spec.iter()
        .enumerate()
        .map(|(i, ops)| TezosBlock {
            level: 1 + i as u64,
            time: block_time(i),
            baker: Address::implicit(1),
            operations: ops
                .iter()
                .flatten()
                .map(|&(kind, a, b, _)| match kind % 4 {
                    0 => Operation::new(
                        Address::implicit(a as u64),
                        OpPayload::Transaction {
                            destination: Address::implicit(b as u64),
                            amount_mutez: 100,
                        },
                    ),
                    1 => Operation::new(
                        Address::implicit(a as u64),
                        OpPayload::Endorsement { level: i as u64, slots: 16 },
                    ),
                    2 => Operation::new(
                        Address::implicit(a as u64),
                        OpPayload::Ballot {
                            proposal: "PsBabyM1".into(),
                            vote: if b % 2 == 0 { Vote::Yay } else { Vote::Nay },
                        },
                    ),
                    _ => Operation::new(
                        Address::implicit(a as u64),
                        OpPayload::Proposals { proposals: vec!["PtGRANAD".into()] },
                    ),
                })
                .collect(),
        })
        .collect()
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
        ChainTime::from_ymd(2019, 10, 4),
        30,
    )
}

fn xrp_blocks(spec: &[BlockSpec]) -> Vec<LedgerBlock> {
    spec.iter()
        .enumerate()
        .map(|(i, txs)| LedgerBlock {
            index: 1 + i as u64,
            close_time: block_time(i),
            transactions: txs
                .iter()
                .flatten()
                .map(|&(kind, a, b, amount)| {
                    let account = AccountId(a as u64 + 1);
                    let (payload, result) = match kind % 4 {
                        0 => (
                            TxPayload::Payment {
                                destination: AccountId(b as u64 + 1),
                                amount: Amount::xrp(amount),
                                send_max: None,
                            },
                            TxResult::Success,
                        ),
                        1 => (
                            TxPayload::Payment {
                                destination: AccountId(b as u64 + 1),
                                amount: Amount::iou_whole("USD", AccountId(1), amount),
                                send_max: None,
                            },
                            if b % 2 == 0 { TxResult::Success } else { TxResult::PathDry },
                        ),
                        2 => (
                            TxPayload::OfferCreate {
                                gets: Amount::xrp(amount),
                                pays: Amount::iou_whole("USD", AccountId(1), amount),
                            },
                            TxResult::Success,
                        ),
                        _ => (TxPayload::SetRegularKey, TxResult::Success),
                    };
                    let delivered = match (&payload, result.is_success()) {
                        (TxPayload::Payment { amount, .. }, true) => Some(*amount),
                        _ => None,
                    };
                    AppliedTx {
                        tx: txstat::xrp::Transaction::new(account, payload, 10),
                        result,
                        delivered,
                        crossed: kind % 8 == 2,
                    }
                })
                .collect(),
        })
        .collect()
}

/// Cut `[0, len)` into `k` contiguous ranges at the (deduped, sorted) cut
/// points, spanning the whole set.
/// The comparable core of a graph report: counts, concentration, hubs.
type GraphKey<N> = (u64, u64, u64, f64, Vec<(N, u64)>, Vec<(N, u64)>);

fn graph_key<N: Clone>(r: txstat::core::GraphReport<N>) -> GraphKey<N> {
    (r.nodes, r.unique_edges, r.transfers, r.out_degree_gini, r.top_sinks, r.top_sources)
}

fn ranges(len: u64, cuts: &[u64]) -> Vec<(u64, u64)> {
    let mut points: Vec<u64> = cuts.iter().map(|c| c % (len + 1)).collect();
    points.push(0);
    points.push(len);
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|w| (w[0], w[1])).collect()
}

fn spec_strategy() -> impl Strategy<Value = Vec<BlockSpec>> {
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::collection::vec((0u8..6, 0u8..8, 0u8..8, 1i64..50), 0..4),
            0..4,
        ),
        1..14,
    )
}

proptest! {
    /// The tentpole law: k frames over random contiguous cuts, each swept
    /// with its own in-process shard count, round-tripped
    /// through the wire codec **bytes**, reduce to sweeps whose every
    /// compared statistic equals a single-process columnar sweep over the
    /// whole block set.
    #[test]
    fn k_frame_wire_reduction_equals_single_process(
        spec in spec_strategy(),
        cuts in proptest::collection::vec(0u64..64, 0..4),
        shard_counts in proptest::collection::vec(1usize..5, 5),
    ) {
        let eos = eos_blocks(&spec);
        let tezos = tezos_blocks(&spec);
        let xrp = xrp_blocks(&spec);
        let periods = vec![(PeriodKind::Promotion, window())];
        let ora = oracle();
        let meta = json!({"scenario": "proptest"});

        // Shard side: one worker per range, three frames each, through the
        // byte codec.
        let mut bytes = Vec::new();
        for (i, (start, end)) in ranges(spec.len() as u64, &cuts).into_iter().enumerate() {
            let worker = ShardWorker {
                start,
                end,
                base: 0,
                shards: shard_counts[i % shard_counts.len()],
                meta: meta.clone(),
            };
            let frames = vec![
                worker.eos_frame(&[&eos], window()),
                worker.tezos_frame(&[&tezos], window(), &periods),
                worker.xrp_frame(&[&xrp], window(), &ora),
            ];
            bytes.extend_from_slice(&encode_all(&frames));
        }

        // Reduce side: decode the bytes and merge.
        let mut session = ReduceSession::new();
        for frame in decode_all(&bytes).expect("frames decode") {
            session.submit(&frame).expect("frames validate");
        }
        let reduced = session.finalize().expect("coverage is complete");

        // Single-process oracle.
        let whole_eos = EosColumnar::compute(&eos, window());
        let whole_tz = TezosColumnar::compute(&tezos, window(), &periods);
        let whole_xrp = XrpColumnar::compute(&xrp, window(), &ora);

        // EOS battery.
        let flat_eos = |s: &txstat::core::EosSweep| {
            let (rows, total) = s.action_distribution();
            (
                rows.iter().map(|r| (r.class, r.action.clone(), r.count)).collect::<Vec<_>>(),
                total,
                s.tps(),
                s.top_received(5).iter().map(|r| (r.account, r.tx_count)).collect::<Vec<_>>(),
                s.top_senders(5).iter().map(|r| (r.sender, r.sent_count, r.unique_receivers)).collect::<Vec<_>>(),
                s.wash_trading_report().total_trades,
                s.boomerang_report().boomerangs,
                graph_key(s.graph().report(3)),
            )
        };
        prop_assert_eq!(flat_eos(&reduced.eos), flat_eos(&whole_eos));

        // Tezos battery.
        let flat_tz = |s: &txstat::core::TezosSweep| {
            let (rows, total) = s.op_distribution();
            (
                rows.iter().map(|r| (r.kind, r.count)).collect::<Vec<_>>(),
                total,
                s.tps(),
                s.governance_op_count(),
                s.throughput_series().total(),
                s.throughput_series().out_of_range(),
                s.top_senders(5).iter().map(|r| (r.sender, r.sent_count, r.unique_receivers)).collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(flat_tz(&reduced.tezos), flat_tz(&whole_tz));

        // XRP battery.
        let clu = txstat::core::ClusterInfo::new();
        let flat_xrp = |s: &txstat::core::XrpSweep| {
            let (rows, total) = s.tx_distribution();
            let f = s.funnel();
            let v = s.value_flow(&clu);
            let c = s.concentration();
            (
                rows.iter().map(|r| (r.tx_type, r.count)).collect::<Vec<_>>(),
                total,
                s.tps(),
                (f.total, f.failed, f.payments_with_value, f.payments_no_value, f.offers_exchanged),
                (v.xrp_payment_volume, v.top_senders.clone(), v.currencies.clone()),
                (c.accounts, c.single_tx_accounts, c.gini),
                graph_key(s.graph().report(3)),
            )
        };
        prop_assert_eq!(flat_xrp(&reduced.xrp), flat_xrp(&whole_xrp));
    }

    /// Frame damage never reduces: any truncation is `Truncated`, any
    /// payload bit-flip is `HashMismatch` — checked on a real frame at a
    /// proptest-chosen position. A frame re-stamped as the retired schema 1
    /// or re-tagged `"json"` (hash recomputed, as its old encoder would
    /// have) is refused by version and by header.
    #[test]
    fn damaged_frames_are_rejected(
        spec in spec_strategy(),
        cut_frac in 0usize..100,
        flip in 0usize..1000,
    ) {
        let eos = eos_blocks(&spec);
        let worker = ShardWorker::new(0, spec.len() as u64, serde_json::Value::Null);
        let frame = worker.eos_frame(&[&eos], window());
        let bytes = frame.encode();

        // Truncation at any interior point.
        let cut = cut_frac * (bytes.len() - 1) / 100;
        prop_assert!(matches!(
            ShardFrame::decode(&bytes[..cut]),
            Err(WireError::Truncated { .. })
        ));

        // A single flipped bit past the envelope prefix fails the content
        // hash (the prefix itself fails magic/version/length checks).
        let mut corrupt = bytes.clone();
        let pos = 20 + flip % (bytes.len() - 20);
        corrupt[pos] ^= 0x10;
        let err = ShardFrame::decode(&corrupt);
        prop_assert!(err.is_err(), "flipped byte {} decoded fine", pos);

        // Retired inputs, well-formed down to the content hash.
        let hlen = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
        let (header, payload) = (&bytes[20..20 + hlen], &frame.payload[..]);
        let restamp = |version: u32, header: &[u8]| {
            let mut out = bytes[..4].to_vec();
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&txstat::wire::content_hash(header, payload).to_le_bytes());
            out.extend_from_slice(&(header.len() as u32).to_le_bytes());
            out.extend_from_slice(header);
            out.extend_from_slice(&bytes[20 + hlen..]);
            out
        };
        prop_assert_eq!(restamp(2, header), bytes.clone(), "restamp is the identity layout");
        prop_assert_eq!(
            ShardFrame::decode(&restamp(1, header)),
            Err(WireError::UnsupportedVersion { found: 1, supported: 2 })
        );
        let json_header = String::from_utf8_lossy(header)
            .replace("\"payload_format\":\"bin\"", "\"payload_format\":\"json\"");
        prop_assert!(matches!(
            ShardFrame::decode(&restamp(2, json_header.as_bytes())),
            Err(WireError::Header(_))
        ));
    }

    /// The binary column decoder itself (below the envelope's hash check,
    /// as an attacker who re-hashed a forged frame would reach it) never
    /// panics: truncation at *any* offset and bit flips at *any* offset
    /// either decode or fail with a typed error, for all three chains.
    #[test]
    fn damaged_binary_payloads_never_panic(
        spec in spec_strategy(),
        cut_frac in 0usize..=100,
        flip in 0usize..1000,
        flip_bit in 0u8..8,
    ) {
        let periods = vec![(PeriodKind::Promotion, window())];
        let ora = oracle();
        let worker = ShardWorker::new(0, spec.len() as u64, serde_json::Value::Null);
        let frames = [
            worker.eos_frame(&[&eos_blocks(&spec)], window()),
            worker.tezos_frame(&[&tezos_blocks(&spec)], window(), &periods),
            worker.xrp_frame(&[&xrp_blocks(&spec)], window(), &ora),
        ];
        for frame in &frames {
            let payload = &frame.payload;
            let decode = |bytes: &[u8]| -> Result<(), String> {
                match frame.header.chain.as_str() {
                    "eos" => EosColumnar::from_wire_bytes(bytes).map(|_| ()),
                    "tezos" => TezosColumnar::from_wire_bytes(bytes).map(|_| ()),
                    _ => XrpColumnar::from_wire_bytes(bytes).map(|_| ()),
                }
                .map_err(|e| e.to_string())
            };
            // The intact payload decodes.
            decode(payload).expect("undamaged payload decodes");
            // Truncation at any offset is an error, not a panic.
            let cut = cut_frac * payload.len() / 100;
            if cut < payload.len() {
                prop_assert!(decode(&payload[..cut]).is_err(), "{}: truncation at {} decoded", frame.header.chain, cut);
            }
            // A bit flip anywhere either still decodes (e.g. a flipped
            // counter value) or fails typed — it must never panic. The
            // proptest harness converts panics into failures.
            let mut corrupt = payload.clone();
            let pos = flip % corrupt.len();
            corrupt[pos] ^= 1 << flip_bit;
            let _ = decode(&corrupt);
        }
    }
}

/// A frame that decodes but lies about its chain, version, or range is a
/// typed session error, not a silent merge.
#[test]
fn session_rejects_foreign_and_overlapping_frames() {
    let spec: Vec<BlockSpec> = vec![vec![vec![(0, 1, 2, 5)]]; 6];
    let eos = eos_blocks(&spec);
    let worker = |s: u64, e: u64| ShardWorker::new(s, e, json!({"scenario": "a"}));

    let mut session = ReduceSession::new();
    session.submit(&worker(0, 3).eos_frame(&[&eos], window())).expect("first half");
    let err = session.submit(&worker(2, 6).eos_frame(&[&eos], window()));
    assert!(matches!(err, Err(ReduceError::Overlap { .. })), "{err:?}");

    let mut alien = worker(3, 6).eos_frame(&[&eos], window());
    alien.header.meta = json!({"scenario": "b"});
    let err = session.submit(&alien);
    assert!(matches!(err, Err(ReduceError::MetaMismatch { .. })), "{err:?}");

    let mut future = worker(3, 6).eos_frame(&[&eos], window());
    future.header.schema_version = 42;
    let err = session.submit(&future);
    assert!(matches!(err, Err(ReduceError::Version { found: 42, .. })), "{err:?}");

    // Leaving the gap unfilled is a finalize-time error naming the hole.
    session.submit(&worker(4, 6).eos_frame(&[&eos], window())).expect("tail");
    assert_eq!(session.gaps("eos"), vec![(3, 4)]);
    let err = session.finalize().map(|_| ());
    assert!(
        matches!(err, Err(ReduceError::CoverageGap { chain: "eos", .. })),
        "{err:?}"
    );
}
