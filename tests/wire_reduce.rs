//! Cross-process reduction equivalence: splitting a block set into k wire
//! frames (random cuts, each range folded in a random number of merged
//! pieces), round-tripping
//! every frame through the `txstat_wire` codec *bytes*, and reducing them
//! centrally must produce sweeps bit-identical to one single-process
//! columnar sweep over the whole set — plus rejection tests for retired
//! and foreign frames. Damaged frames and payloads are rows of
//! `tests/damage.rs`; the payload rows are walked here too, over the frames
//! of random block sets.

mod support;

use proptest::prelude::*;
use serde_json::json;
use support::rows::all_payload_rows;
use support::{walk_some, Mutator};
use txstat::core::{EosColumnar, TezosColumnar, XrpColumnar};
use txstat::ingest::{RangeFold, ReduceError, ReduceSession};
use txstat::wire::{decode_all, encode_all, ShardFrame, WireError};

use txstat::eos::{Action, ActionData, Block, Name, Transaction};
use txstat::tezos::{Address, OpPayload, Operation, PeriodKind, TezosBlock, Vote};
use txstat::types::amount::SymCode;
use txstat::types::time::{ChainTime, Period};
use txstat::xrp::{
    AccountId, Amount, AppliedTx, IssuedCurrency, LedgerBlock, RateOracle, TradeRecord, TxPayload,
    TxResult, DROPS_PER_XRP, IOU_UNIT,
};

#[global_allocator]
static WATCH: support::Watch = support::Watch;

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
        3 => Action::new(
            Name::new("eosio"),
            Name::new("bidname"),
            actor,
            ActionData::Generic,
        ),
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
                    actions: actions
                        .iter()
                        .map(|&(k, a, b, n)| eos_action(k, a, b, n))
                        .collect(),
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
                        OpPayload::Endorsement {
                            level: i as u64,
                            slots: 16,
                        },
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
                        OpPayload::Proposals {
                            proposals: vec!["PtGRANAD".into()],
                        },
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
                            if b % 2 == 0 {
                                TxResult::Success
                            } else {
                                TxResult::PathDry
                            },
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

/// The comparable core of a graph report: counts, concentration, hubs.
type GraphKey<N> = (u64, u64, u64, f64, Vec<(N, u64)>);

fn graph_key<N: Clone>(r: txstat::core::GraphReport<N>) -> GraphKey<N> {
    (
        r.nodes,
        r.unique_edges,
        r.transfers,
        r.out_degree_gini,
        r.top_sinks,
    )
}

/// Cut `[0, len)` into `k` contiguous ranges at the (deduped, sorted) cut
/// points, spanning the whole set.
fn ranges(len: u64, cuts: &[u64]) -> Vec<(u64, u64)> {
    let mut points: Vec<u64> = cuts.iter().map(|c| c % (len + 1)).collect();
    points.push(0);
    points.push(len);
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|w| (w[0], w[1])).collect()
}

/// The `"eos"`, `"tezos"` and `"xrp"` frames of positions `[start, end)`
/// of `spec`'s chains, stamped with `meta`: folded in `pieces` contiguous
/// runs that merge in position order, as a worker folds a range that spans
/// several archive segments.
fn range_frames(
    spec: &[BlockSpec],
    (start, end): (u64, u64),
    pieces: u64,
    meta: &serde_json::Value,
) -> Vec<ShardFrame> {
    let (eos, tezos, xrp) = (eos_blocks(spec), tezos_blocks(spec), xrp_blocks(spec));
    let (periods, ora) = (vec![(PeriodKind::Promotion, window())], oracle());
    let mut fold = RangeFold::new(window(), periods.clone());
    let step = (end - start).div_ceil(pieces).max(1) as usize;
    for lo in (start as usize..end as usize).step_by(step) {
        let run = lo..(lo + step).min(end as usize);
        let mut piece = RangeFold::new(window(), periods.clone());
        piece.sweep(&eos[run.clone()], &tezos[run.clone()], &xrp[run], &ora);
        fold.merge(piece);
    }
    fold.frames(start, meta)
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
    /// The tentpole law: k frames over random contiguous cuts, each range
    /// folded in its own number of merged pieces, round-tripped
    /// through the wire codec **bytes**, reduce to sweeps whose every
    /// compared statistic equals a single-process columnar sweep over the
    /// whole block set.
    #[test]
    fn k_frame_wire_reduction_equals_single_process(
        spec in spec_strategy(),
        cuts in proptest::collection::vec(0u64..64, 0..4),
        pieces in proptest::collection::vec(1u64..5, 5),
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
        for (i, range) in ranges(spec.len() as u64, &cuts).into_iter().enumerate() {
            let frames = range_frames(&spec, range, pieces[i % pieces.len()], &meta);
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

    /// A frame re-stamped as the retired schema 1 or re-tagged `"json"`
    /// (hash recomputed, as its old encoder would have) is refused by
    /// version and by header. (Damage to frames and payloads is walked in
    /// `tests/damage.rs`.)
    #[test]
    fn damaged_frames_are_rejected(spec in spec_strategy()) {
        let all = (0, spec.len() as u64);
        let frame = range_frames(&spec, all, 1, &serde_json::Value::Null).swap_remove(0);
        let bytes = frame.encode();

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
}

/// The binary column decoder itself (below the envelope's hash check, as
/// an attacker who re-hashed a forged frame would reach it) never panics:
/// every truncation of a frame payload is a typed error, and every
/// single-bit flip fails typed or decodes to a state that re-encodes to
/// exactly the flipped bytes, for all three chains. A hand-rolled property
/// (each case walks every offset, so the case count stays small): the
/// payload rows of `tests/damage.rs` over the frames of eight random block
/// sets.
#[test]
fn damaged_binary_payloads_never_panic() {
    let mut rng = proptest::new_rng(proptest::base_seed() ^ proptest::fnv("damaged-payloads"));
    for case in 0..8 {
        let spec = proptest::Strategy::generate(&spec_strategy(), &mut rng);
        let all = (0, spec.len() as u64);
        let frames = range_frames(&spec, all, 1, &serde_json::Value::Null);
        let payloads: [_; 3] =
            std::array::from_fn(|c| vec![(format!("case {case}"), frames[c].payload.clone())]);
        for row in all_payload_rows(payloads) {
            walk_some(&row, |m| {
                matches!(m, Mutator::Truncation | Mutator::BitFlip(_))
            });
        }
    }
}

/// A frame that decodes but lies about its chain, version, or range is a
/// typed session error, not a silent merge.
#[test]
fn session_rejects_foreign_and_overlapping_frames() {
    let spec: Vec<BlockSpec> = vec![vec![vec![(0, 1, 2, 5)]]; 6];
    let eos_frame =
        |s: u64, e: u64| range_frames(&spec, (s, e), 1, &json!({"scenario": "a"})).swap_remove(0);

    let mut session = ReduceSession::new();
    session.submit(&eos_frame(0, 3)).expect("first half");
    let err = session.submit(&eos_frame(2, 6));
    assert!(matches!(err, Err(ReduceError::Overlap { .. })), "{err:?}");

    let mut alien = eos_frame(3, 6);
    alien.header.meta = json!({"scenario": "b"});
    let err = session.submit(&alien);
    assert!(
        matches!(err, Err(ReduceError::MetaMismatch { .. })),
        "{err:?}"
    );

    let mut future = eos_frame(3, 6);
    future.header.schema_version = 42;
    let err = session.submit(&future);
    assert!(
        matches!(err, Err(ReduceError::Version { found: 42, .. })),
        "{err:?}"
    );

    // Leaving the gap unfilled is a finalize-time error naming the hole.
    session.submit(&eos_frame(4, 6)).expect("tail");
    assert_eq!(session.gaps("eos"), vec![(3, 4)]);
    let err = session.finalize().map(|_| ());
    assert!(
        matches!(err, Err(ReduceError::CoverageGap { chain: "eos", .. })),
        "{err:?}"
    );
}
