//! The canonical wire bytes (`block_bytes` / `ledger_bytes`) are written
//! straight from the chain model by one streaming writer per chain. Their
//! contract, for every block:
//!
//! * the bytes are a fixed point of the vendored `serde_json`: parsing them
//!   and printing the value back gives the same bytes, so that independent
//!   parser and printer vouch for the writer's escaping and number format;
//! * the same writer run into a `JsonLen` counts `block_bytes(b).len()`
//!   (Figure 2 measures the blocks it does not compress that way), and
//! * `block_parse` round-trips the block. XRP's wire model is lossless, so
//!   the decoded ledger is the ledger itself. Tezos decodes to the block
//!   with its operations in validation-pass order, which writes the same
//!   bytes again. EOS drops what its wire model cannot carry (action data
//!   under a name that does not reconstruct it, `net_bytes` below a
//!   multiple of 8), and the decoded block decodes back to itself.
//!
//! Checked over every block of the small scenario at several seeds, and
//! over built blocks whose strings carry quotes, backslashes, control
//! characters and non-ASCII wherever the model admits a free string
//! (EOS symbol codes, Tezos proposals, XRP amendments and currencies).
//! The bytes themselves are pinned below: every endpoint reply, the
//! reports, the frame bundle and Figure 2's integers.

use proptest::prelude::*;
use txstat::eos::{self, rpc_model as eos_rpc};
use txstat::tezos::{self, rpc_model as tezos_rpc};
use txstat::types::amount::SymCode;
use txstat::types::time::ChainTime;
use txstat::types::JsonLen;
use txstat::workload::Scenario;
use txstat::xrp::{self, rpc_model as xrp_rpc};

/// Parse `bytes` and print them back through the vendored `serde_json`.
fn assert_fixed_point(bytes: &[u8], what: &str) {
    let value: serde_json::Value =
        serde_json::from_slice(bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    let printed = serde_json::to_vec(&value).expect("serializable");
    assert_eq!(
        String::from_utf8_lossy(&printed),
        String::from_utf8_lossy(bytes),
        "{what}"
    );
}

fn check_eos(b: &eos::Block) {
    let what = format!("eos block {}", b.num);
    let bytes = eos_rpc::block_bytes(b);
    assert_fixed_point(&bytes, &what);
    assert_eq!(
        JsonLen::of(|o| eos_rpc::block_bytes_into(b, o)),
        bytes.len(),
        "{what}"
    );
    let parsed = eos_rpc::block_parse(&bytes).expect("own bytes parse");
    assert_eq!(
        eos_rpc::block_parse(&eos_rpc::block_bytes(&parsed)).as_ref(),
        Ok(&parsed),
        "{what}"
    );
}

fn check_tezos(b: &tezos::TezosBlock) {
    let what = format!("tezos block {}", b.level);
    let bytes = tezos_rpc::block_bytes(b);
    assert_fixed_point(&bytes, &what);
    assert_eq!(
        JsonLen::of(|o| tezos_rpc::block_bytes_into(b, o)),
        bytes.len(),
        "{what}"
    );
    let parsed = tezos_rpc::block_parse(&bytes).expect("own bytes parse");
    assert!(tezos_rpc::block_bytes(&parsed) == bytes, "{what}");
}

fn check_xrp(b: &xrp::LedgerBlock) {
    let what = format!("xrp ledger {}", b.index);
    let bytes = xrp_rpc::ledger_bytes(b);
    assert_fixed_point(&bytes, &what);
    assert_eq!(
        JsonLen::of(|o| xrp_rpc::ledger_bytes_into(b, o)),
        bytes.len(),
        "{what}"
    );
    let parsed = xrp_rpc::ledger_parse(&bytes).expect("own bytes parse");
    assert_eq!(
        (parsed.index, parsed.close_time, &parsed.transactions),
        (b.index, b.close_time, &b.transactions),
        "{what}"
    );
}

#[test]
fn every_generated_block_is_a_fixed_point_that_parses_back() {
    for seed in [1, 7, 42, 1234] {
        let data = txstat::reports::generate(&Scenario::small(seed));
        data.eos_blocks.iter().for_each(check_eos);
        data.tezos_blocks.iter().for_each(check_tezos);
        data.xrp_blocks.iter().for_each(check_xrp);
        // The `_into` form appends: one buffer folds a whole chain.
        let mut buf = b"kept".to_vec();
        eos_rpc::block_bytes_into(&data.eos_blocks[0], &mut buf);
        tezos_rpc::block_bytes_into(&data.tezos_blocks[0], &mut buf);
        xrp_rpc::ledger_bytes_into(&data.xrp_blocks[0], &mut buf);
        let mut want = b"kept".to_vec();
        want.extend(eos_rpc::block_bytes(&data.eos_blocks[0]));
        want.extend(tezos_rpc::block_bytes(&data.tezos_blocks[0]));
        want.extend(xrp_rpc::ledger_bytes(&data.xrp_blocks[0]));
        assert_eq!(buf, want);
    }
}

/// SplitMix64: the built blocks only need a cheap reproducible stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Free text biased toward everything a JSON writer must escape.
    fn hostile_text(&mut self) -> String {
        const SPICE: [&str; 10] = [
            "\"", "\\", "\n", "\r", "\t", "\u{8}", "\u{c}", "\u{1f}", "é😀", "\u{7f}",
        ];
        (0..self.below(12))
            .map(|_| match self.below(3) {
                0 => SPICE[self.below(SPICE.len() as u64) as usize].to_owned(),
                1 => char::from_u32(self.below(0x20) as u32)
                    .expect("control char")
                    .to_string(),
                _ => char::from(b' ' + self.below(95) as u8).to_string(),
            })
            .collect()
    }

    /// A symbol code: 1–12 printable ASCII bytes, quotes and backslashes
    /// included.
    fn symbol(&mut self) -> SymCode {
        let len = 1 + self.below(12);
        let text: String = (0..len)
            .map(|_| match self.below(4) {
                0 => '"',
                1 => '\\',
                _ => char::from(b'!' + self.below(94) as u8),
            })
            .collect();
        SymCode::new(&text)
    }

    fn time(&mut self) -> ChainTime {
        ChainTime(1_500_000_000 + self.below(200_000_000) as i64)
    }

    fn asset(&mut self) -> i64 {
        self.below(2_000_000_000_000) as i64 - 1_000_000_000_000
    }
}

fn built_eos_block(m: &mut Mix) -> eos::Block {
    use eos::{Action, ActionData, Name, Transaction};
    let name = |m: &mut Mix| Name(m.next() >> m.below(64));
    let action = |m: &mut Mix| {
        let (a, b) = (name(m), name(m));
        let data = match m.below(11) {
            0 => ActionData::Transfer {
                from: a,
                to: b,
                symbol: m.symbol(),
                amount: m.asset(),
            },
            1 => ActionData::Trade {
                buyer: a,
                seller: b,
                base_symbol: m.symbol(),
                base_amount: m.asset(),
                quote_symbol: m.symbol(),
                quote_amount: m.asset(),
            },
            2 => ActionData::NewAccount {
                creator: a,
                name: b,
            },
            3 => ActionData::DelegateBw {
                from: a,
                receiver: b,
                net: m.asset(),
                cpu: m.asset(),
            },
            4 => ActionData::UndelegateBw {
                from: a,
                receiver: b,
                net: m.asset(),
                cpu: m.asset(),
            },
            5 => ActionData::BuyRam {
                payer: a,
                receiver: b,
                quant: m.asset(),
            },
            6 => ActionData::BuyRamBytes {
                payer: a,
                receiver: b,
                bytes: m.next() >> m.below(64),
            },
            7 => ActionData::BidName {
                bidder: a,
                newname: b,
                bid: m.asset(),
            },
            8 => ActionData::VoteProducer {
                voter: a,
                producer_count: m.below(256) as u8,
            },
            9 => ActionData::RentCpu {
                from: a,
                receiver: b,
                payment: m.asset(),
            },
            _ => ActionData::Generic,
        };
        Action::new(name(m), name(m), name(m), data)
    };
    eos::Block {
        num: m.next() >> m.below(64),
        time: m.time(),
        producer: name(m),
        transactions: (0..m.below(4))
            .map(|_| Transaction {
                id: m.next(),
                actions: (0..m.below(4)).map(|_| action(m)).collect(),
                cpu_us: m.next() as u32,
                net_bytes: m.next() as u32,
            })
            .collect(),
    }
}

fn built_tezos_block(m: &mut Mix) -> tezos::TezosBlock {
    use tezos::{Address, OpPayload, Operation, Vote};
    let addr = |m: &mut Mix| {
        let id = m.next() >> m.below(64);
        if m.below(2) == 0 {
            Address::implicit(id)
        } else {
            Address::originated(id)
        }
    };
    let op = |m: &mut Mix| {
        let payload = match m.below(10) {
            0 => OpPayload::Endorsement {
                level: m.next() >> 20,
                slots: m.below(256) as u8,
            },
            1 => OpPayload::Transaction {
                destination: addr(m),
                amount_mutez: m.next() >> m.below(64),
            },
            2 => OpPayload::Origination {
                contract: addr(m),
                balance_mutez: m.next() >> m.below(64),
            },
            3 => OpPayload::Delegation {
                delegate: (m.below(2) == 0).then(|| addr(m)),
            },
            4 => OpPayload::Reveal,
            5 => OpPayload::Activation {
                secret_hash: m.next() >> m.below(64),
            },
            6 => OpPayload::RevealNonce {
                level: m.next() >> 20,
            },
            7 => OpPayload::Ballot {
                proposal: m.hostile_text(),
                vote: [Vote::Yay, Vote::Nay, Vote::Pass][m.below(3) as usize],
            },
            8 => OpPayload::Proposals {
                proposals: (0..m.below(4)).map(|_| m.hostile_text()).collect(),
            },
            _ => OpPayload::DoubleBakingEvidence {
                offender: addr(m),
                level: m.next() >> 20,
            },
        };
        Operation::new(addr(m), payload)
    };
    tezos::TezosBlock {
        level: m.next() >> m.below(64),
        time: m.time(),
        baker: addr(m),
        operations: (0..m.below(12)).map(|_| op(m)).collect(),
    }
}

fn built_xrp_ledger(m: &mut Mix) -> xrp::LedgerBlock {
    use xrp::{
        AccountId, Amount, AppliedTx, Asset, IssuedCurrency, OfferId, Transaction, TxPayload,
        TxResult,
    };
    let acct = |m: &mut Mix| AccountId(m.next() >> m.below(64));
    let currency = |m: &mut Mix| IssuedCurrency {
        currency: m.symbol(),
        issuer: acct(m),
    };
    let value = |m: &mut Mix| (m.next() as i128 - (1 << 63)) << m.below(40);
    let amount = |m: &mut Mix| match m.below(2) {
        0 => Amount::xrp_drops(m.next() as i64 >> m.below(64)),
        _ => Amount {
            asset: Asset::Iou(currency(m)),
            value: value(m),
        },
    };
    let tx = |m: &mut Mix| {
        let payload = match m.below(14) {
            0 => TxPayload::Payment {
                destination: acct(m),
                amount: amount(m),
                send_max: (m.below(2) == 0).then(|| amount(m)),
            },
            1 => TxPayload::OfferCreate {
                gets: amount(m),
                pays: amount(m),
            },
            2 => TxPayload::OfferCancel {
                offer: OfferId(m.next() >> m.below(64)),
            },
            3 => TxPayload::TrustSet {
                currency: currency(m),
                limit: value(m),
            },
            4 => TxPayload::AccountSet {
                flags: m.next() as u32,
            },
            5 => TxPayload::SignerListSet {
                quorum: m.next() as u8,
                signer_count: m.next() as u8,
            },
            6 => TxPayload::SetRegularKey,
            7 => TxPayload::EscrowCreate {
                destination: acct(m),
                drops: m.next() as i64 >> m.below(64),
                finish_after: m.time(),
                cancel_after: (m.below(2) == 0).then(|| m.time()),
            },
            8 => TxPayload::EscrowFinish {
                escrow_id: m.next() >> m.below(64),
            },
            9 => TxPayload::EscrowCancel {
                escrow_id: m.next() >> m.below(64),
            },
            10 => TxPayload::PaymentChannelCreate {
                destination: acct(m),
                drops: m.next() as i64 >> m.below(64),
            },
            11 => TxPayload::PaymentChannelClaim {
                channel_id: m.next() >> m.below(64),
                drops: m.next() as i64 >> m.below(64),
            },
            _ => TxPayload::EnableAmendment {
                amendment: m.hostile_text(),
            },
        };
        let mut tx = Transaction::new(acct(m), payload, m.next() as i64 >> m.below(64));
        tx.destination_tag = (m.below(2) == 0).then(|| m.next() as u32);
        const RESULTS: [TxResult; 4] = [
            TxResult::Success,
            TxResult::PathDry,
            TxResult::UnfundedOffer,
            TxResult::Malformed,
        ];
        AppliedTx {
            tx,
            result: RESULTS[m.below(4) as usize],
            delivered: (m.below(3) == 0).then(|| amount(m)),
            crossed: m.below(2) == 0,
        }
    };
    xrp::LedgerBlock {
        index: m.next() >> m.below(64),
        close_time: m.time(),
        transactions: (0..m.below(8)).map(|_| tx(m)).collect(),
    }
}

proptest! {
    #[test]
    fn built_blocks_with_hostile_strings_are_fixed_points_that_parse_back(seed in any::<u64>()) {
        let m = &mut Mix(seed);
        for _ in 0..8 {
            check_eos(&built_eos_block(m));
            check_tezos(&built_tezos_block(m));
            check_xrp(&built_xrp_ledger(m));
        }
    }
}

/// Golden pins for the two byte products that leave the process: the
/// rendered report and the shard-frame bundle a whole-chain sweep ships.
/// Recorded at commit 512eccd, the last one whose retired JSON paths could
/// cross-check them; any drift in generation, the sweeps, the renderers or
/// the binary column encoding changes one of these integers.
#[test]
fn report_and_frame_bundle_bytes_are_pinned_for_small_seeds() {
    use txstat::reports::{generate, render_report, scenario_meta, ShardContext};
    use txstat::types::ids::fnv1a64;
    use txstat::wire::{encode_all, PayloadFormat};
    let pin = |bytes: &[u8]| (bytes.len(), fnv1a64(bytes));

    let sc = Scenario::small(42);
    let report = render_report(&generate(&sc));
    assert_eq!(
        pin(report.as_bytes()),
        (16633, 0x0bfe7f8e21fd27c9),
        "report, seed 42"
    );
    let report = render_report(&generate(&Scenario::small(7)));
    assert_eq!(
        pin(report.as_bytes()),
        (16552, 0x2ac5e4870f525c62),
        "report, seed 7"
    );

    let ctx = ShardContext::new(&sc);
    let frames = ctx
        .frames(
            scenario_meta(&sc, "small"),
            0,
            ctx.total_blocks(),
            2,
            PayloadFormat::Bin,
        )
        .expect("generated context sweeps");
    assert_eq!(
        pin(&encode_all(&frames)),
        (33654, 0x14c1dd4e54f14b4e),
        "frame bundle, seed 42"
    );
}

/// Figure 2's integers per chain: `(blocks, transactions, wire_bytes,
/// sampled_bytes, sampled_compressed_bytes)`, first recorded before the
/// streaming writers and the array-chain LZSS matcher. The small report prints
/// storage as `0.000` / `0.001` GB, so a wrong wire length would not move
/// the report pin above; it moves these. The paper-scale twin lives in
/// `paper_bands.rs::paper_scale_lands_every_band`.
#[test]
fn figure2_storage_integers_are_pinned_for_small_seed_42() {
    let data = txstat::reports::generate(&Scenario::small(42));
    let (eos, tezos, xrp) = data.storage_stats();
    let row = |s: &txstat::crawler::CrawlStats| {
        (
            s.blocks,
            s.transactions,
            s.wire_bytes,
            s.sampled_bytes,
            s.sampled_compressed_bytes,
        )
    };
    assert_eq!(row(eos), (576, 2413, 2_204_102, 227_707, 40_958), "eos");
    assert_eq!(
        row(tezos),
        (2712, 59_647, 4_992_190, 622_878, 157_592),
        "tezos"
    );
    assert_eq!(row(xrp), (146, 1557, 415_021, 49_158, 12_939), "xrp");
}

/// Every reply the three simulated node RPCs give for `Scenario::small(7)`,
/// asked the way the crawler asks: EOS `get_info` and every `get_block`,
/// Tezos `head` and every level, XRP `server_info` and every `ledger`
/// frame. The handlers are called directly, with no socket. Each chain is
/// pinned as `(replies, bytes, FNV-1a)` over its replies' bodies laid end
/// to end (an XRP reply is its frame without the newline).
#[test]
fn endpoint_replies_are_pinned_for_small_seed_7() {
    use serde_json::json;
    use std::sync::Arc;
    use txstat::netsim::handlers::{EosRpcHandler, TezosRpcHandler, XrpRpcHandler};
    use txstat::netsim::http::{HttpRequest, HttpResponse};
    use txstat::netsim::server::{HttpHandler, JsonHandler};
    use txstat::types::ids::fnv1a64;
    use txstat::workload::{eos::build_eos, tezos::build_tezos, xrp::build_xrp};
    let pin = |replies: Vec<Vec<u8>>| {
        let all = replies.concat();
        (replies.len(), all.len(), fnv1a64(&all))
    };
    let body = |resp: HttpResponse| {
        assert_eq!(resp.status, 200);
        resp.body
    };
    let sc = Scenario::small(7);

    let chain = Arc::new(build_eos(&sc));
    let eos = EosRpcHandler::new(chain.clone());
    let info = HttpRequest::post("/v1/chain/get_info", b"{}".to_vec());
    let mut replies = vec![body(eos.handle(&info))];
    for b in chain.blocks() {
        let req = serde_json::to_vec(&json!({ "block_num_or_id": b.num })).unwrap();
        replies.push(body(
            eos.handle(&HttpRequest::post("/v1/chain/get_block", req)),
        ));
    }
    assert_eq!(pin(replies), (577, 2_171_349, 0xcac72782bafade86), "eos");

    let chain = Arc::new(build_tezos(&sc));
    let tezos = TezosRpcHandler::new(chain.clone());
    let mut replies = vec![body(
        tezos.handle(&HttpRequest::get("/chains/main/blocks/head")),
    )];
    for b in chain.blocks() {
        let path = format!("/chains/main/blocks/{}", b.level);
        replies.push(body(tezos.handle(&HttpRequest::get(&path))));
    }
    assert_eq!(pin(replies), (2713, 5_018_705, 0x4087b06407e14cd1), "tezos");

    let ledger = Arc::new(build_xrp(&sc));
    let usernames = txstat::workload::xrp::known_usernames()
        .into_iter()
        .map(|(a, n)| (a, n.to_owned()))
        .collect();
    let xrp = XrpRpcHandler::new(ledger.clone(), usernames);
    let frame = |request| serde_json::to_vec(&xrp.handle(&request)).unwrap();
    let mut replies = vec![frame(json!({"id": 0, "command": "server_info"}))];
    for n in ledger.config.start_index..=ledger.head_index() {
        replies.push(frame(json!({
            "id": n, "command": "ledger", "ledger_index": n,
            "transactions": true, "expand": true,
        })));
    }
    assert_eq!(pin(replies), (147, 459_868, 0x4fb90812b8a591d8), "xrp");
}

/// `(route, bytes, FNV-1a)` for every route a served epoch renders from
/// `data`: each `/exhibit/<name>` in report order, the comparison last,
/// then the busiest account of each chain (`sample_account_paths`), whose
/// path names the account ranked first.
fn route_pins(data: txstat::reports::PipelineData) -> Vec<(String, usize, u64)> {
    use std::sync::Arc;
    use txstat::ingest::EpochCell;
    use txstat::reports::{
        comparison_section, report_sections, sample_account_paths, ServeSnapshot, StatsService,
    };
    use txstat::types::ids::fnv1a64;
    let pin = |route: String, bytes: &[u8]| (route, bytes.len(), fnv1a64(bytes));
    let mut sections = report_sections(&data);
    sections.push(("comparison", comparison_section(&data)));
    let mut pins: Vec<_> = sections
        .into_iter()
        .map(|(name, body)| pin(format!("/exhibit/{name}"), body.as_bytes()))
        .collect();
    let paths = sample_account_paths(&data);
    let cell = EpochCell::new(Arc::new(ServeSnapshot::new(1, false, data)));
    let service = StatsService::new(Arc::new(cell));
    for path in paths {
        let reply = service.respond("GET", &path);
        assert_eq!(reply.status, 200, "{path}");
        pins.push(pin(path, &reply.body));
    }
    pins
}

/// Compare route by route, so a drifted byte names its route.
fn assert_route_pins(data: txstat::reports::PipelineData, want: &[(&str, usize, u64)], what: &str) {
    let got = route_pins(data);
    for ((route, len, fnv), pinned) in got.iter().zip(want) {
        assert_eq!(
            &(route.as_str(), *len, *fnv),
            pinned,
            "{what}: {}",
            pinned.0
        );
    }
    assert_eq!(got.len(), want.len(), "{what}: route count");
}

/// Per-route twins of the report pins above, at small seeds 7 and 42 and
/// at one mid-follow epoch (seed 7 after three batches of 64, a partial
/// snapshot as `serve` renders them): every section, the comparison and
/// the account route of each chain that has a busiest account yet (Tezos
/// has none at that epoch). A renderer or ranking change that moves a
/// byte fails here under the name of the route it moved.
#[test]
fn every_section_and_account_route_is_pinned_for_small_seeds() {
    use txstat::reports::{generate, Follower};
    for (seed, want) in [(7, SEED_7_ROUTES), (42, SEED_42_ROUTES)] {
        assert_route_pins(
            generate(&Scenario::small(seed)),
            want,
            &format!("seed {seed}"),
        );
    }
    let mut follower = Follower::new(generate(&Scenario::small(7)), 64);
    follower.advance().expect("epoch 1");
    follower.advance().expect("epoch 2");
    assert_route_pins(
        follower.advance().expect("epoch 3"),
        MID_FOLLOW_ROUTES,
        "seed 7 epoch 3 of batch 64",
    );
}

const SEED_7_ROUTES: &[(&str, usize, u64)] = &[
    ("/exhibit/headline", 428, 0xc2f4d3bd26f23ba1),
    ("/exhibit/fig1", 1485, 0xb5f035c74e4dc824),
    ("/exhibit/fig2", 563, 0xd2d65a7d8fa98546),
    ("/exhibit/fig3", 2347, 0xc96c2ce57314d012),
    ("/exhibit/fig4", 548, 0x5662a494301c3f7e),
    ("/exhibit/fig5", 659, 0xb3960a9f9063611f),
    ("/exhibit/fig6", 594, 0xc3309db353858a9e),
    ("/exhibit/fig7", 409, 0x5d87bc89b9da3b3c),
    ("/exhibit/fig8", 1266, 0x0ae5978f5821a95c),
    ("/exhibit/fig9", 1034, 0x9e1fa98eb84a2215),
    ("/exhibit/fig11", 514, 0x4da4339a26ee38fc),
    ("/exhibit/fig12", 1396, 0x9bf4583d102d856f),
    ("/exhibit/case_studies", 1003, 0xc8a51dab0a0ea2e9),
    ("/exhibit/comparison", 3435, 0x33476a722092432c),
    ("/account/eos/eosio.token", 150, 0x2625026cc1922e44),
    ("/account/tezos/tz11111111b4XX", 295, 0x615ea95de931ef8a),
    ("/account/xrp/rrrrrrrao8ib", 160, 0x271e148f1f67e8bf),
];
const SEED_42_ROUTES: &[(&str, usize, u64)] = &[
    ("/exhibit/headline", 428, 0xf293db72f1e599cd),
    ("/exhibit/fig1", 1483, 0x5381134ce6b3a7b9),
    ("/exhibit/fig2", 563, 0xb181ebfcd00acecd),
    ("/exhibit/fig3", 2346, 0x124c1991d95d4085),
    ("/exhibit/fig4", 545, 0x48a199582fd2d5bc),
    ("/exhibit/fig5", 656, 0x0a5955215e98c5c0),
    ("/exhibit/fig6", 594, 0x6c513ead2de905a3),
    ("/exhibit/fig7", 409, 0x5489986b9177adb4),
    ("/exhibit/fig8", 1266, 0xf0414d2c48d1b363),
    ("/exhibit/fig9", 1034, 0xf9fde079eed3d4f4),
    ("/exhibit/fig11", 514, 0x2165bdeec52884f1),
    ("/exhibit/fig12", 1490, 0x8489c9ab952840c1),
    ("/exhibit/case_studies", 1003, 0x82748e2ef89fd7e7),
    ("/exhibit/comparison", 3431, 0x6e6478422a8a8051),
    ("/account/eos/eosio.token", 150, 0xdd0be83987f424e8),
    ("/account/tezos/tz11111111b4XX", 297, 0x62b0e04de5a80497),
    ("/account/xrp/rrrrrrrao8ib", 160, 0x5d96efb8091f8c00),
];
const MID_FOLLOW_ROUTES: &[(&str, usize, u64)] = &[
    ("/exhibit/headline", 409, 0x59be6d3c7b042236),
    ("/exhibit/fig1", 1068, 0xf6306e8241786713),
    ("/exhibit/fig2", 563, 0xd2d65a7d8fa98546),
    ("/exhibit/fig3", 1833, 0x68f4ca354de5a568),
    ("/exhibit/fig4", 598, 0xb5da6729a455e422),
    ("/exhibit/fig5", 763, 0xbc15e1e75eaf0b1e),
    ("/exhibit/fig6", 250, 0xfe59c690643d4f0c),
    ("/exhibit/fig7", 409, 0x5d87bc89b9da3b3c),
    ("/exhibit/fig8", 1266, 0x0ae5978f5821a95c),
    ("/exhibit/fig9", 109, 0xccd011676d6ad8b2),
    ("/exhibit/fig11", 514, 0x4da4339a26ee38fc),
    ("/exhibit/fig12", 1396, 0x9bf4583d102d856f),
    ("/exhibit/case_studies", 992, 0xff1a827144a51576),
    ("/exhibit/comparison", 3129, 0x61778655a168da7c),
    ("/account/eos/eosio.token", 146, 0xf6b0c53de90dd91c),
    ("/account/xrp/rrrrrrrao8ib", 160, 0x271e148f1f67e8bf),
];

/// `(bytes, FNV-1a)` of the whole Figure 9 vote curves and the whole
/// Figure 3a category series (every point, in category order) at small
/// seeds 7 and 42 and at the mid-follow epoch above. The rendered
/// sections print a sparkline of each, so a point can move without moving
/// the route pins; it moves these.
#[test]
fn vote_curves_and_eos_category_series_are_pinned_for_small_seeds() {
    use txstat::core::eos_analysis::EosLabels;
    use txstat::reports::{generate, Follower, PipelineData};
    use txstat::types::ids::fnv1a64;
    let pins = |data: &PipelineData| {
        let sweeps = data.sweeps();
        let curves = format!("{:?}", sweeps.tezos.governance_curves(&data.tezos_rolls));
        let curated = EosLabels::curated();
        let series = sweeps
            .eos
            .throughput_series(&sweeps.eos.labels(100, &|n| curated.get(n)));
        let rows: Vec<_> = series
            .categories_sorted()
            .into_iter()
            .map(|cat| (cat, series.series_for(&cat)))
            .collect();
        let series = format!("{:?}", (series.total(), series.out_of_range(), rows));
        [
            (curves.len(), fnv1a64(curves.as_bytes())),
            (series.len(), fnv1a64(series.as_bytes())),
        ]
    };
    let mut follower = Follower::new(generate(&Scenario::small(7)), 64);
    follower.advance().expect("epoch 1");
    follower.advance().expect("epoch 2");
    let got = [
        pins(&generate(&Scenario::small(7))),
        pins(&generate(&Scenario::small(42))),
        pins(&follower.advance().expect("epoch 3")),
    ];
    assert_eq!(
        got,
        [
            [(5914, 0xf5d262e31febef4c), (8185, 0x4c892302b5a0c5eb)],
            [(5902, 0x358cbbebd5c2a108), (8190, 0xdcd76da87f6bfbfe)],
            [(587, 0xd1b6670819b822e3), (8153, 0xe5acf95f50e53817)],
        ],
        "[seed 7, seed 42, seed 7 epoch 3] x [vote curves, EOS category series]"
    );
}
