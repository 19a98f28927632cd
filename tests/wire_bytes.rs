//! The canonical wire bytes (`block_bytes` / `ledger_bytes`) are written
//! straight from the chain model by streaming writers. Their contract is
//! the DTO path they replaced: for every block,
//!
//! * `block_bytes(b) == serde_json::to_vec(&block_to_json(b))`, byte for
//!   byte — archives, reorg content hashes and the Figure 2 numbers are
//!   pinned to those bytes — and
//! * `block_parse(&block_bytes(b))` is what the DTO round trip yields.
//!
//! Checked over every block of the small scenario at several seeds, and
//! over built blocks whose strings carry quotes, backslashes, control
//! characters and non-ASCII wherever the model admits a free string
//! (EOS symbol codes, Tezos proposals, XRP amendments and currencies).

use proptest::prelude::*;
use txstat::eos::{self, rpc_model as eos_rpc};
use txstat::tezos::{self, rpc_model as tezos_rpc};
use txstat::types::amount::SymCode;
use txstat::types::time::ChainTime;
use txstat::workload::Scenario;
use txstat::xrp::{self, rpc_model as xrp_rpc};

fn check_eos(b: &eos::Block) {
    let dto = eos_rpc::block_to_json(b);
    let bytes = eos_rpc::block_bytes(b);
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        serde_json::to_string(&dto).expect("serializable"),
        "eos block {}",
        b.num
    );
    assert_eq!(
        eos_rpc::block_parse(&bytes),
        eos_rpc::block_from_json(&dto).map_err(|e| e.to_string())
    );
}

fn check_tezos(b: &tezos::TezosBlock) {
    let dto = tezos_rpc::block_to_json(b);
    let bytes = tezos_rpc::block_bytes(b);
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        serde_json::to_string(&dto).expect("serializable"),
        "tezos block {}",
        b.level
    );
    let parsed = tezos_rpc::block_parse(&bytes).expect("own bytes parse");
    assert_eq!(
        parsed,
        tezos_rpc::block_from_json(&dto).expect("own DTO decodes")
    );
}

fn check_xrp(b: &xrp::LedgerBlock) {
    let dto = xrp_rpc::ledger_to_json(b);
    let bytes = xrp_rpc::ledger_bytes(b);
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        serde_json::to_string(&dto).expect("serializable"),
        "xrp ledger {}",
        b.index
    );
    let parsed = xrp_rpc::ledger_parse(&bytes).expect("own bytes parse");
    let oracle = xrp_rpc::ledger_from_json(&dto).expect("own DTO decodes");
    assert_eq!(
        (parsed.index, parsed.close_time, parsed.transactions),
        (oracle.index, oracle.close_time, oracle.transactions)
    );
}

#[test]
fn every_generated_block_serializes_like_the_dto_path() {
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
    fn built_blocks_with_hostile_strings_serialize_like_the_dto_path(seed in any::<u64>()) {
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
    assert_eq!(pin(report.as_bytes()), (16632, 0x56410f6dc42061e4), "report, seed 42");
    let report = render_report(&generate(&Scenario::small(7)));
    assert_eq!(pin(report.as_bytes()), (16551, 0x3e967d20cf81b707), "report, seed 7");

    let ctx = ShardContext::new(&sc);
    let frames = ctx
        .frames(scenario_meta(&sc, "small"), 0, ctx.total_blocks(), 2, PayloadFormat::Bin)
        .expect("generated context sweeps");
    assert_eq!(pin(&encode_all(&frames)), (33654, 0x14c1dd4e54f14b4e), "frame bundle, seed 42");
}
