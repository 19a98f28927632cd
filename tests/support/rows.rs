//! The damage-table rows of the column decoders, shared by the binaries
//! that walk them: the three `block_cols::decode_blocks` and the three
//! `*Columnar::from_wire_bytes`, each over a window of generated blocks.
//! `tests/damage.rs` walks them at [`WINDOWS`] under every mutator;
//! `tests/archive_v2.rs` and `tests/wire_reduce.rs` walk them at other
//! windows and over other payloads, one mutator family per test.

use super::{Mutation, Mutator, Row};
use std::mem::size_of;
use txstat::core::{EosColumnar, TezosColumnar, WireState, XrpColumnar};
use txstat::reports::PipelineData;
use txstat::types::colcodec::ColError;

/// The most elements a column decoder reserves room for before any has
/// decoded; its row's cap is this many of its widest element.
pub const RESERVE_CAP: usize = 1024;

/// The size of the widest of the types.
macro_rules! widest {
    ($($t:ty),*) => { [$(size_of::<$t>()),*].into_iter().max().unwrap_or(0) };
}

/// A block window: its label, the fraction of the chain it starts at and
/// its length in blocks.
pub type Window = (&'static str, f64, usize);

/// The 2-block windows the table walks every block and payload row at.
pub const WINDOWS: [Window; 3] = [("head", 0.0, 2), ("middle", 0.5, 2), ("tail", 1.0, 2)];

pub fn window<T>(blocks: &[T], (_, start_frac, len): Window) -> &[T] {
    let start = ((blocks.len().saturating_sub(1)) as f64 * start_frac) as usize;
    &blocks[start..(start + len).min(blocks.len())]
}

pub fn cut(m: Option<&Mutation>) -> bool {
    m.is_some_and(|m| m.mutator == Mutator::Truncation)
}

pub fn forged(m: Option<&Mutation>) -> bool {
    m.is_some_and(|m| matches!(m.mutator, Mutator::ForgedCount(_)))
}

type Codec<B> = (fn(&[B]) -> Vec<u8>, fn(&[u8]) -> Result<Vec<B>, ColError>);

/// The `block_cols::decode_blocks` rows of one chain, one per window. A
/// forged count never decodes. Whatever does re-encodes to a fixpoint, and
/// after a huge count (a value, then, not a count) keeps the healthy shape.
/// The schema tag is read first: damage at byte 0 is `Invalid`.
fn chain_block_rows<B: Send + Sync>(
    chain: &str,
    blocks: &'static [B],
    windows: &[Window],
    (encode, decode): Codec<B>,
    shape: fn(&[B]) -> Vec<usize>,
    widest: usize,
) -> Vec<Row<'static>> {
    let rows = windows.iter().map(|&w| {
        let want = shape(window(blocks, w));
        let verdict = move |m: Option<&Mutation>, _: &[u8], r: Result<Vec<B>, ColError>| match r {
            Ok(blocks) => {
                let re = encode(&blocks);
                let huge = m.is_some_and(|m| matches!(m.mutator, Mutator::HugeCount(_)));
                !forged(m)
                    && decode(&re).is_ok_and(|again| encode(&again) == re)
                    && (!huge || shape(&blocks) == want)
            }
            Err(e) => {
                m.is_some_and(|m| m.at > 0) || cut(m) || matches!(e, ColError::Invalid { .. })
            }
        };
        let name = format!("{chain}::block_cols::decode_blocks [{}]", w.0);
        let healthy = encode(window(blocks, w));
        Row {
            cap: RESERVE_CAP * widest,
            ..Row::new(&name, healthy, decode, verdict)
        }
    });
    rows.collect()
}

/// The `block_cols::decode_blocks` rows of all three chains at `windows`.
pub fn block_rows(data: &'static PipelineData, windows: &[Window]) -> Vec<Row<'static>> {
    let mut rows = Vec::new();
    {
        use txstat::eos::{block_cols as cols, Action, Block, Name, Transaction};
        let shape = |blocks: &[Block]| {
            let counts = blocks.iter().map(|b| b.transactions.len());
            let txs = blocks.iter().flat_map(|b| &b.transactions);
            let actions = txs.map(|t| t.actions.len());
            [blocks.len()]
                .into_iter()
                .chain(counts)
                .chain(actions)
                .collect()
        };
        let widest = widest!(
            Block,
            Transaction,
            Action,
            Name,
            txstat::types::amount::SymCode
        );
        let codec: Codec<Block> = (cols::encode_blocks, cols::decode_blocks);
        let blocks = &data.eos_blocks;
        rows.extend(chain_block_rows(
            "eos", blocks, windows, codec, shape, widest,
        ));
    }
    {
        use txstat::tezos::{block_cols as cols, Address, Operation, TezosBlock};
        let shape = |blocks: &[TezosBlock]| {
            let counts = blocks.iter().map(|b| b.operations.len());
            [blocks.len()].into_iter().chain(counts).collect()
        };
        let widest = widest!(TezosBlock, Operation, Address, String);
        let codec: Codec<TezosBlock> = (cols::encode_blocks, cols::decode_blocks);
        let blocks = &data.tezos_blocks;
        rows.extend(chain_block_rows(
            "tezos", blocks, windows, codec, shape, widest,
        ));
    }
    {
        use txstat::xrp::{block_cols as cols, AccountId, AppliedTx, IssuedCurrency, LedgerBlock};
        let shape = |blocks: &[LedgerBlock]| {
            let counts = blocks.iter().map(|b| b.transactions.len());
            [blocks.len()].into_iter().chain(counts).collect()
        };
        let widest = widest!(LedgerBlock, AppliedTx, AccountId, IssuedCurrency);
        let codec: Codec<LedgerBlock> = (cols::encode_blocks, cols::decode_blocks);
        let blocks = &data.xrp_blocks;
        rows.extend(chain_block_rows(
            "xrp", blocks, windows, codec, shape, widest,
        ));
    }
    rows
}

/// The frame payloads a worker encodes for each of `windows`: EOS, Tezos
/// and XRP, each labelled by its window.
pub fn payloads(data: &PipelineData, windows: &[Window]) -> [Vec<(String, Vec<u8>)>; 3] {
    let period = data.scenario.period;
    let fold = |bytes: &dyn Fn(Window) -> Vec<u8>| {
        let labelled = windows.iter().map(|&w| (w.0.to_owned(), bytes(w)));
        labelled.collect()
    };
    let eos = fold(&|w| {
        let mut acc = EosColumnar::new(period);
        window(&data.eos_blocks, w)
            .iter()
            .for_each(|b| acc.observe(b));
        acc.to_wire_bytes()
    });
    let tezos = fold(&|w| {
        let mut acc = TezosColumnar::new(period, data.governance_periods.clone());
        window(&data.tezos_blocks, w)
            .iter()
            .for_each(|b| acc.observe(b));
        acc.to_wire_bytes()
    });
    let xrp = fold(&|w| {
        let mut acc = XrpColumnar::new(period);
        window(&data.xrp_blocks, w)
            .iter()
            .for_each(|b| acc.observe(b, &data.oracle));
        acc.to_wire_bytes()
    });
    [eos, tezos, xrp]
}

/// The `from_wire_bytes` rows of one chain's labelled frame payloads: a
/// forged count never decodes, and whatever does re-encodes to exactly its
/// bytes.
pub fn payload_rows<A: WireState + 'static>(
    chain: &str,
    payloads: Vec<(String, Vec<u8>)>,
) -> Vec<Row<'static>> {
    // A Tezos governance event, a 4-wide series row, an `i128` tally.
    let widest = widest!(
        (
            txstat::types::time::ChainTime,
            String,
            txstat::tezos::Address
        ),
        [u64; 4],
        i128
    );
    let rows = payloads.into_iter().map(|(label, healthy)| {
        let name = format!("{chain}Columnar::from_wire_bytes [{label}]");
        let verdict = |m: Option<&Mutation>, bytes: &[u8], r: Result<A, _>| {
            r.map_or(true, |acc| !forged(m) && acc.to_wire_bytes() == bytes)
        };
        Row {
            cap: RESERVE_CAP * widest,
            ..Row::new(&name, healthy, A::from_wire_bytes, verdict)
        }
    });
    rows.collect()
}

/// The `from_wire_bytes` rows of all three chains' payloads.
pub fn all_payload_rows([eos, tezos, xrp]: [Vec<(String, Vec<u8>)>; 3]) -> Vec<Row<'static>> {
    let mut rows = payload_rows::<EosColumnar>("Eos", eos);
    rows.extend(payload_rows::<TezosColumnar>("Tezos", tezos));
    rows.extend(payload_rows::<XrpColumnar>("Xrp", xrp));
    rows
}
