//! Columnar block codec — archive segment payload schema v2.
//!
//! Encodes a run of EOS blocks as struct-of-arrays columns over
//! [`txstat_types::colcodec`]: an interned name table (producers,
//! contracts, actors — via [`ColKey`]), an interned symbol table, then
//! per-block header columns and flattened transaction/action streams.
//! Canonical LEB128 throughout; decoding is strict and typed — every
//! failure is a [`ColError`] carrying a byte offset, never a panic.
//!
//! The decode of an encode is exactly what the wire-JSON round trip
//! produces (`block_parse(&block_bytes(b))`): action payloads whose
//! wire name would not reconstruct them degrade to [`ActionData::Generic`]
//! at encode time, and `net_bytes` travels as `net_usage_words`
//! (`net_bytes / 8`), mirroring the RPC model's lossy spots bit for bit.
//! That keeps every downstream consumer — reports, reorg marks, follow
//! verification — byte-identical whichever segment schema fed it.

use crate::name::Name;
use crate::types::{Action, ActionData, Block, Transaction};
use std::collections::HashMap;
use txstat_types::amount::SymCode;
use txstat_types::colcodec::{ColError, ColKey, ColReader, ColWriter};
use txstat_types::time::ChainTime;

/// Leading schema tag of an EOS column blob.
const SCHEMA_TAG: u8 = 1;

/// Action-payload tags (order fixed by the on-disk format).
const DATA_GENERIC: u8 = 0;
const DATA_TRANSFER: u8 = 1;
const DATA_TRADE: u8 = 2;
const DATA_NEW_ACCOUNT: u8 = 3;
const DATA_DELEGATE_BW: u8 = 4;
const DATA_UNDELEGATE_BW: u8 = 5;
const DATA_BUY_RAM: u8 = 6;
const DATA_BUY_RAM_BYTES: u8 = 7;
const DATA_BID_NAME: u8 = 8;
const DATA_VOTE_PRODUCER: u8 = 9;
const DATA_RENT_CPU: u8 = 10;

/// Interned tables collected in first-seen order over a canonical walk,
/// so two encodes of the same blocks are byte-identical.
#[derive(Default)]
struct Tables {
    names: Vec<Name>,
    name_ids: HashMap<u64, u32>,
    syms: Vec<SymCode>,
    sym_ids: HashMap<SymCode, u32>,
}

impl Tables {
    fn name(&mut self, n: Name) -> u32 {
        *self.name_ids.entry(n.0).or_insert_with(|| {
            self.names.push(n);
            (self.names.len() - 1) as u32
        })
    }

    fn sym(&mut self, s: SymCode) -> u32 {
        *self.sym_ids.entry(s).or_insert_with(|| {
            self.syms.push(s);
            (self.syms.len() - 1) as u32
        })
    }
}

/// What the wire-JSON round trip would leave of this action's payload:
/// the structured data survives only when the action's wire `name` is the
/// one `action_data_from_json` dispatches that variant on.
fn normalized(a: &Action) -> ActionData {
    let name = a.name.to_string_repr();
    let keeps = matches!(
        (&a.data, name.as_str()),
        (ActionData::Transfer { .. }, "transfer")
            | (ActionData::Trade { .. }, "trade" | "verifytrade2")
            | (ActionData::NewAccount { .. }, "newaccount")
            | (ActionData::DelegateBw { .. }, "delegatebw")
            | (ActionData::UndelegateBw { .. }, "undelegatebw")
            | (ActionData::BuyRam { .. }, "buyram")
            | (ActionData::BuyRamBytes { .. }, "buyrambytes")
            | (ActionData::BidName { .. }, "bidname")
            | (ActionData::VoteProducer { .. }, "voteproducer")
            | (ActionData::RentCpu { .. }, "rentcpu")
    );
    if keeps {
        a.data.clone()
    } else {
        ActionData::Generic
    }
}

fn encode_data(w: &mut ColWriter, t: &mut Tables, data: &ActionData) {
    match data {
        ActionData::Generic => w.byte(DATA_GENERIC),
        ActionData::Transfer {
            from,
            to,
            symbol,
            amount,
        } => {
            w.byte(DATA_TRANSFER);
            w.u32(t.name(*from));
            w.u32(t.name(*to));
            w.u32(t.sym(*symbol));
            w.i64(*amount);
        }
        ActionData::Trade {
            buyer,
            seller,
            base_symbol,
            base_amount,
            quote_symbol,
            quote_amount,
        } => {
            w.byte(DATA_TRADE);
            w.u32(t.name(*buyer));
            w.u32(t.name(*seller));
            w.u32(t.sym(*base_symbol));
            w.i64(*base_amount);
            w.u32(t.sym(*quote_symbol));
            w.i64(*quote_amount);
        }
        ActionData::NewAccount { creator, name } => {
            w.byte(DATA_NEW_ACCOUNT);
            w.u32(t.name(*creator));
            w.u32(t.name(*name));
        }
        ActionData::DelegateBw {
            from,
            receiver,
            net,
            cpu,
        } => {
            w.byte(DATA_DELEGATE_BW);
            w.u32(t.name(*from));
            w.u32(t.name(*receiver));
            w.i64(*net);
            w.i64(*cpu);
        }
        ActionData::UndelegateBw {
            from,
            receiver,
            net,
            cpu,
        } => {
            w.byte(DATA_UNDELEGATE_BW);
            w.u32(t.name(*from));
            w.u32(t.name(*receiver));
            w.i64(*net);
            w.i64(*cpu);
        }
        ActionData::BuyRam {
            payer,
            receiver,
            quant,
        } => {
            w.byte(DATA_BUY_RAM);
            w.u32(t.name(*payer));
            w.u32(t.name(*receiver));
            w.i64(*quant);
        }
        ActionData::BuyRamBytes {
            payer,
            receiver,
            bytes,
        } => {
            w.byte(DATA_BUY_RAM_BYTES);
            w.u32(t.name(*payer));
            w.u32(t.name(*receiver));
            w.u64(*bytes);
        }
        ActionData::BidName {
            bidder,
            newname,
            bid,
        } => {
            w.byte(DATA_BID_NAME);
            w.u32(t.name(*bidder));
            w.u32(t.name(*newname));
            w.i64(*bid);
        }
        ActionData::VoteProducer {
            voter,
            producer_count,
        } => {
            w.byte(DATA_VOTE_PRODUCER);
            w.u32(t.name(*voter));
            w.byte(*producer_count);
        }
        ActionData::RentCpu {
            from,
            receiver,
            payment,
        } => {
            w.byte(DATA_RENT_CPU);
            w.u32(t.name(*from));
            w.u32(t.name(*receiver));
            w.i64(*payment);
        }
    }
}

/// Encode a contiguous run of blocks into one column blob.
pub fn encode_blocks(blocks: &[Block]) -> Vec<u8> {
    // Pass 1: the body, interning as it walks (the tables are a prefix of
    // the final blob, so the body is buffered separately).
    let mut t = Tables::default();
    let mut body = ColWriter::with_capacity(blocks.len() * 64);
    body.u64(blocks.len() as u64);
    for b in blocks {
        body.u64(b.num);
        body.i64(b.time.0);
        body.u32(t.name(b.producer));
        body.u64(b.transactions.len() as u64);
        for tx in &b.transactions {
            body.u64(tx.id);
            body.u32(tx.cpu_us);
            body.u32(tx.net_bytes / 8); // net_usage_words, as on the wire
            body.u64(tx.actions.len() as u64);
            for a in &tx.actions {
                body.u32(t.name(a.contract));
                body.u32(t.name(a.name));
                body.u32(t.name(a.actor));
                encode_data(&mut body, &mut t, &normalized(a));
            }
        }
    }
    let body = body.into_bytes();
    let mut w = ColWriter::with_capacity(16 + t.names.len() * 8 + body.len());
    w.byte(SCHEMA_TAG);
    w.u64(t.names.len() as u64);
    for n in &t.names {
        n.encode_key(&mut w);
    }
    w.u64(t.syms.len() as u64);
    for s in &t.syms {
        w.str(s.as_str());
    }
    let mut out = w.into_bytes();
    out.extend_from_slice(&body);
    out
}

fn read_name(r: &mut ColReader<'_>, names: &[Name]) -> Result<Name, ColError> {
    let i = r.u32()? as usize;
    names
        .get(i)
        .copied()
        .ok_or_else(|| r.invalid(format!("name ref {i} out of table (len {})", names.len())))
}

fn read_sym(r: &mut ColReader<'_>, syms: &[SymCode]) -> Result<SymCode, ColError> {
    let i = r.u32()? as usize;
    syms.get(i)
        .copied()
        .ok_or_else(|| r.invalid(format!("symbol ref {i} out of table (len {})", syms.len())))
}

fn decode_data(
    r: &mut ColReader<'_>,
    names: &[Name],
    syms: &[SymCode],
) -> Result<ActionData, ColError> {
    let tag = r.byte()?;
    Ok(match tag {
        DATA_GENERIC => ActionData::Generic,
        DATA_TRANSFER => ActionData::Transfer {
            from: read_name(r, names)?,
            to: read_name(r, names)?,
            symbol: read_sym(r, syms)?,
            amount: r.i64()?,
        },
        DATA_TRADE => ActionData::Trade {
            buyer: read_name(r, names)?,
            seller: read_name(r, names)?,
            base_symbol: read_sym(r, syms)?,
            base_amount: r.i64()?,
            quote_symbol: read_sym(r, syms)?,
            quote_amount: r.i64()?,
        },
        DATA_NEW_ACCOUNT => ActionData::NewAccount {
            creator: read_name(r, names)?,
            name: read_name(r, names)?,
        },
        DATA_DELEGATE_BW => ActionData::DelegateBw {
            from: read_name(r, names)?,
            receiver: read_name(r, names)?,
            net: r.i64()?,
            cpu: r.i64()?,
        },
        DATA_UNDELEGATE_BW => ActionData::UndelegateBw {
            from: read_name(r, names)?,
            receiver: read_name(r, names)?,
            net: r.i64()?,
            cpu: r.i64()?,
        },
        DATA_BUY_RAM => ActionData::BuyRam {
            payer: read_name(r, names)?,
            receiver: read_name(r, names)?,
            quant: r.i64()?,
        },
        DATA_BUY_RAM_BYTES => ActionData::BuyRamBytes {
            payer: read_name(r, names)?,
            receiver: read_name(r, names)?,
            bytes: r.u64()?,
        },
        DATA_BID_NAME => ActionData::BidName {
            bidder: read_name(r, names)?,
            newname: read_name(r, names)?,
            bid: r.i64()?,
        },
        DATA_VOTE_PRODUCER => ActionData::VoteProducer {
            voter: read_name(r, names)?,
            producer_count: r.byte()?,
        },
        DATA_RENT_CPU => ActionData::RentCpu {
            from: read_name(r, names)?,
            receiver: read_name(r, names)?,
            payment: r.i64()?,
        },
        other => return Err(r.invalid(format!("bad action data tag {other}"))),
    })
}

/// Decode a column blob back into blocks. Strict: trailing bytes, forged
/// counts, and out-of-table references are all typed errors.
pub fn decode_blocks(bytes: &[u8]) -> Result<Vec<Block>, ColError> {
    let mut r = ColReader::new(bytes);
    let tag = r.byte()?;
    if tag != SCHEMA_TAG {
        return Err(r.invalid(format!(
            "bad eos column schema tag {tag} (want {SCHEMA_TAG})"
        )));
    }
    let mut names = Vec::new();
    for _ in 0..r.len(1)? {
        names.push(Name::decode_key(&mut r)?);
    }
    let mut syms = Vec::new();
    for _ in 0..r.len(1)? {
        let s = r.str()?;
        syms.push(SymCode::try_new(s).map_err(|e| r.invalid(format!("symbol table: {e}")))?);
    }
    let mut blocks = Vec::new();
    for _ in 0..r.len(4)? {
        let num = r.u64()?;
        let time = ChainTime(r.i64()?);
        let producer = read_name(&mut r, &names)?;
        let mut transactions = Vec::new();
        for _ in 0..r.len(3)? {
            let id = r.u64()?;
            let cpu_us = r.u32()?;
            let net_words = r.u32()?;
            if net_words > u32::MAX / 8 {
                return Err(r.invalid(format!("net_usage_words {net_words} overflows net_bytes")));
            }
            let mut actions = Vec::new();
            for _ in 0..r.len(4)? {
                let contract = read_name(&mut r, &names)?;
                let name = read_name(&mut r, &names)?;
                let actor = read_name(&mut r, &names)?;
                let data = decode_data(&mut r, &names, &syms)?;
                actions.push(Action {
                    contract,
                    name,
                    actor,
                    data,
                });
            }
            transactions.push(Transaction {
                id,
                actions,
                cpu_us,
                net_bytes: net_words * 8,
            });
        }
        blocks.push(Block {
            num,
            time,
            producer,
            transactions,
        });
    }
    r.finish()?;
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc_model::{block_bytes, block_parse};

    fn sample() -> Vec<Block> {
        vec![
            Block {
                num: 82_024_737,
                time: ChainTime::from_ymd_hms(2019, 10, 1, 0, 0, 30),
                producer: Name::new("eosbpone1111"),
                transactions: vec![Transaction {
                    id: 0xdeadbeef,
                    actions: vec![
                        Action::token_transfer(
                            Name::new("eosio.token"),
                            Name::new("alice"),
                            Name::new("bob"),
                            SymCode::new("EOS"),
                            9_5000,
                        ),
                        Action::new(
                            Name::new("betdicetasks"),
                            Name::new("removetask"),
                            Name::new("betdicegroup"),
                            ActionData::Generic,
                        ),
                        // Structured data under the wrong wire name: the
                        // JSON round trip degrades this to Generic, so the
                        // columns must too.
                        Action::new(
                            Name::new("eosio.token"),
                            Name::new("notransfer"),
                            Name::new("alice"),
                            ActionData::Transfer {
                                from: Name::new("alice"),
                                to: Name::new("bob"),
                                symbol: SymCode::new("EOS"),
                                amount: 1,
                            },
                        ),
                    ],
                    cpu_us: 250,
                    net_bytes: 164, // not a multiple of 8: wire rounds to 160
                }],
            },
            Block {
                num: 82_024_738,
                time: ChainTime::from_ymd_hms(2019, 10, 1, 0, 0, 31),
                producer: Name::new("eosbptwo2222"),
                transactions: vec![],
            },
        ]
    }

    #[test]
    fn roundtrip_matches_wire_json_oracle() {
        let blocks = sample();
        let bytes = encode_blocks(&blocks);
        let decoded = decode_blocks(&bytes).unwrap();
        let oracle: Vec<Block> = blocks
            .iter()
            .map(|b| block_parse(&block_bytes(b)).unwrap())
            .collect();
        assert_eq!(decoded, oracle);
        // Second encode of the decoded blocks is byte-identical (the
        // normalization is idempotent).
        assert_eq!(encode_blocks(&decoded), bytes);
    }

    #[test]
    fn truncation_and_damage_are_typed() {
        let bytes = encode_blocks(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_blocks(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decode_blocks(&bad), Err(ColError::Invalid { .. })));
    }

    #[test]
    fn empty_run_roundtrips() {
        let bytes = encode_blocks(&[]);
        assert_eq!(decode_blocks(&bytes).unwrap(), Vec::<Block>::new());
    }
}
