//! Columnar block codec — archive segment payload schema v2.
//!
//! Encodes a run of Tezos blocks as struct-of-arrays columns over
//! [`txstat_types::colcodec`]: an interned address table (bakers, sources,
//! destinations — via [`ColKey`]), an interned proposal-string table, then
//! per-block header columns and a flattened operation stream. Canonical
//! LEB128 throughout; decoding is strict and typed — every failure is a
//! [`ColError`] with a byte offset, never a panic.
//!
//! The decode of an encode equals the wire-JSON round trip
//! (`block_parse(&block_bytes(b))`): the node RPC groups operations
//! into the four validation passes, so the encoder walks operations in
//! pass order (stable within a pass) and the decoded order matches what a
//! wire-JSON replay produces — keeping reports and reorg marks identical
//! whichever segment schema fed them.

use crate::address::Address;
use crate::chain::TezosBlock;
use crate::ops::{OpPayload, Operation, Vote};
use std::collections::HashMap;
use txstat_types::colcodec::{ColError, ColKey, ColReader, ColWriter};
use txstat_types::time::ChainTime;

/// Leading schema tag of a Tezos column blob.
const SCHEMA_TAG: u8 = 1;

/// Operation-payload tags (order fixed by the on-disk format).
const OP_ENDORSEMENT: u8 = 0;
const OP_TRANSACTION: u8 = 1;
const OP_ORIGINATION: u8 = 2;
const OP_DELEGATION: u8 = 3;
const OP_REVEAL: u8 = 4;
const OP_ACTIVATION: u8 = 5;
const OP_REVEAL_NONCE: u8 = 6;
const OP_BALLOT: u8 = 7;
const OP_PROPOSALS: u8 = 8;
const OP_DOUBLE_BAKING: u8 = 9;

#[derive(Default)]
struct Tables {
    addrs: Vec<Address>,
    addr_ids: HashMap<Address, u32>,
    strs: Vec<String>,
    str_ids: HashMap<String, u32>,
}

impl Tables {
    fn addr(&mut self, a: Address) -> u32 {
        *self.addr_ids.entry(a).or_insert_with(|| {
            self.addrs.push(a);
            (self.addrs.len() - 1) as u32
        })
    }

    fn string(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.str_ids.get(s) {
            return i;
        }
        let i = self.strs.len() as u32;
        self.strs.push(s.to_owned());
        self.str_ids.insert(s.to_owned(), i);
        i
    }
}

fn vote_tag(v: Vote) -> u8 {
    match v {
        Vote::Yay => 0,
        Vote::Nay => 1,
        Vote::Pass => 2,
    }
}

fn encode_op(w: &mut ColWriter, t: &mut Tables, op: &Operation) {
    w.u32(t.addr(op.source));
    match &op.payload {
        OpPayload::Endorsement { level, slots } => {
            w.byte(OP_ENDORSEMENT);
            w.u64(*level);
            w.byte(*slots);
        }
        OpPayload::Transaction {
            destination,
            amount_mutez,
        } => {
            w.byte(OP_TRANSACTION);
            w.u32(t.addr(*destination));
            w.u64(*amount_mutez);
        }
        OpPayload::Origination {
            contract,
            balance_mutez,
        } => {
            w.byte(OP_ORIGINATION);
            w.u32(t.addr(*contract));
            w.u64(*balance_mutez);
        }
        OpPayload::Delegation { delegate } => {
            w.byte(OP_DELEGATION);
            match delegate {
                Some(d) => {
                    w.byte(1);
                    w.u32(t.addr(*d));
                }
                None => w.byte(0),
            }
        }
        OpPayload::Reveal => w.byte(OP_REVEAL),
        OpPayload::Activation { secret_hash } => {
            w.byte(OP_ACTIVATION);
            w.u64(*secret_hash);
        }
        OpPayload::RevealNonce { level } => {
            w.byte(OP_REVEAL_NONCE);
            w.u64(*level);
        }
        OpPayload::Ballot { proposal, vote } => {
            w.byte(OP_BALLOT);
            w.u32(t.string(proposal));
            w.byte(vote_tag(*vote));
        }
        OpPayload::Proposals { proposals } => {
            w.byte(OP_PROPOSALS);
            w.u64(proposals.len() as u64);
            for p in proposals {
                w.u32(t.string(p));
            }
        }
        OpPayload::DoubleBakingEvidence { offender, level } => {
            w.byte(OP_DOUBLE_BAKING);
            w.u32(t.addr(*offender));
            w.u64(*level);
        }
    }
}

/// Encode a contiguous run of blocks into one column blob. Operations are
/// written in validation-pass order (stable within a pass), exactly the
/// order a wire-JSON round trip yields them in.
pub fn encode_blocks(blocks: &[TezosBlock]) -> Vec<u8> {
    let mut t = Tables::default();
    let mut body = ColWriter::with_capacity(blocks.len() * 64);
    body.u64(blocks.len() as u64);
    for b in blocks {
        body.u64(b.level);
        body.i64(b.time.0);
        body.u32(t.addr(b.baker));
        body.u64(b.operations.len() as u64);
        for pass in 0..4 {
            for op in &b.operations {
                if op.kind().validation_pass() == pass {
                    encode_op(&mut body, &mut t, op);
                }
            }
        }
    }
    let body = body.into_bytes();
    let mut w = ColWriter::with_capacity(16 + t.addrs.len() * 4 + body.len());
    w.byte(SCHEMA_TAG);
    w.u64(t.addrs.len() as u64);
    for a in &t.addrs {
        a.encode_key(&mut w);
    }
    w.u64(t.strs.len() as u64);
    for s in &t.strs {
        w.str(s);
    }
    let mut out = w.into_bytes();
    out.extend_from_slice(&body);
    out
}

fn read_addr(r: &mut ColReader<'_>, addrs: &[Address]) -> Result<Address, ColError> {
    let i = r.u32()? as usize;
    addrs.get(i).copied().ok_or_else(|| {
        r.invalid(format!(
            "address ref {i} out of table (len {})",
            addrs.len()
        ))
    })
}

fn read_str(r: &mut ColReader<'_>, strs: &[String]) -> Result<String, ColError> {
    let i = r.u32()? as usize;
    strs.get(i)
        .cloned()
        .ok_or_else(|| r.invalid(format!("string ref {i} out of table (len {})", strs.len())))
}

fn decode_op(
    r: &mut ColReader<'_>,
    addrs: &[Address],
    strs: &[String],
) -> Result<Operation, ColError> {
    let source = read_addr(r, addrs)?;
    let tag = r.byte()?;
    let payload = match tag {
        OP_ENDORSEMENT => OpPayload::Endorsement {
            level: r.u64()?,
            slots: r.byte()?,
        },
        OP_TRANSACTION => OpPayload::Transaction {
            destination: read_addr(r, addrs)?,
            amount_mutez: r.u64()?,
        },
        OP_ORIGINATION => OpPayload::Origination {
            contract: read_addr(r, addrs)?,
            balance_mutez: r.u64()?,
        },
        OP_DELEGATION => OpPayload::Delegation {
            delegate: match r.byte()? {
                0 => None,
                1 => Some(read_addr(r, addrs)?),
                other => return Err(r.invalid(format!("bad delegate presence byte {other}"))),
            },
        },
        OP_REVEAL => OpPayload::Reveal,
        OP_ACTIVATION => OpPayload::Activation {
            secret_hash: r.u64()?,
        },
        OP_REVEAL_NONCE => OpPayload::RevealNonce { level: r.u64()? },
        OP_BALLOT => OpPayload::Ballot {
            proposal: read_str(r, strs)?,
            vote: match r.byte()? {
                0 => Vote::Yay,
                1 => Vote::Nay,
                2 => Vote::Pass,
                other => return Err(r.invalid(format!("bad vote tag {other}"))),
            },
        },
        OP_PROPOSALS => {
            let mut proposals = Vec::new();
            for _ in 0..r.len(1)? {
                proposals.push(read_str(r, strs)?);
            }
            OpPayload::Proposals { proposals }
        }
        OP_DOUBLE_BAKING => OpPayload::DoubleBakingEvidence {
            offender: read_addr(r, addrs)?,
            level: r.u64()?,
        },
        other => return Err(r.invalid(format!("bad operation tag {other}"))),
    };
    Ok(Operation { source, payload })
}

/// Decode a column blob back into blocks (operations in validation-pass
/// order, matching the wire-JSON replay). Strict and typed throughout.
pub fn decode_blocks(bytes: &[u8]) -> Result<Vec<TezosBlock>, ColError> {
    let mut r = ColReader::new(bytes);
    let tag = r.byte()?;
    if tag != SCHEMA_TAG {
        return Err(r.invalid(format!(
            "bad tezos column schema tag {tag} (want {SCHEMA_TAG})"
        )));
    }
    let mut addrs = Vec::new();
    for _ in 0..r.len(2)? {
        addrs.push(Address::decode_key(&mut r)?);
    }
    let mut strs = Vec::new();
    for _ in 0..r.len(1)? {
        strs.push(r.str()?.to_owned());
    }
    let mut blocks = Vec::new();
    for _ in 0..r.len(4)? {
        let level = r.u64()?;
        let time = ChainTime(r.i64()?);
        let baker = read_addr(&mut r, &addrs)?;
        let mut operations = Vec::new();
        // Minimum operation: source ref (1 byte) + payload tag (1 byte).
        for _ in 0..r.len(2)? {
            operations.push(decode_op(&mut r, &addrs, &strs)?);
        }
        blocks.push(TezosBlock {
            level,
            time,
            baker,
            operations,
        });
    }
    r.finish()?;
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc_model::{block_bytes, block_parse};

    fn sample() -> Vec<TezosBlock> {
        vec![TezosBlock {
            level: 700_000,
            time: ChainTime::from_ymd_hms(2019, 11, 5, 12, 0, 0),
            baker: Address::implicit(3),
            operations: vec![
                // Deliberately out of pass order: managers first.
                Operation::new(
                    Address::implicit(2),
                    OpPayload::Transaction {
                        destination: Address::originated(9),
                        amount_mutez: 1_500_000,
                    },
                ),
                Operation::new(
                    Address::implicit(1),
                    OpPayload::Endorsement {
                        level: 699_999,
                        slots: 5,
                    },
                ),
                Operation::new(
                    Address::implicit(4),
                    OpPayload::Ballot {
                        proposal: "Babylon2".into(),
                        vote: Vote::Yay,
                    },
                ),
                Operation::new(Address::implicit(5), OpPayload::Reveal),
                Operation::new(
                    Address::implicit(6),
                    OpPayload::Activation { secret_hash: 0xabc },
                ),
                Operation::new(
                    Address::implicit(7),
                    OpPayload::Delegation {
                        delegate: Some(Address::implicit(1)),
                    },
                ),
                Operation::new(
                    Address::implicit(7),
                    OpPayload::Delegation { delegate: None },
                ),
                Operation::new(
                    Address::implicit(8),
                    OpPayload::RevealNonce { level: 699_000 },
                ),
                Operation::new(
                    Address::implicit(9),
                    OpPayload::Proposals {
                        proposals: vec!["A".into(), "B".into()],
                    },
                ),
                Operation::new(
                    Address::implicit(10),
                    OpPayload::DoubleBakingEvidence {
                        offender: Address::implicit(11),
                        level: 699_500,
                    },
                ),
            ],
        }]
    }

    #[test]
    fn roundtrip_matches_wire_json_oracle() {
        let blocks = sample();
        let bytes = encode_blocks(&blocks);
        let decoded = decode_blocks(&bytes).unwrap();
        let oracle: Vec<TezosBlock> = blocks
            .iter()
            .map(|b| block_parse(&block_bytes(b)).unwrap())
            .collect();
        assert_eq!(decoded, oracle);
        // Pass-order normalization is idempotent: re-encoding the decoded
        // blocks is byte-identical.
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
}
