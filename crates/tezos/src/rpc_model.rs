//! JSON wire model of the Tezos node RPC block endpoint
//! (`/chains/main/blocks/<level>`), the surface the paper's self-hosted
//! full node exposed (§3.1).
//!
//! Operations are grouped into the four validation passes exactly as the
//! node RPC returns them: endorsements, votes, anonymous, managers. A block
//! has one encoder, [`block_bytes_into`], and one decoder, [`block_parse`],
//! which reads the `Deserialize`-only models below.

use crate::address::Address;
use crate::chain::TezosBlock;
use crate::ops::{OpPayload, Operation, OperationKind, Vote};
use serde::Deserialize;
use txstat_types::time::ChainTime;
use txstat_types::{JsonOut, JsonWriter};

#[derive(Debug, Deserialize)]
pub(crate) struct OpJson {
    pub kind: String,
    pub source: String,
    pub destination: Option<String>,
    /// Mutez amount as a string, as the node RPC encodes it.
    pub amount: Option<String>,
    pub level: Option<u64>,
    pub slots: Option<u8>,
    pub delegate: Option<String>,
    pub proposal: Option<String>,
    pub ballot: Option<String>,
    pub proposals: Option<Vec<String>>,
    pub secret: Option<String>,
}

#[derive(Debug, Deserialize)]
pub(crate) struct BlockHeaderJson {
    pub level: u64,
    pub timestamp: String,
    pub baker: String,
}

#[derive(Debug, Deserialize)]
pub(crate) struct BlockJson {
    pub(crate) header: BlockHeaderJson,
    /// Four validation passes.
    pub(crate) operations: Vec<Vec<OpJson>>,
}

/// The Babylon protocol hash, active during the paper's window.
pub(crate) const PROTOCOL: &str = "PsBabyM1eUXZseaJdmXFApDSBqj8YBfwELoxZHHW77EMcAbbwAS";
pub(crate) const CHAIN_ID: &str = "NetXdQprcVkpaWU";

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DecodeError {
    BadKind(String),
    BadAddress(String),
    BadTimestamp(String),
    MissingField(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadKind(k) => write!(f, "unknown operation kind {k:?}"),
            DecodeError::BadAddress(a) => write!(f, "bad address {a:?}"),
            DecodeError::BadTimestamp(t) => write!(f, "bad timestamp {t:?}"),
            DecodeError::MissingField(m) => write!(f, "missing field {m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn parse_addr(s: &str) -> Result<Address, DecodeError> {
    s.parse().map_err(|_| DecodeError::BadAddress(s.to_owned()))
}

fn op_from_json(j: &OpJson) -> Result<Operation, DecodeError> {
    let kind = OperationKind::from_wire(&j.kind).ok_or_else(|| DecodeError::BadKind(j.kind.clone()))?;
    let source = parse_addr(&j.source)?;
    let payload = match kind {
        OperationKind::Endorsement => OpPayload::Endorsement {
            level: j.level.ok_or(DecodeError::MissingField("level"))?,
            slots: j.slots.ok_or(DecodeError::MissingField("slots"))?,
        },
        OperationKind::Transaction => OpPayload::Transaction {
            destination: parse_addr(
                j.destination.as_deref().ok_or(DecodeError::MissingField("destination"))?,
            )?,
            amount_mutez: j
                .amount
                .as_deref()
                .ok_or(DecodeError::MissingField("amount"))?
                .parse()
                .map_err(|_| DecodeError::MissingField("amount"))?,
        },
        OperationKind::Origination => OpPayload::Origination {
            contract: parse_addr(
                j.destination.as_deref().ok_or(DecodeError::MissingField("destination"))?,
            )?,
            balance_mutez: j
                .amount
                .as_deref()
                .ok_or(DecodeError::MissingField("amount"))?
                .parse()
                .map_err(|_| DecodeError::MissingField("amount"))?,
        },
        OperationKind::Delegation => OpPayload::Delegation {
            delegate: j.delegate.as_deref().map(parse_addr).transpose()?,
        },
        OperationKind::Reveal => OpPayload::Reveal,
        OperationKind::Activation => OpPayload::Activation {
            secret_hash: u64::from_str_radix(
                j.secret.as_deref().ok_or(DecodeError::MissingField("secret"))?,
                16,
            )
            .map_err(|_| DecodeError::MissingField("secret"))?,
        },
        OperationKind::RevealNonce => OpPayload::RevealNonce {
            level: j.level.ok_or(DecodeError::MissingField("level"))?,
        },
        OperationKind::Ballot => OpPayload::Ballot {
            proposal: j.proposal.clone().ok_or(DecodeError::MissingField("proposal"))?,
            vote: Vote::from_wire(j.ballot.as_deref().ok_or(DecodeError::MissingField("ballot"))?)
                .ok_or(DecodeError::MissingField("ballot"))?,
        },
        OperationKind::Proposals => OpPayload::Proposals {
            proposals: j.proposals.clone().ok_or(DecodeError::MissingField("proposals"))?,
        },
        OperationKind::DoubleBakingEvidence => OpPayload::DoubleBakingEvidence {
            offender: parse_addr(
                j.destination.as_deref().ok_or(DecodeError::MissingField("destination"))?,
            )?,
            level: j.level.ok_or(DecodeError::MissingField("level"))?,
        },
    };
    Ok(Operation { source, payload })
}

/// Parse a wire block back into the chain model (crawler side).
pub(crate) fn block_from_json(json: &BlockJson) -> Result<TezosBlock, DecodeError> {
    let time = ChainTime::parse_iso(&json.header.timestamp)
        .ok_or_else(|| DecodeError::BadTimestamp(json.header.timestamp.clone()))?;
    let baker = parse_addr(&json.header.baker)?;
    let mut operations = Vec::new();
    for pass in &json.operations {
        for oj in pass {
            operations.push(op_from_json(oj)?);
        }
    }
    Ok(TezosBlock { level: json.header.level, time, baker, operations })
}

/// Append one operation: `kind` and `source`, then only the fields its
/// kind carries, in [`OpJson`]'s field order.
fn write_op<O: JsonOut>(w: &mut JsonWriter<'_, O>, op: &Operation) {
    w.raw("{\"kind\":").quoted(op.kind().wire_kind());
    w.raw(",\"source\":").ident(op.source);
    match &op.payload {
        OpPayload::Endorsement { level, slots } => {
            w.raw(",\"level\":").uint(*level).raw(",\"slots\":").uint(*slots);
        }
        OpPayload::Transaction { destination: to, amount_mutez: amount }
        | OpPayload::Origination { contract: to, balance_mutez: amount } => {
            w.raw(",\"destination\":").ident(*to).raw(",\"amount\":\"").uint(*amount).raw("\"");
        }
        OpPayload::Delegation { delegate } => {
            if let Some(d) = delegate {
                w.raw(",\"delegate\":").ident(*d);
            }
        }
        OpPayload::Reveal => {}
        OpPayload::Activation { secret_hash } => {
            w.raw(",\"secret\":\"").hex16(*secret_hash).raw("\"");
        }
        OpPayload::RevealNonce { level } => {
            w.raw(",\"level\":").uint(*level);
        }
        OpPayload::Ballot { proposal, vote } => {
            w.raw(",\"proposal\":").str(proposal).raw(",\"ballot\":").quoted(vote.wire());
        }
        OpPayload::Proposals { proposals } => {
            w.raw(",\"proposals\":").array(proposals, |w, p| {
                w.str(p);
            });
        }
        OpPayload::DoubleBakingEvidence { offender, level } => {
            w.raw(",\"destination\":").ident(*offender).raw(",\"level\":").uint(*level);
        }
    }
    w.raw("}");
}

/// Append the canonical wire bytes of one block to `out` (or, into a
/// [`txstat_types::JsonLen`], count them): the compact block JSON with its
/// operations grouped into the four validation passes, written straight
/// from the chain model. The simulated endpoint's replies, crawl replay,
/// wire-JSON archive segments, reorg content hashes and the Figure 2
/// storage sweep all share this one writer.
pub fn block_bytes_into(b: &TezosBlock, out: &mut impl JsonOut) {
    let w = &mut JsonWriter::new(out);
    w.raw("{\"protocol\":").quoted(PROTOCOL).raw(",\"chain_id\":").quoted(CHAIN_ID);
    w.raw(",\"header\":{\"level\":").uint(b.level);
    w.raw(",\"timestamp\":").iso(b.time).raw(",\"baker\":").ident(b.baker);
    w.raw("},\"operations\":").array(0..4, |w, pass| {
        let in_pass = b.operations.iter().filter(|op| op.kind().validation_pass() == pass);
        w.array(in_pass, write_op);
    });
    w.raw("}");
}

/// [`block_bytes_into`] a fresh buffer.
pub fn block_bytes(b: &TezosBlock) -> Vec<u8> {
    let mut out = Vec::new();
    block_bytes_into(b, &mut out);
    out
}

/// Inverse of [`block_bytes`].
pub fn block_parse(bytes: &[u8]) -> Result<TezosBlock, String> {
    let wire: BlockJson =
        serde_json::from_slice(bytes).map_err(|e| format!("tezos wire block: {e}"))?;
    block_from_json(&wire).map_err(|e| format!("tezos wire block: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> TezosBlock {
        TezosBlock {
            level: 700_000,
            time: ChainTime::from_ymd_hms(2019, 11, 5, 12, 0, 0),
            baker: Address::implicit(3),
            operations: vec![
                Operation::new(Address::implicit(1), OpPayload::Endorsement { level: 699_999, slots: 5 }),
                Operation::new(
                    Address::implicit(2),
                    OpPayload::Transaction { destination: Address::originated(9), amount_mutez: 1_500_000 },
                ),
                Operation::new(
                    Address::implicit(4),
                    OpPayload::Ballot { proposal: "Babylon2".into(), vote: Vote::Yay },
                ),
                Operation::new(Address::implicit(5), OpPayload::Reveal),
                Operation::new(Address::implicit(6), OpPayload::Activation { secret_hash: 0xabc }),
                Operation::new(
                    Address::implicit(7),
                    OpPayload::Delegation { delegate: Some(Address::implicit(1)) },
                ),
                Operation::new(Address::implicit(8), OpPayload::RevealNonce { level: 699_000 }),
                Operation::new(
                    Address::implicit(9),
                    OpPayload::Proposals { proposals: vec!["A".into(), "B".into()] },
                ),
                Operation::new(
                    Address::implicit(10),
                    OpPayload::DoubleBakingEvidence { offender: Address::implicit(11), level: 699_500 },
                ),
                Operation::new(
                    Address::implicit(12),
                    OpPayload::Origination { contract: Address::originated(13), balance_mutez: 42 },
                ),
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_operations() {
        let block = sample_block();
        let back = block_parse(&block_bytes(&block)).unwrap();
        assert_eq!(back.level, block.level);
        assert_eq!(back.time, block.time);
        assert_eq!(back.baker, block.baker);
        // Same multiset of operations (pass grouping may reorder).
        assert_eq!(back.operations.len(), block.operations.len());
        for op in &block.operations {
            assert!(back.operations.contains(op), "missing {op:?}");
        }
    }

    #[test]
    fn passes_are_grouped_correctly() {
        let wire: BlockJson = serde_json::from_slice(&block_bytes(&sample_block())).unwrap();
        assert_eq!(wire.operations.len(), 4);
        assert!(wire.operations[0].iter().all(|o| o.kind == "endorsement"));
        assert!(wire.operations[1]
            .iter()
            .all(|o| o.kind == "ballot" || o.kind == "proposals"));
        assert_eq!(wire.operations[3].len(), 4, "managers: tx, reveal, delegation, origination");
    }

    #[test]
    fn amounts_are_strings_on_the_wire() {
        let bytes = block_bytes(&sample_block());
        assert!(String::from_utf8_lossy(&bytes).contains("\"amount\":\"1500000\""));
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        let mut wire: BlockJson = serde_json::from_slice(&block_bytes(&sample_block())).unwrap();
        wire.operations[0][0].kind = "mystery".to_owned();
        assert!(matches!(block_from_json(&wire), Err(DecodeError::BadKind(_))));
    }
}
