//! JSON wire model of the Tezos node RPC block endpoint
//! (`/chains/main/blocks/<level>`), the surface the paper's self-hosted
//! full node exposed (§3.1).
//!
//! Operations are grouped into the four validation passes exactly as the
//! node RPC returns them: endorsements, votes, anonymous, managers.

use crate::address::Address;
use crate::chain::TezosBlock;
use crate::ops::{OpPayload, Operation, OperationKind, Vote};
use serde::{Deserialize, Serialize};
use txstat_types::time::ChainTime;
use txstat_types::JsonWriter;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpJson {
    pub kind: String,
    pub source: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub destination: Option<String>,
    /// Mutez amount as a string, as the node RPC encodes it.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub amount: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub level: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub slots: Option<u8>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub delegate: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub proposal: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ballot: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub proposals: Option<Vec<String>>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub secret: Option<String>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockHeaderJson {
    pub level: u64,
    pub timestamp: String,
    pub baker: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockJson {
    pub protocol: String,
    pub chain_id: String,
    pub header: BlockHeaderJson,
    /// Four validation passes.
    pub operations: Vec<Vec<OpJson>>,
}

/// The Babylon protocol hash, active during the paper's window.
pub const PROTOCOL: &str = "PsBabyM1eUXZseaJdmXFApDSBqj8YBfwELoxZHHW77EMcAbbwAS";
pub const CHAIN_ID: &str = "NetXdQprcVkpaWU";

fn op_to_json(op: &Operation) -> OpJson {
    let mut j = OpJson {
        kind: op.kind().wire_kind().to_owned(),
        source: op.source.to_string(),
        destination: None,
        amount: None,
        level: None,
        slots: None,
        delegate: None,
        proposal: None,
        ballot: None,
        proposals: None,
        secret: None,
    };
    match &op.payload {
        OpPayload::Endorsement { level, slots } => {
            j.level = Some(*level);
            j.slots = Some(*slots);
        }
        OpPayload::Transaction { destination, amount_mutez } => {
            j.destination = Some(destination.to_string());
            j.amount = Some(amount_mutez.to_string());
        }
        OpPayload::Origination { contract, balance_mutez } => {
            j.destination = Some(contract.to_string());
            j.amount = Some(balance_mutez.to_string());
        }
        OpPayload::Delegation { delegate } => {
            j.delegate = delegate.map(|d| d.to_string());
        }
        OpPayload::Reveal => {}
        OpPayload::Activation { secret_hash } => {
            j.secret = Some(format!("{secret_hash:016x}"));
        }
        OpPayload::RevealNonce { level } => {
            j.level = Some(*level);
        }
        OpPayload::Ballot { proposal, vote } => {
            j.proposal = Some(proposal.clone());
            j.ballot = Some(vote.wire().to_owned());
        }
        OpPayload::Proposals { proposals } => {
            j.proposals = Some(proposals.clone());
        }
        OpPayload::DoubleBakingEvidence { offender, level } => {
            j.destination = Some(offender.to_string());
            j.level = Some(*level);
        }
    }
    j
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
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

/// Serialize a block for the RPC endpoint, grouping by validation pass.
pub fn block_to_json(block: &TezosBlock) -> BlockJson {
    let mut passes: Vec<Vec<OpJson>> = vec![vec![], vec![], vec![], vec![]];
    for op in &block.operations {
        passes[op.kind().validation_pass()].push(op_to_json(op));
    }
    BlockJson {
        protocol: PROTOCOL.to_owned(),
        chain_id: CHAIN_ID.to_owned(),
        header: BlockHeaderJson {
            level: block.level,
            timestamp: block.time.iso_string(),
            baker: block.baker.to_string(),
        },
        operations: passes,
    }
}

/// Parse a wire block back into the chain model (crawler side).
pub fn block_from_json(json: &BlockJson) -> Result<TezosBlock, DecodeError> {
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

/// Append an address as a string literal. Base58 text cannot need
/// escaping, so it goes from [`Address::encode`]'s stack buffer straight
/// into the output.
fn addr<'w, 'o>(w: &'w mut JsonWriter<'o>, a: &Address) -> &'w mut JsonWriter<'o> {
    w.quoted(a.encode(&mut [0; Address::MAX_LEN]))
}

/// Append one operation in [`OpJson`]'s field order, absent fields skipped.
fn write_op(w: &mut JsonWriter<'_>, op: &Operation) {
    w.raw("{\"kind\":").quoted(op.kind().wire_kind());
    addr(w.raw(",\"source\":"), &op.source);
    match &op.payload {
        OpPayload::Endorsement { level, slots } => {
            w.raw(",\"level\":").uint(*level).raw(",\"slots\":").uint(*slots);
        }
        OpPayload::Transaction { destination: to, amount_mutez: amount }
        | OpPayload::Origination { contract: to, balance_mutez: amount } => {
            addr(w.raw(",\"destination\":"), to).raw(",\"amount\":\"").uint(*amount).raw("\"");
        }
        OpPayload::Delegation { delegate } => {
            if let Some(d) = delegate {
                addr(w.raw(",\"delegate\":"), d);
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
            addr(w.raw(",\"destination\":"), offender).raw(",\"level\":").uint(*level);
        }
    }
    w.raw("}");
}

/// Append the canonical wire bytes of one block to `out`: the compact JSON
/// of [`block_to_json`], written straight from the chain model. Crawl
/// replay, wire-JSON archive segments, reorg content hashes and the
/// Figure 2 storage sweep all share this definition.
pub fn block_bytes_into(b: &TezosBlock, out: &mut Vec<u8>) {
    let w = &mut JsonWriter::new(out);
    w.raw("{\"protocol\":").quoted(PROTOCOL).raw(",\"chain_id\":").quoted(CHAIN_ID);
    w.raw(",\"header\":{\"level\":").uint(b.level);
    addr(w.raw(",\"timestamp\":").iso(b.time).raw(",\"baker\":"), &b.baker);
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
        let wire = block_to_json(&block);
        let text = serde_json::to_string(&wire).unwrap();
        let parsed: BlockJson = serde_json::from_str(&text).unwrap();
        let back = block_from_json(&parsed).unwrap();
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
        let wire = block_to_json(&sample_block());
        assert_eq!(wire.operations.len(), 4);
        assert!(wire.operations[0].iter().all(|o| o.kind == "endorsement"));
        assert!(wire.operations[1]
            .iter()
            .all(|o| o.kind == "ballot" || o.kind == "proposals"));
        assert_eq!(wire.operations[3].len(), 4, "managers: tx, reveal, delegation, origination");
    }

    #[test]
    fn amounts_are_strings_on_the_wire() {
        let wire = block_to_json(&sample_block());
        let text = serde_json::to_string(&wire).unwrap();
        assert!(text.contains("\"amount\":\"1500000\""));
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        let mut wire = block_to_json(&sample_block());
        wire.operations[0][0].kind = "mystery".to_owned();
        assert!(matches!(block_from_json(&wire), Err(DecodeError::BadKind(_))));
    }
}
