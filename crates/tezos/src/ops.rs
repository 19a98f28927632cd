//! Tezos operations — the paper's Figure 1 taxonomy for Tezos.
//!
//! §2.3.2 classifies operations as consensus-related (endorsements, nonce
//! reveals), governance-related (proposals, ballots) and manager operations
//! (transactions, originations, delegations, reveals, activations).

use crate::address::Address;

/// Operation kinds, exactly the rows of Figure 1's Tezos column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OperationKind {
    Transaction,
    Origination,
    Reveal,
    Activation,
    Endorsement,
    Delegation,
    RevealNonce,
    Ballot,
    Proposals,
    DoubleBakingEvidence,
}

impl OperationKind {
    pub const ALL: [OperationKind; 10] = [
        OperationKind::Transaction,
        OperationKind::Origination,
        OperationKind::Reveal,
        OperationKind::Activation,
        OperationKind::Endorsement,
        OperationKind::Delegation,
        OperationKind::RevealNonce,
        OperationKind::Ballot,
        OperationKind::Proposals,
        OperationKind::DoubleBakingEvidence,
    ];

    /// Label as printed in the paper's Figure 1.
    pub const fn label(self) -> &'static str {
        match self {
            OperationKind::Transaction => "Transaction",
            OperationKind::Origination => "Origination",
            OperationKind::Reveal => "Reveal",
            OperationKind::Activation => "Activate",
            OperationKind::Endorsement => "Endorsement",
            OperationKind::Delegation => "Delegation",
            OperationKind::RevealNonce => "Reveal nonce",
            OperationKind::Ballot => "Ballot",
            OperationKind::Proposals => "Proposals",
            OperationKind::DoubleBakingEvidence => "Double baking evidence",
        }
    }

    /// Wire `kind` string, as the node RPC emits.
    pub(crate) const fn wire_kind(self) -> &'static str {
        match self {
            OperationKind::Transaction => "transaction",
            OperationKind::Origination => "origination",
            OperationKind::Reveal => "reveal",
            OperationKind::Activation => "activate_account",
            OperationKind::Endorsement => "endorsement",
            OperationKind::Delegation => "delegation",
            OperationKind::RevealNonce => "seed_nonce_revelation",
            OperationKind::Ballot => "ballot",
            OperationKind::Proposals => "proposals",
            OperationKind::DoubleBakingEvidence => "double_baking_evidence",
        }
    }

    pub fn from_wire(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|k| k.wire_kind() == s)
    }

    /// Tezos validation pass: 0 endorsements, 1 votes, 2 anonymous,
    /// 3 manager operations. Determines which of the four operation lists of
    /// a block the operation appears in.
    pub(crate) const fn validation_pass(self) -> usize {
        match self {
            OperationKind::Endorsement => 0,
            OperationKind::Ballot | OperationKind::Proposals => 1,
            OperationKind::Activation
            | OperationKind::RevealNonce
            | OperationKind::DoubleBakingEvidence => 2,
            OperationKind::Transaction
            | OperationKind::Origination
            | OperationKind::Reveal
            | OperationKind::Delegation => 3,
        }
    }
}

/// A governance ballot choice (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vote {
    Yay,
    Nay,
    Pass,
}

impl Vote {
    pub const fn wire(self) -> &'static str {
        match self {
            Vote::Yay => "yay",
            Vote::Nay => "nay",
            Vote::Pass => "pass",
        }
    }

    pub fn from_wire(s: &str) -> Option<Self> {
        match s {
            "yay" => Some(Vote::Yay),
            "nay" => Some(Vote::Nay),
            "pass" => Some(Vote::Pass),
            _ => None,
        }
    }
}

/// Payload per operation kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpPayload {
    Endorsement {
        /// Level being endorsed (the previous block).
        level: u64,
        /// Endorsement slots covered by this operation (1–32).
        slots: u8,
    },
    Transaction {
        destination: Address,
        amount_mutez: u64,
    },
    Origination {
        /// The newly created KT1 account.
        contract: Address,
        balance_mutez: u64,
    },
    Delegation {
        delegate: Option<Address>,
    },
    Reveal,
    Activation {
        /// Commitment identifier from the fundraiser.
        secret_hash: u64,
    },
    RevealNonce {
        level: u64,
    },
    Ballot {
        proposal: String,
        vote: Vote,
    },
    Proposals {
        proposals: Vec<String>,
    },
    DoubleBakingEvidence {
        offender: Address,
        level: u64,
    },
}

impl OpPayload {
    pub fn kind(&self) -> OperationKind {
        match self {
            OpPayload::Endorsement { .. } => OperationKind::Endorsement,
            OpPayload::Transaction { .. } => OperationKind::Transaction,
            OpPayload::Origination { .. } => OperationKind::Origination,
            OpPayload::Delegation { .. } => OperationKind::Delegation,
            OpPayload::Reveal => OperationKind::Reveal,
            OpPayload::Activation { .. } => OperationKind::Activation,
            OpPayload::RevealNonce { .. } => OperationKind::RevealNonce,
            OpPayload::Ballot { .. } => OperationKind::Ballot,
            OpPayload::Proposals { .. } => OperationKind::Proposals,
            OpPayload::DoubleBakingEvidence { .. } => OperationKind::DoubleBakingEvidence,
        }
    }
}

/// One operation, as included in a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    pub source: Address,
    pub payload: OpPayload,
}

impl Operation {
    pub fn new(source: Address, payload: OpPayload) -> Self {
        Operation { source, payload }
    }

    pub fn kind(&self) -> OperationKind {
        self.payload.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure_1() {
        assert_eq!(OperationKind::Activation.label(), "Activate");
        assert_eq!(OperationKind::RevealNonce.label(), "Reveal nonce");
        assert_eq!(
            OperationKind::DoubleBakingEvidence.label(),
            "Double baking evidence"
        );
    }

    #[test]
    fn wire_roundtrip() {
        for k in OperationKind::ALL {
            assert_eq!(OperationKind::from_wire(k.wire_kind()), Some(k));
        }
        assert_eq!(OperationKind::from_wire("unknown"), None);
        for v in [Vote::Yay, Vote::Nay, Vote::Pass] {
            assert_eq!(Vote::from_wire(v.wire()), Some(v));
        }
    }

    #[test]
    fn validation_passes() {
        assert_eq!(OperationKind::Endorsement.validation_pass(), 0);
        assert_eq!(OperationKind::Ballot.validation_pass(), 1);
        assert_eq!(OperationKind::Activation.validation_pass(), 2);
        assert_eq!(OperationKind::Transaction.validation_pass(), 3);
    }

    #[test]
    fn payload_kind_mapping() {
        let op = Operation::new(
            Address::implicit(1),
            OpPayload::Transaction {
                destination: Address::implicit(2),
                amount_mutez: 100,
            },
        );
        assert_eq!(op.kind(), OperationKind::Transaction);
        let e = Operation::new(
            Address::implicit(1),
            OpPayload::Endorsement { level: 5, slots: 2 },
        );
        assert_eq!(e.kind(), OperationKind::Endorsement);
    }
}
