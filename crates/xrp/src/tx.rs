//! XRP ledger transaction types and result codes.
//!
//! The type list is exactly Figure 1's XRP column; the result codes include
//! the two failure codes the paper calls out (§3.2): `tecPATH_DRY` for
//! payments with no funded path and `tecUNFUNDED_OFFER` for offers promising
//! unheld funds. Crucially, *failed transactions are recorded on-ledger*
//! with their fee burned — which is why ~10% of observed throughput is
//! failures.

use crate::address::AccountId;
use crate::amount::{Amount, IssuedCurrency};
use crate::dex::OfferId;
use txstat_types::time::ChainTime;

/// Transaction types (Figure 1, XRP column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TxType {
    Payment,
    EscrowFinish,
    TrustSet,
    AccountSet,
    SignerListSet,
    SetRegularKey,
    OfferCreate,
    OfferCancel,
    EscrowCreate,
    EscrowCancel,
    PaymentChannelClaim,
    PaymentChannelCreate,
    EnableAmendment,
}

impl TxType {
    pub const ALL: [TxType; 13] = [
        TxType::Payment,
        TxType::EscrowFinish,
        TxType::TrustSet,
        TxType::AccountSet,
        TxType::SignerListSet,
        TxType::SetRegularKey,
        TxType::OfferCreate,
        TxType::OfferCancel,
        TxType::EscrowCreate,
        TxType::EscrowCancel,
        TxType::PaymentChannelClaim,
        TxType::PaymentChannelCreate,
        TxType::EnableAmendment,
    ];

    /// Wire name, as in the ledger JSON (`TransactionType`).
    pub const fn wire(self) -> &'static str {
        match self {
            TxType::Payment => "Payment",
            TxType::EscrowFinish => "EscrowFinish",
            TxType::TrustSet => "TrustSet",
            TxType::AccountSet => "AccountSet",
            TxType::SignerListSet => "SignerListSet",
            TxType::SetRegularKey => "SetRegularKey",
            TxType::OfferCreate => "OfferCreate",
            TxType::OfferCancel => "OfferCancel",
            TxType::EscrowCreate => "EscrowCreate",
            TxType::EscrowCancel => "EscrowCancel",
            TxType::PaymentChannelClaim => "PaymentChannelClaim",
            TxType::PaymentChannelCreate => "PaymentChannelCreate",
            TxType::EnableAmendment => "EnableAmendment",
        }
    }

    pub fn from_wire(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|t| t.wire() == s)
    }
}

impl std::fmt::Display for TxType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire())
    }
}

/// Engine result codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxResult {
    Success,
    /// No funded path could deliver the payment.
    PathDry,
    /// Offer creator holds none of the promised currency.
    UnfundedOffer,
    /// XRP payment exceeds spendable balance.
    UnfundedPayment,
    /// Destination account does not exist (and payment can't create it).
    NoDestination,
    /// Receiver has no trust line.
    NoLine,
    /// Condition not met (escrow time locks, ownership).
    NoPermission,
    /// Referenced ledger object missing.
    NoEntry,
    /// Malformed transaction (negative amounts, same-asset offer…).
    Malformed,
}

impl TxResult {
    /// Wire code string, as in transaction metadata.
    pub const fn wire(self) -> &'static str {
        match self {
            TxResult::Success => "tesSUCCESS",
            TxResult::PathDry => "tecPATH_DRY",
            TxResult::UnfundedOffer => "tecUNFUNDED_OFFER",
            TxResult::UnfundedPayment => "tecUNFUNDED_PAYMENT",
            TxResult::NoDestination => "tecNO_DST",
            TxResult::NoLine => "tecNO_LINE",
            TxResult::NoPermission => "tecNO_PERMISSION",
            TxResult::NoEntry => "tecNO_ENTRY",
            TxResult::Malformed => "temMALFORMED",
        }
    }

    pub fn from_wire(s: &str) -> Option<Self> {
        [
            TxResult::Success,
            TxResult::PathDry,
            TxResult::UnfundedOffer,
            TxResult::UnfundedPayment,
            TxResult::NoDestination,
            TxResult::NoLine,
            TxResult::NoPermission,
            TxResult::NoEntry,
            TxResult::Malformed,
        ]
        .into_iter()
        .find(|r| r.wire() == s)
    }

    pub fn is_success(self) -> bool {
        matches!(self, TxResult::Success)
    }
}

/// Transaction payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxPayload {
    Payment {
        destination: AccountId,
        amount: Amount,
        /// Maximum the sender spends for cross-currency delivery.
        send_max: Option<Amount>,
    },
    OfferCreate {
        /// TakerGets: what the offer owner gives.
        gets: Amount,
        /// TakerPays: what the offer owner wants.
        pays: Amount,
    },
    OfferCancel {
        offer: OfferId,
    },
    TrustSet {
        currency: IssuedCurrency,
        limit: i128,
    },
    AccountSet {
        flags: u32,
    },
    SignerListSet {
        quorum: u8,
        signer_count: u8,
    },
    SetRegularKey,
    EscrowCreate {
        destination: AccountId,
        drops: i64,
        finish_after: ChainTime,
        cancel_after: Option<ChainTime>,
    },
    EscrowFinish {
        escrow_id: u64,
    },
    EscrowCancel {
        escrow_id: u64,
    },
    PaymentChannelCreate {
        destination: AccountId,
        drops: i64,
    },
    PaymentChannelClaim {
        channel_id: u64,
        drops: i64,
    },
    EnableAmendment {
        amendment: String,
    },
}

impl TxPayload {
    pub fn tx_type(&self) -> TxType {
        match self {
            TxPayload::Payment { .. } => TxType::Payment,
            TxPayload::OfferCreate { .. } => TxType::OfferCreate,
            TxPayload::OfferCancel { .. } => TxType::OfferCancel,
            TxPayload::TrustSet { .. } => TxType::TrustSet,
            TxPayload::AccountSet { .. } => TxType::AccountSet,
            TxPayload::SignerListSet { .. } => TxType::SignerListSet,
            TxPayload::SetRegularKey => TxType::SetRegularKey,
            TxPayload::EscrowCreate { .. } => TxType::EscrowCreate,
            TxPayload::EscrowFinish { .. } => TxType::EscrowFinish,
            TxPayload::EscrowCancel { .. } => TxType::EscrowCancel,
            TxPayload::PaymentChannelCreate { .. } => TxType::PaymentChannelCreate,
            TxPayload::PaymentChannelClaim { .. } => TxType::PaymentChannelClaim,
            TxPayload::EnableAmendment { .. } => TxType::EnableAmendment,
        }
    }
}

/// A submitted transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    pub account: AccountId,
    pub payload: TxPayload,
    pub fee_drops: i64,
    /// The beneficiary reference exchanges attach (§3.3: tag 104398).
    pub destination_tag: Option<u32>,
}

impl Transaction {
    pub fn new(account: AccountId, payload: TxPayload, fee_drops: i64) -> Self {
        Transaction { account, payload, fee_drops, destination_tag: None }
    }

    pub fn with_tag(mut self, tag: u32) -> Self {
        self.destination_tag = Some(tag);
        self
    }

    pub fn tx_type(&self) -> TxType {
        self.payload.tx_type()
    }
}

/// A transaction as recorded in a closed ledger: payload + engine result +
/// delivery metadata (what actually moved, for the Figure 12 value flows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedTx {
    pub tx: Transaction,
    pub result: TxResult,
    /// For successful payments: the amount actually delivered.
    pub delivered: Option<Amount>,
    /// For OfferCreate: whether the offer crossed at all at apply time.
    pub crossed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        for t in TxType::ALL {
            assert_eq!(TxType::from_wire(t.wire()), Some(t));
        }
        assert_eq!(TxType::from_wire("Bogus"), None);
        for r in [
            TxResult::Success,
            TxResult::PathDry,
            TxResult::UnfundedOffer,
            TxResult::Malformed,
        ] {
            assert_eq!(TxResult::from_wire(r.wire()), Some(r));
        }
    }

    #[test]
    fn paper_result_codes() {
        assert_eq!(TxResult::PathDry.wire(), "tecPATH_DRY");
        assert_eq!(TxResult::UnfundedOffer.wire(), "tecUNFUNDED_OFFER");
        assert!(TxResult::Success.is_success());
        assert!(!TxResult::PathDry.is_success());
    }

    #[test]
    fn payload_type_mapping() {
        let p = TxPayload::Payment {
            destination: AccountId(2),
            amount: Amount::xrp(1),
            send_max: None,
        };
        assert_eq!(p.tx_type(), TxType::Payment);
        let t = Transaction::new(AccountId(1), p, 10).with_tag(104_398);
        assert_eq!(t.destination_tag, Some(104_398));
        assert_eq!(t.tx_type().wire(), "Payment");
    }
}
