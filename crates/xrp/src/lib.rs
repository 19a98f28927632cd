//! # txstat-xrp — XRP ledger simulator
//!
//! A from-scratch model of the XRP ledger as the paper describes it
//! (§2.3.3–2.4, §4.3): accounts activated by funding payments (recording
//! the parent relation used for entity clustering), trust lines and IOU
//! issuance with per-issuer asset identity, the on-ledger DEX with
//! price-time priority and unfunded-offer cleanup, payments with
//! cross-currency paths through the books, escrows and payment channels,
//! fee burning, and on-ledger recording of failed transactions
//! (`tecPATH_DRY`, `tecUNFUNDED_OFFER`).
//!
//! [`rates::RateOracle`] replaces the Ripple Data API's `exchange_rates`
//! endpoint: rates derive from actual on-ledger trades, which is exactly
//! what Figures 7, 11 and 12 require.

pub mod address;
pub mod amount;
pub mod block_cols;
pub mod dex;
pub mod escrow;
pub mod ledger;
pub mod rates;
pub mod rpc_model;
pub mod trustline;
pub mod tx;

pub use address::AccountId;
pub use amount::{Amount, Asset, IssuedCurrency, DROPS_PER_XRP, IOU_UNIT};
pub use dex::{Dex, OfferId};
pub use ledger::{LedgerBlock, LedgerConfig, XrpLedger};
pub use rates::{RateOracle, TradeRecord};
pub use tx::{AppliedTx, Transaction, TxPayload, TxResult, TxType};
