//! # txstat-tezos — Tezos ledger simulator
//!
//! A from-scratch model of Tezos as the paper describes it (§2.2–2.4, §4.2):
//! Liquid Proof-of-Stake with a dynamic baker set (≥10,000 ꜩ threshold),
//! blocks requiring 32 endorsement slots of their predecessor — the
//! structural cause of endorsements being 82% of all operations — implicit
//! (tz1) and originated (KT1) accounts, the full Figure 1 operation
//! taxonomy, and the four-period on-chain amendment governance that carried
//! Babylon 2.0.

pub mod address;
pub mod block_cols;
pub mod chain;
pub mod governance;
pub mod ops;
pub mod rpc_model;

pub use address::{AddrKind, Address};
pub use chain::{TezosBlock, TezosChain, TezosConfig, MUTEZ_PER_TEZ};
pub use governance::{GovernanceConfig, PeriodKind};
pub use ops::{OpPayload, Operation, OperationKind, Vote};
