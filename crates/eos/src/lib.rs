//! # txstat-eos — EOS ledger simulator
//!
//! A from-scratch model of the EOS blockchain as the paper describes it
//! (§2.2–2.4): Delegated Proof-of-Stake with 21 producers in rounds of 126
//! blocks, fee-less transactions billed against staked CPU/NET and a Bancor
//! RAM market, a standardized multi-token ledger (`eosio.token`), system vs
//! regular accounts, and pluggable app contracts — including the EIDOS
//! airdrop behaviour whose "boomerang" transactions drove 95% of observed
//! throughput (§4.1).
//!
//! The [`chain::EosChain`] state machine validates and applies transactions;
//! [`rpc_model`] serializes blocks into the `get_block` wire shape the
//! measurement crawler consumes.

// EOS asset amounts are 4-decimal fixed point; literals group as
// <whole>_<4 decimals> on purpose.
#![allow(clippy::inconsistent_digit_grouping)]

pub mod account;
pub mod block_cols;
pub mod chain;
pub mod contract;
pub mod name;
pub mod resources;
pub mod rpc_model;
pub mod token;
pub mod types;

pub use chain::{ChainConfig, EosChain};
pub use contract::{AirdropSpec, AppCategory, ContractMeta};
pub use name::Name;
pub use resources::{RamMarket, ResourceConfig, ResourceState};
pub use token::TokenId;
pub use types::{Action, ActionData, Block, Transaction};
