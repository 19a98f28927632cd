//! Core EOS chain datatypes: actions, transactions, blocks.
//!
//! The paper counts *actions* for Figure 1 ("we counted all the actions
//! included in a single transaction") and *transactions* for Figure 2, so
//! both levels are first-class here.

use crate::name::Name;
use txstat_types::amount::SymCode;
use txstat_types::time::ChainTime;

/// An asset quantity on EOS: integer sub-units of a 4-decimal symbol.
pub(crate) type AssetRaw = i64;

/// Structured payload of the action kinds the analytics must see through;
/// everything else is `Generic`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionData {
    /// `transfer(from, to, quantity, memo)` on an eosio.token-style contract.
    Transfer {
        from: Name,
        to: Name,
        symbol: SymCode,
        /// Sub-units at 4 decimals.
        amount: AssetRaw,
    },
    /// A settled DEX trade (WhaleEx `verifytrade2`-style): the contract
    /// reports a matched buy/sell pair.
    Trade {
        buyer: Name,
        seller: Name,
        base_symbol: SymCode,
        base_amount: AssetRaw,
        quote_symbol: SymCode,
        quote_amount: AssetRaw,
    },
    /// `newaccount(creator, name)`.
    NewAccount { creator: Name, name: Name },
    /// `delegatebw(from, receiver, stake_net, stake_cpu)`.
    DelegateBw {
        from: Name,
        receiver: Name,
        net: AssetRaw,
        cpu: AssetRaw,
    },
    /// `undelegatebw(from, receiver, unstake_net, unstake_cpu)`.
    UndelegateBw {
        from: Name,
        receiver: Name,
        net: AssetRaw,
        cpu: AssetRaw,
    },
    /// `buyram(payer, receiver, quant)` — EOS spent on RAM.
    BuyRam {
        payer: Name,
        receiver: Name,
        quant: AssetRaw,
    },
    /// `buyrambytes(payer, receiver, bytes)`.
    BuyRamBytes {
        payer: Name,
        receiver: Name,
        bytes: u64,
    },
    /// `bidname(bidder, newname, bid)`.
    BidName {
        bidder: Name,
        newname: Name,
        bid: AssetRaw,
    },
    /// `voteproducer(voter, producers)`.
    VoteProducer { voter: Name, producer_count: u8 },
    /// REX `rentcpu(from, receiver, loan_payment)`.
    RentCpu {
        from: Name,
        receiver: Name,
        payment: AssetRaw,
    },
    /// Anything else — app-defined actions; payload irrelevant to analytics.
    Generic,
}

/// One action: a call of `name` on `contract`, authorized by `actor`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    /// The contract account the action executes on (the paper's "receiver").
    pub contract: Name,
    /// Action name (e.g. `transfer`, `verifytrade2`, `removetask`).
    pub name: Name,
    /// First authorizer (the paper's "sender").
    pub actor: Name,
    pub data: ActionData,
}

impl Action {
    pub fn new(contract: Name, name: Name, actor: Name, data: ActionData) -> Self {
        Action {
            contract,
            name,
            actor,
            data,
        }
    }

    /// Convenience for the ubiquitous token transfer.
    pub fn token_transfer(
        token_contract: Name,
        from: Name,
        to: Name,
        symbol: SymCode,
        amount: AssetRaw,
    ) -> Self {
        Action {
            contract: token_contract,
            name: Name::new("transfer"),
            actor: from,
            data: ActionData::Transfer {
                from,
                to,
                symbol,
                amount,
            },
        }
    }
}

/// A transaction: one or more actions sharing a single billing envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Stable id (FNV of block/slot/index assigned at production time).
    pub id: u64,
    pub actions: Vec<Action>,
    /// CPU microseconds billed to the first authorizer.
    pub cpu_us: u32,
    /// Network bytes billed.
    pub net_bytes: u32,
}

impl Transaction {
    /// Billing payer: first authorizer of the first action.
    pub fn payer(&self) -> Option<Name> {
        self.actions.first().map(|a| a.actor)
    }
}

/// A produced block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    pub num: u64,
    pub time: ChainTime,
    pub producer: Name,
    pub transactions: Vec<Transaction>,
}

impl Block {
    pub fn action_count(&self) -> usize {
        self.transactions.iter().map(|t| t.actions.len()).sum()
    }
}

/// Receipt of applying a transaction to chain state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Receipt {
    pub tx_id: u64,
    pub executed_actions: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_constructor() {
        let a = Action::token_transfer(
            Name::new("eosio.token"),
            Name::new("alice"),
            Name::new("bob"),
            SymCode::new("EOS"),
            12_345,
        );
        assert_eq!(a.name, Name::new("transfer"));
        assert_eq!(a.actor, Name::new("alice"));
        match a.data {
            ActionData::Transfer {
                from, to, amount, ..
            } => {
                assert_eq!(from, Name::new("alice"));
                assert_eq!(to, Name::new("bob"));
                assert_eq!(amount, 12_345);
            }
            _ => panic!("expected transfer"),
        }
    }

    #[test]
    fn block_action_count() {
        let t = |n: usize| Transaction {
            id: n as u64,
            actions: vec![
                Action::new(
                    Name::new("x"),
                    Name::new("doit"),
                    Name::new("y"),
                    ActionData::Generic
                );
                n
            ],
            cpu_us: 100,
            net_bytes: 128,
        };
        let b = Block {
            num: 1,
            time: ChainTime::from_ymd(2019, 10, 1),
            producer: Name::new("eosbpone"),
            transactions: vec![t(2), t(3)],
        };
        assert_eq!(b.action_count(), 5);
        assert_eq!(b.transactions[0].payer(), Some(Name::new("y")));
    }
}
