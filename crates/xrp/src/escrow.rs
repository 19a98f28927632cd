//! Escrows and payment channels: time/condition-locked XRP.
//!
//! Ripple's treasury releases one billion XRP from escrow monthly and
//! returns ~90% to new escrows (§4.3, Figure 12) — the single largest value
//! flow in the paper's window — so escrows are first-class here.

use crate::address::AccountId;
use txstat_types::time::ChainTime;

/// A live escrow holding locked drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Escrow {
    pub id: u64,
    pub owner: AccountId,
    pub destination: AccountId,
    pub drops: i64,
    /// Funds may be released to `destination` at/after this time.
    pub finish_after: ChainTime,
    /// If set, the owner may reclaim at/after this time.
    pub cancel_after: Option<ChainTime>,
}

/// A live payment channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PayChannel {
    pub id: u64,
    pub owner: AccountId,
    pub destination: AccountId,
    /// Remaining locked drops.
    pub remaining_drops: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escrow_fields() {
        let e = Escrow {
            id: 1,
            owner: AccountId(10),
            destination: AccountId(11),
            drops: 1_000_000_000_000,
            finish_after: ChainTime::from_ymd(2019, 11, 1),
            cancel_after: None,
        };
        assert_eq!(e.drops, 1_000_000_000_000);
        assert!(e.cancel_after.is_none());
    }
}
