//! Tezos on-chain governance: the four-period amendment cycle of §4.2.
//!
//! Proposal → Exploration → Testing → Promotion. Proposal upvotes and
//! exploration/promotion ballots are cast in *rolls* (staked-weight units).
//! Quorum is dynamically adjusted from past participation; an exploration or
//! promotion vote passes when participation reaches quorum **and** yay wins
//! a supermajority of non-pass votes.

use crate::address::Address;
use crate::ops::Vote;
use std::collections::{HashMap, HashSet};

/// Which period the chain is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeriodKind {
    Proposal,
    Exploration,
    Testing,
    Promotion,
}

impl PeriodKind {
    pub const fn label(self) -> &'static str {
        match self {
            PeriodKind::Proposal => "proposal",
            PeriodKind::Exploration => "exploration",
            PeriodKind::Testing => "testing",
            PeriodKind::Promotion => "promotion",
        }
    }
}

/// Governance parameters.
#[derive(Debug, Clone)]
pub struct GovernanceConfig {
    /// Blocks per voting period (mainnet: 8 cycles × 4096 blocks; scenarios
    /// scale this down with the block interval).
    pub period_blocks: u64,
    /// Initial participation quorum, in percent of total rolls.
    pub initial_quorum_pct: f64,
    /// Supermajority required among yay+nay, in percent (mainnet: 80%).
    pub supermajority_pct: f64,
}

impl Default for GovernanceConfig {
    fn default() -> Self {
        GovernanceConfig { period_blocks: 32_768, initial_quorum_pct: 75.83, supermajority_pct: 80.0 }
    }
}

/// Outcome of one finished period.
#[derive(Debug, Clone)]
pub struct PeriodResult {
    pub index: u64,
    pub kind: PeriodKind,
    pub winner: Option<String>,
    pub yay_rolls: u64,
    pub nay_rolls: u64,
    pub pass_rolls: u64,
    pub participation_pct: f64,
    pub passed: bool,
}

/// Governance errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovError {
    WrongPeriod { expected: &'static str, actual: PeriodKind },
    AlreadyVoted(Address),
    DuplicateUpvote { baker: Address, proposal: String },
    UnknownProposal(String),
}

impl std::fmt::Display for GovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GovError::WrongPeriod { expected, actual } => {
                write!(f, "operation requires {expected} period, chain is in {}", actual.label())
            }
            GovError::AlreadyVoted(a) => write!(f, "{a} already voted this period"),
            GovError::DuplicateUpvote { baker, proposal } => {
                write!(f, "{baker} already upvoted {proposal}")
            }
            GovError::UnknownProposal(p) => write!(f, "unknown proposal {p}"),
        }
    }
}

impl std::error::Error for GovError {}

/// The governance state machine.
#[derive(Debug, Clone)]
pub struct GovernanceState {
    pub cfg: GovernanceConfig,
    pub period_kind: PeriodKind,
    pub period_index: u64,
    pub blocks_into_period: u64,
    /// Upvote rolls per proposal hash (Proposal period).
    pub proposals: HashMap<String, u64>,
    upvoters: HashSet<(Address, String)>,
    /// Proposal under vote (Exploration/Testing/Promotion).
    pub current_proposal: Option<String>,
    ballots: HashMap<Address, Vote>,
    pub yay_rolls: u64,
    pub nay_rolls: u64,
    pub pass_rolls: u64,
    pub quorum_pct: f64,
    pub history: Vec<PeriodResult>,
    /// Protocols that reached activation.
    pub activated: Vec<String>,
}

impl GovernanceState {
    pub fn new(cfg: GovernanceConfig) -> Self {
        let quorum_pct = cfg.initial_quorum_pct;
        GovernanceState {
            cfg,
            period_kind: PeriodKind::Proposal,
            period_index: 0,
            blocks_into_period: 0,
            proposals: HashMap::new(),
            upvoters: HashSet::new(),
            current_proposal: None,
            ballots: HashMap::new(),
            yay_rolls: 0,
            nay_rolls: 0,
            pass_rolls: 0,
            quorum_pct,
            history: Vec::new(),
            activated: Vec::new(),
        }
    }

    /// Submit/upvote proposals (Proposal period only). A baker may upvote
    /// multiple proposals but each at most once.
    pub(crate) fn submit_proposals(
        &mut self,
        baker: Address,
        rolls: u64,
        proposals: &[String],
    ) -> Result<(), GovError> {
        if self.period_kind != PeriodKind::Proposal {
            return Err(GovError::WrongPeriod { expected: "proposal", actual: self.period_kind });
        }
        for p in proposals {
            if self.upvoters.contains(&(baker, p.clone())) {
                return Err(GovError::DuplicateUpvote { baker, proposal: p.clone() });
            }
        }
        for p in proposals {
            self.upvoters.insert((baker, p.clone()));
            *self.proposals.entry(p.clone()).or_insert(0) += rolls;
        }
        Ok(())
    }

    /// Cast a ballot (Exploration or Promotion; once per baker per period).
    pub(crate) fn ballot(&mut self, baker: Address, rolls: u64, proposal: &str, vote: Vote) -> Result<(), GovError> {
        if !matches!(self.period_kind, PeriodKind::Exploration | PeriodKind::Promotion) {
            return Err(GovError::WrongPeriod {
                expected: "exploration/promotion",
                actual: self.period_kind,
            });
        }
        match &self.current_proposal {
            Some(p) if p == proposal => {}
            _ => return Err(GovError::UnknownProposal(proposal.to_owned())),
        }
        if self.ballots.contains_key(&baker) {
            return Err(GovError::AlreadyVoted(baker));
        }
        self.ballots.insert(baker, vote);
        match vote {
            Vote::Yay => self.yay_rolls += rolls,
            Vote::Nay => self.nay_rolls += rolls,
            Vote::Pass => self.pass_rolls += rolls,
        }
        Ok(())
    }

    /// Advance one block; when the period ends, resolve it against
    /// `total_rolls` and transition. Returns the just-finished period's
    /// result when a boundary is crossed.
    pub(crate) fn advance_block(&mut self, total_rolls: u64) -> Option<PeriodResult> {
        self.blocks_into_period += 1;
        if self.blocks_into_period < self.cfg.period_blocks {
            return None;
        }
        Some(self.end_period(total_rolls))
    }

    fn end_period(&mut self, total_rolls: u64) -> PeriodResult {
        let total = total_rolls.max(1);
        let result = match self.period_kind {
            PeriodKind::Proposal => {
                let winner = self
                    .proposals
                    .iter()
                    .max_by_key(|(p, r)| (**r, std::cmp::Reverse(p.as_str().to_owned())))
                    .map(|(p, _)| p.clone());
                let voted: u64 = self.proposals.values().sum();
                let participation = voted as f64 * 100.0 / total as f64;
                let passed = winner.is_some();
                PeriodResult {
                    index: self.period_index,
                    kind: PeriodKind::Proposal,
                    winner: winner.clone(),
                    yay_rolls: 0,
                    nay_rolls: 0,
                    pass_rolls: 0,
                    participation_pct: participation,
                    passed,
                }
            }
            PeriodKind::Exploration | PeriodKind::Promotion => {
                let participation =
                    (self.yay_rolls + self.nay_rolls + self.pass_rolls) as f64 * 100.0 / total as f64;
                let cast = self.yay_rolls + self.nay_rolls;
                let supermajority = cast == 0
                    || self.yay_rolls as f64 * 100.0 / cast as f64 >= self.cfg.supermajority_pct;
                let passed = participation >= self.quorum_pct && supermajority && cast > 0;
                // Dynamic quorum update from observed participation.
                self.quorum_pct = 0.8 * self.quorum_pct + 0.2 * participation;
                PeriodResult {
                    index: self.period_index,
                    kind: self.period_kind,
                    winner: self.current_proposal.clone(),
                    yay_rolls: self.yay_rolls,
                    nay_rolls: self.nay_rolls,
                    pass_rolls: self.pass_rolls,
                    participation_pct: participation,
                    passed,
                }
            }
            PeriodKind::Testing => PeriodResult {
                index: self.period_index,
                kind: PeriodKind::Testing,
                winner: self.current_proposal.clone(),
                yay_rolls: 0,
                nay_rolls: 0,
                pass_rolls: 0,
                participation_pct: 0.0,
                passed: true,
            },
        };

        // Transition.
        let next = match (self.period_kind, result.passed) {
            (PeriodKind::Proposal, true) => {
                self.current_proposal = result.winner.clone();
                PeriodKind::Exploration
            }
            (PeriodKind::Proposal, false) => PeriodKind::Proposal,
            (PeriodKind::Exploration, true) => PeriodKind::Testing,
            (PeriodKind::Exploration, false) => PeriodKind::Proposal,
            (PeriodKind::Testing, _) => PeriodKind::Promotion,
            (PeriodKind::Promotion, true) => {
                if let Some(p) = &self.current_proposal {
                    self.activated.push(p.clone());
                }
                PeriodKind::Proposal
            }
            (PeriodKind::Promotion, false) => PeriodKind::Proposal,
        };
        if next == PeriodKind::Proposal {
            self.current_proposal = None;
        }
        self.period_kind = next;
        self.period_index += 1;
        self.blocks_into_period = 0;
        self.proposals.clear();
        self.upvoters.clear();
        self.ballots.clear();
        self.yay_rolls = 0;
        self.nay_rolls = 0;
        self.pass_rolls = 0;
        self.history.push(result.clone());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov(period_blocks: u64) -> GovernanceState {
        GovernanceState::new(GovernanceConfig {
            period_blocks,
            initial_quorum_pct: 50.0,
            supermajority_pct: 80.0,
        })
    }

    fn run_period(g: &mut GovernanceState, total_rolls: u64) -> PeriodResult {
        loop {
            if let Some(r) = g.advance_block(total_rolls) {
                return r;
            }
        }
    }

    #[test]
    fn full_successful_amendment_cycle() {
        let mut g = gov(10);
        let (a, b) = (Address::implicit(1), Address::implicit(2));
        g.submit_proposals(a, 3000, &["Babylon".into(), "Babylon2".into()]).unwrap();
        g.submit_proposals(b, 4000, &["Babylon2".into()]).unwrap();
        let r = run_period(&mut g, 10_000);
        assert_eq!(r.kind, PeriodKind::Proposal);
        assert_eq!(r.winner.as_deref(), Some("Babylon2"));
        assert_eq!(g.period_kind, PeriodKind::Exploration);

        g.ballot(a, 3000, "Babylon2", Vote::Yay).unwrap();
        g.ballot(b, 4000, "Babylon2", Vote::Yay).unwrap();
        let r = run_period(&mut g, 10_000);
        assert!(r.passed, "{r:?}");
        assert_eq!(g.period_kind, PeriodKind::Testing);

        let r = run_period(&mut g, 10_000);
        assert!(r.passed);
        assert_eq!(g.period_kind, PeriodKind::Promotion);

        g.ballot(a, 3000, "Babylon2", Vote::Yay).unwrap();
        g.ballot(b, 4000, "Babylon2", Vote::Nay).unwrap();
        // 3000/7000 yay = 42% < 80% supermajority → fails.
        let r = run_period(&mut g, 10_000);
        assert!(!r.passed);
        assert_eq!(g.period_kind, PeriodKind::Proposal);
        assert!(g.activated.is_empty());
    }

    #[test]
    fn promotion_success_activates() {
        let mut g = gov(5);
        let a = Address::implicit(1);
        g.submit_proposals(a, 8000, &["P".into()]).unwrap();
        run_period(&mut g, 10_000);
        g.ballot(a, 8000, "P", Vote::Yay).unwrap();
        run_period(&mut g, 10_000);
        run_period(&mut g, 10_000); // testing
        g.ballot(a, 8000, "P", Vote::Yay).unwrap();
        let r = run_period(&mut g, 10_000);
        assert!(r.passed);
        assert_eq!(g.activated, vec!["P".to_owned()]);
        assert_eq!(g.period_kind, PeriodKind::Proposal);
    }

    #[test]
    fn quorum_blocks_low_participation() {
        let mut g = gov(5);
        let a = Address::implicit(1);
        g.submit_proposals(a, 8000, &["P".into()]).unwrap();
        run_period(&mut g, 10_000);
        // Only 20% participation < 50% quorum.
        g.ballot(a, 2000, "P", Vote::Yay).unwrap();
        let r = run_period(&mut g, 10_000);
        assert!(!r.passed);
        assert_eq!(g.period_kind, PeriodKind::Proposal);
        // Quorum adapted downward: 0.8*50 + 0.2*20 = 44.
        assert!((g.quorum_pct - 44.0).abs() < 1e-9);
    }

    #[test]
    fn vote_rules_enforced() {
        let mut g = gov(100);
        let a = Address::implicit(1);
        // Ballot in proposal period is rejected.
        assert!(matches!(
            g.ballot(a, 100, "P", Vote::Yay),
            Err(GovError::WrongPeriod { .. })
        ));
        g.submit_proposals(a, 100, &["P".into()]).unwrap();
        // Duplicate upvote rejected.
        assert!(matches!(
            g.submit_proposals(a, 100, &["P".into()]),
            Err(GovError::DuplicateUpvote { .. })
        ));
        run_period(&mut g, 100);
        g.ballot(a, 100, "P", Vote::Pass).unwrap();
        assert!(matches!(g.ballot(a, 100, "P", Vote::Yay), Err(GovError::AlreadyVoted(_))));
        // Wrong proposal hash rejected.
        assert!(matches!(
            g.ballot(Address::implicit(2), 100, "Q", Vote::Yay),
            Err(GovError::UnknownProposal(_))
        ));
    }

    #[test]
    fn empty_proposal_period_restarts() {
        let mut g = gov(3);
        let r = run_period(&mut g, 100);
        assert!(!r.passed);
        assert_eq!(g.period_kind, PeriodKind::Proposal);
        assert_eq!(g.period_index, 1);
    }
}
