//! Tezos traffic generation: endorsement-dominated consensus traffic, a
//! thin stream of manager operations (Figure 1's Tezos column), the
//! faucet-pattern top senders of Figure 6, and the Babylon amendment
//! replay behind Figure 9 and §4.2.

use crate::Scenario;
use txstat_tezos::address::Address;
use txstat_tezos::chain::{TezosChain, TezosConfig, MUTEZ_PER_TEZ};
use txstat_tezos::governance::GovernanceConfig;
use txstat_tezos::ops::{OpPayload, Operation, Vote};
use txstat_types::distrib::{log_normal, poisson, Zipf};
use txstat_types::rng::{rng_for, Rng};
use txstat_types::time::ChainTime;

// ---- paper-calibrated daily rates (unscaled; Figure 1 / 92 days) ----------

const TX_PER_DAY: f64 = 6_515.0;
const ORIGINATION_PER_DAY: f64 = 22.5;
const REVEAL_PER_DAY: f64 = 311.0;
const ACTIVATION_PER_DAY: f64 = 10.4;
const DELEGATION_PER_DAY: f64 = 159.0;
const REVEAL_NONCE_PER_DAY: f64 = 311.0;
const DOUBLE_BAKING_PER_DAY: f64 = 4.0 / 92.0;

/// Protocol hashes of the Babylon saga (§4.2).
pub(crate) const BABYLON_1: &str = "PsBABY5nk4JhdEv1N1pZbt6m6ccB9BfNqa23iKZcHBh23jmRS9f";
pub(crate) const BABYLON_2: &str = "PsBABY5HQTSkA4297zNHfsZNKtxULfL18y95qb3m53QJiXGmrbU";
pub(crate) const BREST_A: &str = "PtdRxBHvc91c2ea2evV6wkoqnzW7TadTg9aqS9jAn2GbcPGtumD";

/// Figure 6's top-sender behavioural profiles.
struct FaucetProfile {
    address: Address,
    /// Total sends over the paper's 92-day window (unscaled).
    total_sends: f64,
    /// Receiver pool size; `None` = always a fresh receiver (tz1Mzp pattern).
    pool: Option<usize>,
    /// Round-robin receivers (low variance, the KT1Dz pattern).
    round_robin: bool,
}

/// The named cast.
pub(crate) struct TezosCast {
    pub bakers: Vec<Address>,
    pub foundation: Address,
    pub users: Vec<Address>,
    faucets: Vec<FaucetProfile>,
    user_zipf: Zipf,
}

impl TezosCast {
    fn new(n_bakers: usize) -> Self {
        TezosCast {
            bakers: (1..=n_bakers as u64).map(Address::implicit).collect(),
            foundation: Address::implicit(1),
            users: (0..2000).map(|i| Address::implicit(1_000 + i)).collect(),
            faucets: vec![
                // tz1cNAR…: 43,099 sends to 1,508 receivers (μ28.6, σ8.3).
                FaucetProfile {
                    address: Address::implicit(101),
                    total_sends: 43_099.0,
                    pool: Some(1_508),
                    round_robin: false,
                },
                // tz1Mzp…: 38,417 sends, every receiver unique.
                FaucetProfile {
                    address: Address::implicit(102),
                    total_sends: 38_417.0,
                    pool: None,
                    round_robin: false,
                },
                // tz1Yrm…: 25,631 sends to 553 receivers.
                FaucetProfile {
                    address: Address::implicit(103),
                    total_sends: 25_631.0,
                    pool: Some(553),
                    round_robin: false,
                },
                // tz1Moon…: 21,691 sends to 651 receivers.
                FaucetProfile {
                    address: Address::implicit(104),
                    total_sends: 21_691.0,
                    pool: Some(651),
                    round_robin: false,
                },
                // KT1Dz…: 19,649 sends to 1,280 receivers, σ only 2.5 →
                // near-uniform round-robin; an originated (contract) sender.
                FaucetProfile {
                    address: Address::originated(105),
                    total_sends: 19_649.0,
                    pool: Some(1_280),
                    round_robin: true,
                },
            ],
            user_zipf: Zipf::new(2000, 0.9),
        }
    }

    fn user(&self, rng: &mut Rng) -> Address {
        self.users[self.user_zipf.sample(rng)]
    }
}

/// One scheduled governance operation of the Babylon replay.
struct ScheduledOp {
    time: ChainTime,
    op: Operation,
}

/// Build the replay schedule: proposal upvotes Jul 25 – Aug 9, exploration
/// ballots Aug 9 – Sep 1, promotion ballots Sep 24 – Oct 17, and a sparse
/// Brest A proposal round in December (the <1%-participation follow-up the
/// paper mentions).
fn governance_schedule(cast: &TezosCast, rng: &mut Rng) -> Vec<ScheduledOp> {
    let mut sched: Vec<ScheduledOp> = Vec::new();
    let day = |y: i64, m: u32, d: u32| ChainTime::from_ymd(y, m, d);
    let rand_time = |rng: &mut Rng, from: ChainTime, to: ChainTime| {
        ChainTime(from.secs() + rng.below((to.secs() - from.secs()) as u64) as i64)
    };

    for (i, baker) in cast.bakers.iter().enumerate() {
        // 49% of bakers participate in the proposal period.
        let participates = rng.unit() < 0.49;
        if participates {
            // 78% of participants upvote Babylon 1 (before Aug 2 feedback),
            // everyone upvotes Babylon 2.0 once released Aug 1.
            if rng.unit() < 0.78 {
                sched.push(ScheduledOp {
                    time: rand_time(rng, day(2019, 7, 25), day(2019, 8, 1)),
                    op: Operation::new(
                        *baker,
                        OpPayload::Proposals {
                            proposals: vec![BABYLON_1.to_owned()],
                        },
                    ),
                });
            }
            sched.push(ScheduledOp {
                time: rand_time(rng, day(2019, 8, 1), day(2019, 8, 9)),
                op: Operation::new(
                    *baker,
                    OpPayload::Proposals {
                        proposals: vec![BABYLON_2.to_owned()],
                    },
                ),
            });
        }
        // Exploration: >81% participation; no nays, foundation passes.
        // Large bakers (professional operators) always vote, anchoring the
        // rolls-weighted quorum.
        if i < 10 || rng.unit() < 0.85 {
            let vote = if *baker == cast.foundation {
                Vote::Pass
            } else {
                Vote::Yay
            };
            sched.push(ScheduledOp {
                time: rand_time(rng, day(2019, 8, 10), day(2019, 9, 1)),
                op: Operation::new(
                    *baker,
                    OpPayload::Ballot {
                        proposal: BABYLON_2.to_owned(),
                        vote,
                    },
                ),
            });
        }
        // Promotion: similar turnout, ~12% nays (Ledger breakage, §4.2).
        if i < 10 || rng.unit() < 0.85 {
            let u = rng.unit();
            let vote = if *baker == cast.foundation {
                Vote::Pass
            } else if u < 0.12 {
                Vote::Nay
            } else if u < 0.15 {
                Vote::Pass
            } else {
                Vote::Yay
            };
            sched.push(ScheduledOp {
                time: rand_time(rng, day(2019, 9, 25), day(2019, 10, 17)),
                op: Operation::new(
                    *baker,
                    OpPayload::Ballot {
                        proposal: BABYLON_2.to_owned(),
                        vote,
                    },
                ),
            });
        }
        // Sparse December proposal round (Brest A, <1% participation).
        if i < 2 {
            sched.push(ScheduledOp {
                time: rand_time(rng, day(2019, 12, 5), day(2019, 12, 20)),
                op: Operation::new(
                    *baker,
                    OpPayload::Proposals {
                        proposals: vec![BREST_A.to_owned()],
                    },
                ),
            });
        }
    }
    sched.sort_by_key(|s| s.time);
    sched
}

fn config(sc: &Scenario) -> TezosConfig {
    let blocks_per_day = (86_400 / sc.tezos_block_secs).max(1);
    TezosConfig {
        genesis_time: sc.tezos_genesis,
        block_interval_secs: sc.tezos_block_secs,
        start_level: 628_951,
        endorsement_slots: 32,
        baker_threshold_mutez: 10_000 * MUTEZ_PER_TEZ,
        roll_size_mutez: 10_000 * MUTEZ_PER_TEZ,
        activation_amount_mutez: 500 * MUTEZ_PER_TEZ,
        seed: sc.seed ^ 0x7e205,
        governance: GovernanceConfig {
            // 23-day periods (§4.2).
            period_blocks: (23 * blocks_per_day) as u64,
            initial_quorum_pct: 75.83,
            supermajority_pct: 80.0,
        },
    }
}

/// Faucet state: round-robin counters and fresh-receiver allocator.
struct FaucetState {
    counter: usize,
    fresh_next: u64,
}

/// Build the Tezos chain for a scenario.
pub fn build_tezos(sc: &Scenario) -> TezosChain {
    let cast = TezosCast::new(60);
    let mut chain = TezosChain::new(config(sc));
    let mut rng = rng_for(sc.seed, "workload/tezos");

    // Bakers: Zipf-ish stakes, total ≈ 650k rolls-worth of mutez.
    for (i, b) in cast.bakers.iter().enumerate() {
        let rolls = (4_000.0 / (i as f64 + 1.0).powf(0.7)) as u64 + 20;
        let stake = rolls * chain.config.roll_size_mutez;
        chain.fund(*b, stake + 1_000 * MUTEZ_PER_TEZ);
        chain.register_baker(*b, stake).expect("register baker");
    }
    // Users and faucets funded at genesis.
    for u in &cast.users {
        chain.fund(*u, 2_000 * MUTEZ_PER_TEZ);
    }
    for f in &cast.faucets {
        chain.fund(f.address, 10_000_000 * MUTEZ_PER_TEZ);
    }

    let schedule = if sc.governance_replay {
        governance_schedule(&cast, &mut rng)
    } else {
        Vec::new()
    };
    let mut schedule = schedule.into_iter().peekable();

    let mut faucet_states: Vec<FaucetState> = (0..cast.faucets.len())
        .map(|i| FaucetState {
            counter: 0,
            fresh_next: 2_000_000 + i as u64 * 1_000_000,
        })
        .collect();

    // The chain runs from genesis (pre-window, for governance) to window end.
    let total_secs = sc.period.end - sc.tezos_genesis;
    let blocks = (total_secs / sc.tezos_block_secs).max(1) as u64;
    let per = |daily: f64| Scenario::per_block(daily, sc.tezos_divisor, sc.tezos_block_secs);
    // Window-only rate: manager traffic is only generated inside the
    // observation window (we have no calibration data before it), while
    // endorsements accrue from genesis as the protocol demands.
    // Traffic is stationary block to block, so the last block's operation
    // count sizes the next one's vector.
    let mut last_len = 0;
    for _ in 0..blocks {
        let time = chain.next_block_time();
        let mut ops: Vec<Operation> = Vec::with_capacity(last_len);

        // Governance replay ops due at this block.
        while let Some(due) = schedule.next_if(|s| s.time.secs() <= time.secs()) {
            ops.push(due.op);
        }

        if sc.period.contains(time) {
            // Peer-to-peer transactions: faucets + generic users.
            for (fi, f) in cast.faucets.iter().enumerate() {
                let n = poisson(&mut rng, per(f.total_sends / 92.0));
                for _ in 0..n {
                    let st = &mut faucet_states[fi];
                    let dest = match f.pool {
                        None => {
                            st.fresh_next += 1;
                            Address::implicit(st.fresh_next)
                        }
                        Some(pool) => {
                            let idx = if f.round_robin {
                                st.counter = (st.counter + 1) % pool;
                                st.counter
                            } else {
                                // Mildly skewed receiver choice (σ above Poisson).
                                let z = rng.unit().powf(1.35);
                                ((z * pool as f64) as usize).min(pool - 1)
                            };
                            Address::implicit(10_000 + fi as u64 * 100_000 + idx as u64)
                        }
                    };
                    ops.push(Operation::new(
                        f.address,
                        OpPayload::Transaction {
                            destination: dest,
                            amount_mutez: (log_normal(&mut rng, 0.0, 1.0) * MUTEZ_PER_TEZ as f64)
                                as u64
                                + 1,
                        },
                    ));
                }
            }
            let generic_daily = TX_PER_DAY
                - cast
                    .faucets
                    .iter()
                    .map(|f| f.total_sends / 92.0)
                    .sum::<f64>();
            let n = poisson(&mut rng, per(generic_daily));
            for _ in 0..n {
                let from = cast.user(&mut rng);
                let to = cast.user(&mut rng);
                ops.push(Operation::new(
                    from,
                    OpPayload::Transaction {
                        destination: to,
                        amount_mutez: (log_normal(&mut rng, 1.0, 1.5) * MUTEZ_PER_TEZ as f64)
                            as u64
                            + 1,
                    },
                ));
            }

            // Other manager/anonymous operations at Figure 1 rates.
            for _ in 0..poisson(&mut rng, per(ORIGINATION_PER_DAY)) {
                let src = cast.user(&mut rng);
                let kt = Address::originated(5_000_000 + rng.below(1_000_000));
                ops.push(Operation::new(
                    src,
                    OpPayload::Origination {
                        contract: kt,
                        balance_mutez: MUTEZ_PER_TEZ,
                    },
                ));
            }
            for _ in 0..poisson(&mut rng, per(REVEAL_PER_DAY)) {
                ops.push(Operation::new(
                    Address::implicit(6_000_000 + rng.below(10_000_000)),
                    OpPayload::Reveal,
                ));
            }
            for _ in 0..poisson(&mut rng, per(ACTIVATION_PER_DAY)) {
                ops.push(Operation::new(
                    Address::implicit(7_000_000 + rng.below(10_000_000)),
                    OpPayload::Activation {
                        secret_hash: rng.next_u64(),
                    },
                ));
            }
            for _ in 0..poisson(&mut rng, per(DELEGATION_PER_DAY)) {
                let delegate = cast.bakers[rng.index(cast.bakers.len())];
                ops.push(Operation::new(
                    cast.user(&mut rng),
                    OpPayload::Delegation {
                        delegate: Some(delegate),
                    },
                ));
            }
            for _ in 0..poisson(&mut rng, per(REVEAL_NONCE_PER_DAY)) {
                let baker = cast.bakers[rng.index(cast.bakers.len())];
                let level = chain.head_level().saturating_sub(1 + rng.below(63));
                ops.push(Operation::new(baker, OpPayload::RevealNonce { level }));
            }
            for _ in 0..poisson(&mut rng, per(DOUBLE_BAKING_PER_DAY)) {
                let offender = cast.bakers[rng.index(cast.bakers.len())];
                let level = chain.head_level().saturating_sub(1);
                ops.push(Operation::new(
                    cast.bakers[rng.index(cast.bakers.len())],
                    OpPayload::DoubleBakingEvidence { offender, level },
                ));
            }
        }

        last_len = ops.len();
        chain.produce_block(ops);
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use txstat_tezos::ops::OperationKind;
    use txstat_types::time::Period;

    fn tiny() -> Scenario {
        let mut sc = Scenario::small(7);
        sc.period = Period::new(
            ChainTime::from_ymd(2019, 10, 26),
            ChainTime::from_ymd(2019, 11, 2),
        );
        sc.tezos_divisor = 20.0;
        sc
    }

    #[test]
    fn endorsements_dominate_in_window() {
        let sc = tiny();
        let chain = build_tezos(&sc);
        let mut endorse = 0u64;
        let mut total = 0u64;
        for b in chain.blocks() {
            if !sc.period.contains(b.time) {
                continue;
            }
            for op in &b.operations {
                total += 1;
                if op.kind() == OperationKind::Endorsement {
                    endorse += 1;
                }
            }
        }
        let share = endorse as f64 / total.max(1) as f64;
        assert!(
            (0.5..1.0).contains(&share),
            "endorsement share {share:.2} (paper: 0.82)"
        );
    }

    #[test]
    fn governance_replay_produces_full_cycle() {
        let mut sc = tiny();
        sc.governance_replay = true;
        let chain = build_tezos(&sc);
        // Babylon should have been activated via promotion (mid-October).
        assert!(
            chain.governance.activated.contains(&BABYLON_2.to_owned()),
            "activated: {:?}, history: {:?}",
            chain.governance.activated,
            chain
                .governance
                .history
                .iter()
                .map(|h| (h.kind, h.passed))
                .collect::<Vec<_>>()
        );
        let ballots: u64 = chain
            .blocks()
            .iter()
            .flat_map(|b| &b.operations)
            .filter(|o| o.kind() == OperationKind::Ballot)
            .count() as u64;
        assert!(ballots > 50, "ballots recorded: {ballots}");
    }

    #[test]
    fn faucet_pattern_present() {
        let mut sc = tiny();
        sc.tezos_divisor = 5.0; // denser so faucets act
        let chain = build_tezos(&sc);
        let faucet = Address::implicit(102); // the unique-receiver sender
        let mut receivers = std::collections::HashSet::new();
        let mut sends = 0;
        for b in chain.blocks() {
            for op in &b.operations {
                if op.source == faucet {
                    if let OpPayload::Transaction { destination, .. } = &op.payload {
                        sends += 1;
                        receivers.insert(*destination);
                    }
                }
            }
        }
        assert!(sends > 20, "faucet sends {sends}");
        assert_eq!(
            receivers.len(),
            sends,
            "every receiver unique (tz1Mzp pattern)"
        );
    }

    #[test]
    fn deterministic() {
        let sc = tiny();
        let a = build_tezos(&sc);
        let b = build_tezos(&sc);
        assert_eq!(a.op_count(), b.op_count());
        assert_eq!(a.blocks().len(), b.blocks().len());
    }

    #[test]
    fn conservation() {
        let chain = build_tezos(&tiny());
        chain.check_conservation().unwrap();
    }
}
