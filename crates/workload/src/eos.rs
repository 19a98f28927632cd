//! EOS traffic generation, calibrated to the paper's Figures 1, 3a, 4, 5
//! and the §4.1 case studies (WhaleEx wash trading, EIDOS boomerang mining
//! and the congestion flip).
//!
//! Daily rates below are the paper's raw 92-day volumes divided by 92; the
//! scenario divisor scales them down at generation time. The EIDOS launch
//! (Nov 1) adds a mining behaviour that multiplies token-transfer traffic
//! roughly tenfold.

use crate::{eidos_launch, Scenario};
use txstat_eos::chain::{ChainConfig, EosChain};
use txstat_eos::contract::{AirdropSpec, AppCategory, ContractMeta};
use txstat_eos::name::Name;
use txstat_eos::resources::ResourceConfig;
use txstat_eos::token::TokenId;
use txstat_eos::types::{Action, ActionData, Transaction};
use txstat_types::amount::SymCode;
use txstat_types::distrib::{log_normal, poisson, Zipf};
use txstat_types::rng::{rng_for, Rng};
use txstat_types::time::ChainTime;

// ---- paper-calibrated daily rates (unscaled) -------------------------------

const BETDICE_SENDS_PER_DAY: f64 = 382_000.0;
const PORN_PER_DAY: f64 = 267_000.0;
const SANGUO_PER_DAY: f64 = 94_500.0;
const WHALEEX_PER_DAY: f64 = 98_000.0;
const MYKEY_PER_DAY: f64 = 128_000.0;
const BLUEBET_PROXY_PER_DAY: f64 = 68_000.0;
const BLUEBET_2USER_PER_DAY: f64 = 62_800.0;
const BLUEBET_BCRAT_PER_DAY: f64 = 59_700.0;
const GENERIC_TRANSFERS_PER_DAY: f64 = 500_000.0;
const OTHER_APPS_PER_DAY: f64 = 300_000.0;
/// EIDOS mining transactions *attempted* per day once fully ramped (§4.1).
/// Demand deliberately exceeds chain CPU capacity: the surplus is dropped
/// under congestion, which is exactly the DoS dynamic the paper describes.
const EIDOS_PER_DAY: f64 = 10_000_000.0;
/// Days to ramp from launch to full mining rate.
const EIDOS_RAMP_DAYS: f64 = 1.0;
/// Chain CPU capacity per day, µs, unscaled (the elastic target pool).
/// Pre-EIDOS demand (~0.6 B µs/day) sits far below it; mining demand
/// (~12 B µs/day) exceeds it and flips congestion mode.
const CPU_CAPACITY_US_PER_DAY: f64 = 8.0e9;

/// System-action daily rates: (action, per-day). From Figure 1 (92 days).
const SYSTEM_DAILY: &[(&str, f64)] = &[
    ("bidname", 2_652.0),
    ("deposit", 2_167.0),
    ("newaccount", 1_247.0),
    ("updateauth", 664.0),
    ("linkauth", 646.0),
    ("delegatebw", 3_961.0),
    ("buyrambytes", 1_772.0),
    ("undelegatebw", 1_700.0),
    ("rentcpu", 1_680.0),
    ("voteproducer", 716.0),
    ("buyram", 6_521.0),
];

/// The named cast of the EOS scenario.
pub(crate) struct EosCast {
    pub token: Name,
    pub eidos_contract: Name,
    pub eidos_token: TokenId,
    pub betdice_group: Name,
    pub betdice_tasks: Name,
    pub betdice_others: Vec<(Name, f64)>,
    pub porn: Name,
    pub sanguo: Name,
    pub whaleex: Name,
    pub mykey_postman: Name,
    pub mykey_logical: Name,
    pub bluebet_proxy: Name,
    pub bluebet_2user: Name,
    pub bluebet_bcrat: Name,
    pub bluebet_texas: Name,
    pub bluebet_jacks: Name,
    pub lynx_token: Name,
    pub misc_contracts: Vec<Name>,
    pub wash_traders: Vec<Name>,
    pub minor_traders: Vec<Name>,
    pub miners: Vec<Name>,
    pub users: Vec<Name>,
    user_zipf: Zipf,
    miner_zipf: Zipf,
}

/// Build a deterministic EOS name from a prefix and an index
/// (digits mapped into the `1-5a-z` alphabet, base-31).
pub fn idx_name(prefix: &str, i: usize) -> Name {
    const ALPHA: &[u8] = b"12345abcdefghijklmnopqrstuvwxyz";
    let mut suffix = Vec::new();
    let mut n = i;
    loop {
        suffix.push(ALPHA[n % ALPHA.len()]);
        n /= ALPHA.len();
        if n == 0 {
            break;
        }
    }
    suffix.reverse();
    let mut s = prefix.to_owned();
    s.push_str(std::str::from_utf8(&suffix).expect("alphabet is ASCII"));
    assert!(s.len() <= 12, "name too long: {s}");
    Name::new(&s)
}

impl EosCast {
    fn new() -> Self {
        EosCast {
            token: Name::new("eosio.token"),
            eidos_contract: Name::new("eidosonecoin"),
            eidos_token: TokenId::new(Name::new("eidosonecoin"), "EIDOS"),
            betdice_group: Name::new("betdicegroup"),
            betdice_tasks: Name::new("betdicetasks"),
            betdice_others: vec![
                (Name::new("betdicebacca"), 0.0515),
                (Name::new("betdicesicbo"), 0.0503),
                (Name::new("betdiceadmin"), 0.0348),
            ],
            porn: Name::new("pornhashbaby"),
            sanguo: Name::new("eossanguoone"),
            whaleex: Name::new("whaleextrust"),
            mykey_postman: Name::new("mykeypostman"),
            mykey_logical: Name::new("mykeylogica1"),
            bluebet_proxy: Name::new("bluebetproxy"),
            bluebet_2user: Name::new("bluebet2user"),
            bluebet_bcrat: Name::new("bluebetbcrat"),
            bluebet_texas: Name::new("bluebettexas"),
            bluebet_jacks: Name::new("bluebetjacks"),
            lynx_token: Name::new("lynxtoken123"),
            misc_contracts: (0..8).map(|i| idx_name("miscdapp", i)).collect(),
            wash_traders: (0..5).map(|i| idx_name("whaletrade", i)).collect(),
            minor_traders: (0..10).map(|i| idx_name("smalltrade", i)).collect(),
            miners: (0..400).map(|i| idx_name("miner", i)).collect(),
            users: (0..1500).map(|i| idx_name("usr", i)).collect(),
            user_zipf: Zipf::new(1500, 1.05),
            miner_zipf: Zipf::new(400, 0.8),
        }
    }

    fn user(&self, rng: &mut Rng) -> Name {
        self.users[self.user_zipf.sample(rng)]
    }

    fn miner(&self, rng: &mut Rng) -> Name {
        self.miners[self.miner_zipf.sample(rng)]
    }
}

fn resource_config(sc: &Scenario) -> ResourceConfig {
    // Scale chain capacity by the scenario divisor and block interval so
    // every preset reproduces the same congestion dynamics.
    let target = CPU_CAPACITY_US_PER_DAY / sc.eos_divisor * sc.eos_block_secs as f64 / 86_400.0;
    ResourceConfig {
        window_secs: 86_400,
        target_block_cpu_us: target as u64,
        max_block_cpu_us: (target * 4.0) as u64,
        max_multiplier: 1000.0,
        blocks_per_window: (86_400 / sc.eos_block_secs).max(1) as u64,
        // Fast contraction: the flip completes within ~2 days of scenario
        // blocks, matching "soon after the launch … the network entered a
        // congestion mode".
        contract_ratio: 0.92,
        expand_ratio: 1.005,
    }
}

/// EOS asset sub-units (4 decimals).
fn eos_amt(whole: f64) -> i64 {
    (whole * 10_000.0).max(1.0) as i64
}

fn setup(chain: &mut EosChain, cast: &EosCast) {
    let genesis = chain.config.genesis_time;
    let eosio = Name::new("eosio");
    let eos = TokenId::eos();

    let create_funded = |chain: &mut EosChain, name: Name, balance: i64, cpu_stake: i64| {
        chain
            .state
            .accounts
            .create(eosio, name, genesis)
            .expect("create account");
        if balance > 0 {
            chain
                .state
                .tokens
                .transfer(eos, eosio, name, balance)
                .expect("fund account");
        }
        chain
            .state
            .resources
            .delegate(name, cpu_stake / 2, cpu_stake)
            .expect("stake");
        chain.state.resources.grant_ram(name, 64 * 1024);
    };

    // Contracts.
    let contracts: Vec<(Name, AppCategory, &'static str)> = vec![
        (
            cast.eidos_contract,
            AppCategory::Tokens,
            "EIDOS airdrop token",
        ),
        (cast.betdice_group, AppCategory::Betting, "BetDice operator"),
        (
            cast.betdice_tasks,
            AppCategory::Betting,
            "BetDice bookkeeping",
        ),
        (
            cast.betdice_others[0].0,
            AppCategory::Betting,
            "BetDice baccarat",
        ),
        (
            cast.betdice_others[1].0,
            AppCategory::Betting,
            "BetDice sic bo",
        ),
        (
            cast.betdice_others[2].0,
            AppCategory::Betting,
            "BetDice admin",
        ),
        (cast.porn, AppCategory::Pornography, "porn site payments"),
        (cast.sanguo, AppCategory::Games, "Sanguo RPG"),
        (cast.whaleex, AppCategory::Exchange, "WhaleEx DEX"),
        (cast.mykey_logical, AppCategory::Others, "MYKEY logic"),
        (cast.bluebet_proxy, AppCategory::Betting, "BlueBet proxy"),
        (cast.bluebet_2user, AppCategory::Betting, "BlueBet payout"),
        (cast.bluebet_bcrat, AppCategory::Betting, "BlueBet baccarat"),
        (cast.bluebet_texas, AppCategory::Betting, "BlueBet texas"),
        (cast.bluebet_jacks, AppCategory::Betting, "BlueBet jacks"),
        (cast.lynx_token, AppCategory::Tokens, "LYNX token"),
    ];
    for (name, category, description) in contracts {
        create_funded(chain, name, eos_amt(2_000_000.0), eos_amt(200_000.0));
        chain.state.contracts.deploy(ContractMeta {
            account: name,
            category,
            token: None,
            description,
        });
    }
    for &m in &cast.misc_contracts {
        create_funded(chain, m, eos_amt(100_000.0), eos_amt(20_000.0));
        chain.state.contracts.deploy(ContractMeta {
            account: m,
            category: AppCategory::Others,
            token: None,
            description: "misc dApp",
        });
    }
    // eosio.token is the system token contract: category Tokens.
    chain.state.contracts.deploy(ContractMeta {
        account: cast.token,
        category: AppCategory::Tokens,
        token: Some(TokenId::eos()),
        description: "system token",
    });
    chain
        .state
        .resources
        .delegate(cast.token, eos_amt(100_000.0), eos_amt(100_000.0))
        .unwrap();

    // EIDOS token + airdrop behaviour (0.01% of holdings per boomerang).
    chain
        .state
        .tokens
        .create(cast.eidos_token, cast.eidos_contract, 1_000_000_000_0000)
        .expect("create EIDOS");
    chain
        .state
        .tokens
        .issue(cast.eidos_token, 1_000_000_000_0000)
        .expect("issue EIDOS");
    chain.state.contracts.attach_airdrop(
        cast.eidos_contract,
        AirdropSpec {
            token: cast.eidos_token,
            payout_ppm: 100,
        },
    );

    // LYNX token for the bluebet2user flow.
    let lynx = TokenId::new(cast.lynx_token, "LYNX");
    chain
        .state
        .tokens
        .create(lynx, cast.lynx_token, i64::MAX / 4)
        .expect("create LYNX");
    chain
        .state
        .tokens
        .issue(lynx, 1_000_000_000_0000)
        .expect("issue LYNX");

    // Traders, miners, users.
    for &w in cast.wash_traders.iter().chain(cast.minor_traders.iter()) {
        create_funded(chain, w, eos_amt(500_000.0), eos_amt(50_000.0));
    }
    for &m in &cast.miners {
        // Miners hold most of the chain's CPU stake: they keep mining under
        // congestion while thinly-staked users are squeezed out (§4.1).
        create_funded(chain, m, eos_amt(2_000.0), eos_amt(40_000.0));
    }
    for &u in &cast.users {
        create_funded(chain, u, eos_amt(5_000.0), eos_amt(30.0));
    }
}

fn tx(actions: Vec<Action>, cpu_us: u32, net_bytes: u32) -> Transaction {
    Transaction {
        id: 0,
        actions,
        cpu_us,
        net_bytes,
    }
}

fn generic(contract: Name, action: &str, actor: Name) -> Action {
    Action::new(contract, Name::new(action), actor, ActionData::Generic)
}

/// Pick an index from cumulative (name, share) pairs; falls back to last.
fn pick_weighted<'a, T>(rng: &mut Rng, items: &'a [(T, f64)]) -> &'a T {
    let total: f64 = items.iter().map(|x| x.1).sum();
    let mut u = rng.unit() * total;
    for (t, w) in items {
        u -= w;
        if u <= 0.0 {
            return t;
        }
    }
    &items[items.len() - 1].0
}

/// EIDOS mining intensity multiplier in [0, 1] for a given time.
fn eidos_intensity(t: ChainTime) -> f64 {
    let launch = eidos_launch();
    if t < launch {
        return 0.0;
    }
    let days = (t - launch) as f64 / 86_400.0;
    (days / EIDOS_RAMP_DAYS).min(1.0)
}

/// Generate one block's candidate transactions.
#[allow(clippy::too_many_lines)]
fn gen_block_txs(
    sc: &Scenario,
    cast: &EosCast,
    rng: &mut Rng,
    time: ChainTime,
) -> Vec<Transaction> {
    let mut txs: Vec<Transaction> = Vec::new();
    let eos_sym = SymCode::new("EOS");
    let per = |daily: f64| Scenario::per_block(daily, sc.eos_divisor, sc.eos_block_secs);

    // --- BetDice cluster: betdicegroup fans out per Figure 5. -------------
    let n = poisson(rng, per(BETDICE_SENDS_PER_DAY));
    for _ in 0..n {
        let u = rng.unit();
        let action = if u < 0.689 {
            // → betdicetasks with the Figure 4 action mix.
            let name = pick_weighted(
                rng,
                &[
                    ("removetask", 0.68),
                    ("log", 0.1186),
                    ("sendhouse", 0.07),
                    ("betrecord", 0.0392),
                    ("betpayrecord", 0.0388),
                    ("taskstat", 0.0534),
                ],
            );
            generic(cast.betdice_tasks, name, cast.betdice_group)
        } else if u < 0.689 + 0.1355 {
            generic(cast.betdice_group, "housekeep", cast.betdice_group)
        } else {
            let others: Vec<(Name, f64)> =
                cast.betdice_others.iter().map(|(n, w)| (*n, *w)).collect();
            let dest = *pick_weighted(rng, &others);
            generic(dest, "settle", cast.betdice_group)
        };
        txs.push(tx(vec![action], 350, 160));
    }

    // --- pornhashbaby: user actions, 99.86% `record`. ----------------------
    let n = poisson(rng, per(PORN_PER_DAY));
    for _ in 0..n {
        let user = cast.user(rng);
        let name = if rng.unit() < 0.9986 {
            "record"
        } else {
            "login"
        };
        txs.push(tx(vec![generic(cast.porn, name, user)], 250, 140));
    }

    // --- eossanguoone RPG. --------------------------------------------------
    let n = poisson(rng, per(SANGUO_PER_DAY));
    for _ in 0..n {
        let user = cast.user(rng);
        let name = pick_weighted(
            rng,
            &[
                ("reveal2", 0.2827),
                ("combat", 0.1593),
                ("deletemat", 0.1012),
                ("sellmat", 0.0597),
                ("makeitem", 0.0282),
                ("questlog", 0.3689),
            ],
        );
        txs.push(tx(vec![generic(cast.sanguo, name, user)], 300, 150));
    }

    // --- WhaleEx: trades + bookkeeping; §4.1 wash-trading pattern. ---------
    let n = poisson(rng, per(WHALEEX_PER_DAY));
    for _ in 0..n {
        let u = rng.unit();
        if u < 0.2979 {
            // verifytrade2: 70% of trades involve the top-5 accounts; those
            // are self-trades 85%+ of the time (wash trading).
            let (buyer, seller) = if rng.unit() < 0.70 {
                let w = cast.wash_traders[rng.index(cast.wash_traders.len())];
                if rng.unit() < 0.88 {
                    (w, w) // self-trade
                } else {
                    (w, cast.minor_traders[rng.index(cast.minor_traders.len())])
                }
            } else {
                let a = cast.minor_traders[rng.index(cast.minor_traders.len())];
                let b = cast.minor_traders[rng.index(cast.minor_traders.len())];
                (a, b)
            };
            let base_qty = eos_amt(log_normal(rng, 2.0, 1.0));
            let quote_qty = eos_amt(log_normal(rng, 1.0, 1.0));
            txs.push(tx(
                vec![Action::new(
                    cast.whaleex,
                    Name::new("verifytrade2"),
                    cast.whaleex,
                    ActionData::Trade {
                        buyer,
                        seller,
                        base_symbol: SymCode::new("PLA"),
                        base_amount: base_qty,
                        quote_symbol: eos_sym,
                        quote_amount: quote_qty,
                    },
                )],
                400,
                220,
            ));
        } else {
            let name = pick_weighted(
                rng,
                &[
                    ("clearing", 0.1774),
                    ("clearsettres", 0.1433),
                    ("verifyad", 0.1389),
                    ("cancelorder", 0.0223),
                    ("bookkeep", 0.2202),
                ],
            );
            txs.push(tx(
                vec![generic(cast.whaleex, name, cast.whaleex)],
                300,
                180,
            ));
        }
    }

    // --- MYKEY postman relays. ----------------------------------------------
    let n = poisson(rng, per(MYKEY_PER_DAY));
    for _ in 0..n {
        if rng.unit() < 0.9404 {
            let to = cast.user(rng);
            txs.push(tx(
                vec![Action::token_transfer(
                    cast.token,
                    cast.mykey_postman,
                    to,
                    eos_sym,
                    eos_amt(log_normal(rng, -1.0, 1.0)),
                )],
                200,
                130,
            ));
        } else {
            txs.push(tx(
                vec![generic(cast.mykey_logical, "applogic", cast.mykey_postman)],
                220,
                130,
            ));
        }
    }

    // --- BlueBet cluster. -----------------------------------------------------
    let n = poisson(rng, per(BLUEBET_PROXY_PER_DAY));
    for _ in 0..n {
        let u = rng.unit();
        let action = if u < 0.5014 {
            generic(cast.bluebet_proxy, "proxycall", cast.bluebet_proxy)
        } else if u < 0.5014 + 0.2905 {
            Action::token_transfer(
                cast.token,
                cast.bluebet_proxy,
                cast.user(rng),
                eos_sym,
                eos_amt(0.5),
            )
        } else {
            let targets = [
                (cast.bluebet_texas, 0.0835),
                (cast.bluebet_jacks, 0.0292),
                (cast.bluebet_bcrat, 0.0284),
            ];
            let dest = *pick_weighted(rng, &targets);
            generic(dest, "settle", cast.bluebet_proxy)
        };
        txs.push(tx(vec![action], 300, 150));
    }
    let n = poisson(rng, per(BLUEBET_2USER_PER_DAY));
    for _ in 0..n {
        if rng.unit() < 0.9642 {
            // LYNX token payouts on the lynxtoken123 contract.
            txs.push(tx(
                vec![Action::token_transfer(
                    cast.lynx_token,
                    cast.lynx_token,
                    cast.user(rng),
                    SymCode::new("LYNX"),
                    eos_amt(1.0),
                )],
                250,
                140,
            ));
        } else {
            txs.push(tx(
                vec![Action::token_transfer(
                    cast.token,
                    cast.bluebet_2user,
                    cast.user(rng),
                    eos_sym,
                    eos_amt(0.2),
                )],
                250,
                140,
            ));
        }
    }
    let n = poisson(rng, per(BLUEBET_BCRAT_PER_DAY));
    for _ in 0..n {
        if rng.unit() < 0.7917 {
            txs.push(tx(
                vec![generic(cast.bluebet_bcrat, "bankroll", cast.bluebet_bcrat)],
                250,
                140,
            ));
        } else {
            txs.push(tx(
                vec![Action::token_transfer(
                    cast.token,
                    cast.bluebet_bcrat,
                    cast.user(rng),
                    eos_sym,
                    eos_amt(0.3),
                )],
                250,
                140,
            ));
        }
    }

    // --- Generic user-to-user token transfers. --------------------------------
    let n = poisson(rng, per(GENERIC_TRANSFERS_PER_DAY));
    for _ in 0..n {
        let from = cast.user(rng);
        let mut to = cast.user(rng);
        if to == from {
            to = cast.users
                [(cast.users.iter().position(|u| *u == from).unwrap_or(0) + 1) % cast.users.len()];
        }
        txs.push(tx(
            vec![Action::token_transfer(
                cast.token,
                from,
                to,
                eos_sym,
                eos_amt(log_normal(rng, 0.0, 1.5)),
            )],
            200,
            130,
        ));
    }

    // --- Other dApps. -----------------------------------------------------------
    let n = poisson(rng, per(OTHER_APPS_PER_DAY));
    for _ in 0..n {
        let c = cast.misc_contracts[rng.index(cast.misc_contracts.len())];
        txs.push(tx(vec![generic(c, "doit", cast.user(rng))], 280, 150));
    }

    // --- System actions. ----------------------------------------------------------
    for (name, daily) in SYSTEM_DAILY {
        let n = poisson(rng, per(*daily));
        for _ in 0..n {
            let actor = cast.user(rng);
            let data = match *name {
                "delegatebw" => ActionData::DelegateBw {
                    from: actor,
                    receiver: actor,
                    net: eos_amt(1.0),
                    cpu: eos_amt(1.0),
                },
                "undelegatebw" => ActionData::UndelegateBw {
                    from: actor,
                    receiver: actor,
                    net: eos_amt(0.1),
                    cpu: eos_amt(0.1),
                },
                "buyram" => ActionData::BuyRam {
                    payer: actor,
                    receiver: actor,
                    quant: eos_amt(0.5),
                },
                "buyrambytes" => ActionData::BuyRamBytes {
                    payer: actor,
                    receiver: actor,
                    bytes: 1024,
                },
                "bidname" => ActionData::BidName {
                    bidder: actor,
                    newname: idx_name("bid", rng.index(100_000)),
                    bid: eos_amt(log_normal(rng, 2.0, 1.0) + 1.0),
                },
                "voteproducer" => ActionData::VoteProducer {
                    voter: actor,
                    producer_count: 1 + rng.below(30) as u8,
                },
                "rentcpu" => ActionData::RentCpu {
                    from: actor,
                    receiver: actor,
                    payment: eos_amt(0.5),
                },
                "newaccount" => ActionData::NewAccount {
                    creator: actor,
                    name: idx_name("nu", rng.index(100_000_000)),
                },
                _ => ActionData::Generic,
            };
            let contract = Name::new("eosio");
            let action_name = Name::new(name);
            txs.push(tx(
                vec![Action::new(contract, action_name, actor, data)],
                350,
                180,
            ));
        }
    }

    // --- EIDOS boomerang mining (from Nov 1). -------------------------------------
    let intensity = eidos_intensity(time);
    if intensity > 0.0 {
        let n = poisson(rng, per(EIDOS_PER_DAY) * intensity);
        for _ in 0..n {
            let miner = cast.miner(rng);
            // Miners batch 1–3 boomerangs per transaction; each spawns a
            // refund + EIDOS payout inline (3 transfer actions per boomerang).
            let boomerangs = 1 + rng.below(3);
            let actions = (0..boomerangs)
                .map(|_| {
                    Action::token_transfer(
                        cast.token,
                        miner,
                        cast.eidos_contract,
                        eos_sym,
                        eos_amt(0.1),
                    )
                })
                .collect();
            txs.push(tx(actions, 600 * boomerangs as u32, 200));
        }
    }

    txs
}

/// Build the EOS chain for a scenario.
pub fn build_eos(sc: &Scenario) -> EosChain {
    let cast = EosCast::new();
    let config = ChainConfig {
        genesis_time: sc.period.start,
        block_interval_secs: sc.eos_block_secs,
        start_block_num: 82_024_737,
        resources: resource_config(sc),
    };
    let mut chain = EosChain::new(config);
    setup(&mut chain, &cast);
    let mut rng = rng_for(sc.seed, "workload/eos");
    let blocks = sc.block_count(sc.eos_block_secs);
    for _ in 0..blocks {
        let time = chain.next_block_time();
        let txs = gen_block_txs(sc, &cast, &mut rng, time);
        chain.produce_block(txs);
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use txstat_types::time::Period;

    fn tiny() -> Scenario {
        let mut sc = Scenario::small(42);
        // Even smaller for unit tests: 6 days around the launch.
        sc.period = Period::new(
            ChainTime::from_ymd(2019, 10, 29),
            ChainTime::from_ymd(2019, 11, 4),
        );
        sc
    }

    #[test]
    fn deterministic_given_seed() {
        let sc = tiny();
        let a = build_eos(&sc);
        let b = build_eos(&sc);
        assert_eq!(a.tx_count(), b.tx_count());
        assert_eq!(a.action_count(), b.action_count());
        assert_eq!(a.blocks()[10], b.blocks()[10]);
    }

    #[test]
    fn eidos_multiplies_throughput() {
        let sc = tiny();
        let chain = build_eos(&sc);
        let launch = eidos_launch();
        let (mut pre_days, mut post_days) = (0.0f64, 0.0f64);
        let (mut pre, mut post) = (0u64, 0u64);
        for b in chain.blocks() {
            if b.time < launch {
                pre += b.transactions.len() as u64;
                pre_days += 1.0;
            } else {
                post += b.transactions.len() as u64;
                post_days += 1.0;
            }
        }
        let pre_rate = pre as f64 / pre_days.max(1.0);
        let post_rate = post as f64 / post_days.max(1.0);
        // Total throughput multiplies ~2.5–4× (capacity-bound); the token
        // transfer *category* multiplies far more (next test).
        assert!(
            post_rate > 2.2 * pre_rate,
            "EIDOS spike: pre {pre_rate:.1} post {post_rate:.1} tx/block"
        );
        // Token-transfer actions specifically spike ~an order of magnitude.
        let transfers = |blocks: &[txstat_eos::Block], before: bool| -> f64 {
            let mut n = 0u64;
            let mut days = 0.0f64;
            for b in blocks {
                if (b.time < launch) == before {
                    days += 1.0;
                    n += b
                        .transactions
                        .iter()
                        .flat_map(|t| &t.actions)
                        .filter(|a| matches!(a.data, ActionData::Transfer { .. }))
                        .count() as u64;
                }
            }
            n as f64 / days.max(1.0)
        };
        let pre_tr = transfers(chain.blocks(), true);
        let post_tr = transfers(chain.blocks(), false);
        assert!(
            post_tr > 6.0 * pre_tr.max(0.5),
            "transfer spike: pre {pre_tr:.1} post {post_tr:.1} per block"
        );
    }

    #[test]
    fn transfers_dominate_actions_post_launch() {
        let sc = tiny();
        let chain = build_eos(&sc);
        let mut transfers = 0u64;
        let mut total = 0u64;
        for b in chain.blocks() {
            if b.time < eidos_launch() {
                continue;
            }
            for t in &b.transactions {
                for a in &t.actions {
                    total += 1;
                    if matches!(a.data, ActionData::Transfer { .. }) {
                        transfers += 1;
                    }
                }
            }
        }
        let share = transfers as f64 / total.max(1) as f64;
        assert!(share > 0.80, "transfer share post-launch = {share:.3}");
    }

    #[test]
    fn congestion_flips_after_launch() {
        let mut sc = tiny();
        // Full-rate mining for a clearer signal.
        sc.period = Period::new(
            ChainTime::from_ymd(2019, 10, 29),
            ChainTime::from_ymd(2019, 11, 6),
        );
        let chain = build_eos(&sc);
        // Pre-launch: relaxed. Post-launch + ramp: congested.
        let launch_secs = eidos_launch() - sc.period.start;
        let launch_block = (launch_secs / sc.eos_block_secs) as usize;
        let pre = &chain.cpu_price_history[launch_block.saturating_sub(5)];
        let post = chain.cpu_price_history.last().unwrap();
        assert!(
            post.1 > pre.1 * 20.0,
            "CPU price spike: pre {} post {}",
            pre.1,
            post.1
        );
    }

    #[test]
    fn wash_trades_are_self_trades() {
        let mut sc = tiny();
        sc.eos_divisor = 4_000.0; // denser, for a stable trade sample
        let chain = build_eos(&sc);
        let (mut self_trades, mut trades) = (0u64, 0u64);
        for b in chain.blocks() {
            for t in &b.transactions {
                for a in &t.actions {
                    if let ActionData::Trade { buyer, seller, .. } = a.data {
                        trades += 1;
                        if buyer == seller {
                            self_trades += 1;
                        }
                    }
                }
            }
        }
        assert!(trades > 10, "trades generated: {trades}");
        let share = self_trades as f64 / trades as f64;
        assert!(share > 0.5, "self-trade share {share:.2}");
    }

    #[test]
    fn conservation_holds_after_generation() {
        let chain = build_eos(&tiny());
        chain.state.tokens.check_conservation().unwrap();
    }

    #[test]
    fn idx_name_valid_and_distinct() {
        let names: Vec<Name> = (0..500).map(|i| idx_name("usr", i)).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        for n in names {
            assert!(!n.to_string_repr().is_empty());
        }
    }
}
