//! XRP traffic generation, calibrated to Figures 1, 3c, 7, 8, 11, 12 and
//! the §4.3 case studies.
//!
//! The cast: Huobi-cluster offer bots (≥98% OfferCreate, destination tag
//! 104398), two zero-value payment-spam waves from an account that
//! activated hundreds of children, fiat/BTC gateways whose IOUs trade on
//! the DEX (feeding the rate oracle), "shadow" issuers whose high-volume
//! IOUs never trade (hence carry no value), exchange XRP flows matching the
//! Figure 12 magnitudes, Ripple's monthly escrow cycle, and the Myrone
//! self-dealt BTC IOU pump of Figure 11b.

use crate::Scenario;
use rand::rngs::StdRng;
use rand::Rng;
use txstat_types::distrib::{poisson, Zipf};
use txstat_types::rng::rng_for;
use txstat_types::time::ChainTime;
use txstat_xrp::amount::{Amount, IssuedCurrency, DROPS_PER_XRP, IOU_UNIT};
use txstat_xrp::ledger::{LedgerConfig, XrpLedger};
use txstat_xrp::tx::{Transaction, TxPayload};
use txstat_xrp::AccountId;

// ---- cast account ids -------------------------------------------------------

pub const GENESIS: AccountId = AccountId(100);
pub const RIPPLE: AccountId = AccountId(101);
/// The escrow-funding treasury account the monthly releases cycle through.
pub const RIPPLE_ESCROW: AccountId = AccountId(102);
pub const BINANCE: AccountId = AccountId(110);
pub const HUOBI: AccountId = AccountId(111);
pub const BITTREX: AccountId = AccountId(112);
pub const UPBIT: AccountId = AccountId(113);
pub const BITSTAMP: AccountId = AccountId(114);
pub const BITHUMB: AccountId = AccountId(115);
pub const COINBASE: AccountId = AccountId(116);
pub const BITGO: AccountId = AccountId(117);
pub const LIQUID: AccountId = AccountId(118);
pub const UPHOLD: AccountId = AccountId(119);
pub const GATEHUB_FIFTH: AccountId = AccountId(120);
pub const UPK: AccountId = AccountId(121);
pub const BTC2RIPPLE: AccountId = AccountId(122);
pub const CNY_GATEWAY: AccountId = AccountId(123);
/// Descendant senders (activated by their exchange, no own username).
pub const BITGO_DESC: AccountId = AccountId(130);
pub const HUOBI_DESC: AccountId = AccountId(131);
pub const LIQUID_DESC: AccountId = AccountId(132);
pub const UPHOLD_DESC: AccountId = AccountId(133);
pub const UPBIT_DESC: AccountId = AccountId(134);
/// The §4.3 spammer (rpJZ5WyotdphojwMLxCr2prhULvG3Voe3X in the paper).
pub const SPAMMER: AccountId = AccountId(2000);
pub const SPAM_CHILD_BASE: u64 = 2001;

/// Spam children scale with the divisor, floored so the wave mechanics
/// always exist. The paper's spammer activated 5,020 accounts among 151 M
/// transactions (0.003%); scaling the *accounts* linearly with transaction
/// volume would leave none, so we use a soft scale (251,000 / divisor ⇒ 251
/// at the default 1/1000) and note the substitution in the root README
/// ("Figure 2 methodology", the comparison record). The
/// activation-payment share of total throughput stays ≈0.1–0.3%.
pub fn spam_children(divisor: f64) -> u64 {
    ((251_000.0 / divisor) as u64).clamp(24, 5_020)
}
/// Myrone Bagalay's web (§4.3, Figure 11b).
pub const MYRONE_ISSUER: AccountId = AccountId(3000); // rKRNtZzfrk…
pub const MYRONE_TAKER: AccountId = AccountId(3001); // rMyronE…
pub const MYRONE_SELLER_A: AccountId = AccountId(3002); // rHVsygEm…
pub const MYRONE_SELLER_B: AccountId = AccountId(3003); // rU6m5F9c…
/// Big Huobi-cluster bots (Figure 8 top-4) and the smaller six.
pub const BOT_BASE: u64 = 1000;
pub const BIG_BOTS: u64 = 4;
pub const SMALL_BOTS: u64 = 6;
/// Unrated high-volume fiat issuers ("shadow" gateways).
pub const SHADOW_USD: AccountId = AccountId(140);
pub const SHADOW_EUR: AccountId = AccountId(141);
/// Gateway-side market makers (descendants of their gateways).
pub const MAKER_BASE: u64 = 150;
pub const USER_BASE: u64 = 10_000;
pub const USERS: u64 = 2_000;
/// The Huobi destination tag the paper flags (§3.3).
pub const HUOBI_TAG: u32 = 104_398;

/// Usernames as the XRP Scan registry would report them (§3.1).
pub fn known_usernames() -> Vec<(AccountId, &'static str)> {
    vec![
        (RIPPLE, "Ripple"),
        (RIPPLE_ESCROW, "Ripple"),
        (BINANCE, "Binance"),
        (HUOBI, "Huobi Global"),
        (BITTREX, "Bittrex"),
        (UPBIT, "UPbit"),
        (BITSTAMP, "Bitstamp"),
        (BITHUMB, "Bithumb"),
        (COINBASE, "Coinbase"),
        (BITGO, "BitGo"),
        (LIQUID, "Liquid"),
        (UPHOLD, "Uphold"),
        (GATEHUB_FIFTH, "Gatehub Fifth"),
        (UPK, "UPK"),
        (BTC2RIPPLE, "BTC 2 Ripple"),
        (CNY_GATEWAY, "CNY Gateway"),
    ]
}

// ---- daily rates (unscaled; Figure 1 & §3 derived) --------------------------

const BIG_BOT_OFFERS_PER_DAY: f64 = 122_800.0;
const SMALL_BOT_OFFERS_PER_DAY: f64 = 25_400.0;
const MISC_OFFERS_PER_DAY: f64 = 183_000.0;
const OFFER_CANCELS_PER_DAY: f64 = 25_000.0;
const FAILED_OFFERS_PER_DAY: f64 = 43_500.0;
const FAILED_PAYMENTS_PER_DAY: f64 = 132_600.0;
const TRUSTSET_PER_DAY: f64 = 30_700.0;
const ACCOUNTSET_PER_DAY: f64 = 1_298.0;
const SIGNERLIST_PER_DAY: f64 = 146.0;
const SETREGKEY_PER_DAY: f64 = 5.0;
const ESCROW_CREATE_PER_DAY: f64 = 4.0;
const ESCROW_FINISH_PER_DAY: f64 = 2.0;
const ESCROW_CANCEL_PER_DAY: f64 = 0.38;
const PAYCHAN_CREATE_PER_DAY: f64 = 0.33;
const PAYCHAN_CLAIM_PER_DAY: f64 = 1.3;
const SHADOW_FIAT_PAYMENTS_PER_DAY: f64 = 600.0;
/// Spam-wave payment rates (§4.3): wave 1 late Oct, wave 2 late Nov.
const WAVE1_PER_DAY: f64 = 1_400_000.0;
const WAVE2_PER_DAY: f64 = 1_800_000.0;

/// Exchange XRP senders: (account, sends/day, XRP volume/day).
const EXCHANGE_FLOWS: &[(AccountId, f64, f64)] = &[
    (BINANCE, 3_500.0, 56_500_000.0),
    (BITTREX, 2_500.0, 27_000_000.0),
    (UPBIT, 2_200.0, 25_000_000.0),
    (BITGO_DESC, 1_500.0, 21_700_000.0),
    (BITSTAMP, 1_600.0, 19_600_000.0),
    (HUOBI_DESC, 1_200.0, 17_400_000.0),
    (BITHUMB, 1_100.0, 16_300_000.0),
    (COINBASE, 1_000.0, 13_000_000.0),
    (LIQUID_DESC, 700.0, 10_900_000.0),
    (UPK, 500.0, 8_700_000.0),
];
/// Generic user XRP payments: count/day and volume/day.
const USER_XRP_PAYMENTS_PER_DAY: f64 = 19_000.0;
const USER_XRP_VOLUME_PER_DAY: f64 = 180_000_000.0;

/// DEX maker/taker trade pairs per currency: (maker, taker-pool, currency
/// ticker, issuer, trades/day, XRP volume/day, XRP rate per whole unit).
struct TradeSpec {
    maker: AccountId,
    currency: &'static str,
    issuer: AccountId,
    trades_per_day: f64,
    xrp_volume_per_day: f64,
    rate: f64,
}

fn trade_specs() -> Vec<TradeSpec> {
    vec![
        TradeSpec { maker: AccountId(MAKER_BASE), currency: "USD", issuer: BITSTAMP, trades_per_day: 600.0, xrp_volume_per_day: 9_200_000.0, rate: 4.9 },
        TradeSpec { maker: AccountId(MAKER_BASE + 1), currency: "EUR", issuer: GATEHUB_FIFTH, trades_per_day: 30.0, xrp_volume_per_day: 210_000.0, rate: 5.4 },
        TradeSpec { maker: AccountId(MAKER_BASE + 2), currency: "CNY", issuer: CNY_GATEWAY, trades_per_day: 60.0, xrp_volume_per_day: 110_000.0, rate: 0.7 },
        TradeSpec { maker: AccountId(MAKER_BASE + 3), currency: "BTC", issuer: BITSTAMP, trades_per_day: 20.0, xrp_volume_per_day: 2_000_000.0, rate: 36_050.0 },
        TradeSpec { maker: AccountId(MAKER_BASE + 4), currency: "BTC", issuer: GATEHUB_FIFTH, trades_per_day: 15.0, xrp_volume_per_day: 1_400_000.0, rate: 35_817.0 },
        TradeSpec { maker: AccountId(MAKER_BASE + 5), currency: "BTC", issuer: BTC2RIPPLE, trades_per_day: 5.0, xrp_volume_per_day: 40_000.0, rate: 409.0 },
        TradeSpec { maker: AccountId(MAKER_BASE + 6), currency: "BTC", issuer: AccountId(142), trades_per_day: 2.0, xrp_volume_per_day: 50.0, rate: 1.0 },
    ]
}

fn xrp(whole: f64) -> Amount {
    Amount::xrp_drops((whole * DROPS_PER_XRP as f64).max(1.0) as i64)
}

fn iou(currency: &str, issuer: AccountId, whole: f64) -> Amount {
    Amount::iou(currency, issuer, (whole * IOU_UNIT as f64).max(1.0) as i128)
}

const FEE: i64 = 10;

fn in_wave1(t: ChainTime) -> bool {
    t >= ChainTime::from_ymd(2019, 10, 23) && t < ChainTime::from_ymd(2019, 11, 8)
}

fn in_wave2(t: ChainTime) -> bool {
    t >= ChainTime::from_ymd(2019, 11, 24) && t < ChainTime::from_ymd(2019, 12, 10)
}

/// Mean-preserving jitter in [0.5, 1.5).
fn jitter(rng: &mut StdRng) -> f64 {
    0.5 + rng.gen::<f64>()
}

fn setup(ledger: &mut XrpLedger) {
    // Treasury and exchanges.
    ledger.bootstrap_account(RIPPLE, 500_000_000 * DROPS_PER_XRP, None);
    ledger.bootstrap_account(RIPPLE_ESCROW, 10_000_000 * DROPS_PER_XRP, Some(RIPPLE));
    for (acct, _, vol) in EXCHANGE_FLOWS {
        // Fund ~3 months of outflow plus reserves.
        let parent = match *acct {
            BITGO_DESC => Some(BITGO),
            HUOBI_DESC => Some(HUOBI),
            LIQUID_DESC => Some(LIQUID),
            _ => None,
        };
        if matches!(*acct, BITGO_DESC | HUOBI_DESC | LIQUID_DESC) {
            // Parent exchanges exist first.
        }
        let drops = (*vol * 100.0) as i64 * DROPS_PER_XRP;
        if ledger.account(*acct).is_none() {
            ledger.bootstrap_account(*acct, drops, parent);
        }
    }
    // Parent exchanges not in the flow table.
    for acct in [HUOBI, BITGO, LIQUID, UPHOLD, UPBIT_DESC] {
        if ledger.account(acct).is_none() {
            let parent = if acct == UPBIT_DESC { Some(UPBIT) } else { None };
            ledger.bootstrap_account(acct, 50_000_000 * DROPS_PER_XRP, parent);
        }
    }
    // Gateways & shadow issuers.
    for acct in [GATEHUB_FIFTH, BTC2RIPPLE, CNY_GATEWAY, SHADOW_USD, SHADOW_EUR, AccountId(142)] {
        if ledger.account(acct).is_none() {
            ledger.bootstrap_account(acct, 1_000_000 * DROPS_PER_XRP, None);
        }
    }
    // Huobi bots: descendants of Huobi (Figure 8 pattern).
    for i in 0..(BIG_BOTS + SMALL_BOTS) {
        ledger.bootstrap_account(AccountId(BOT_BASE + i), 5_000_000 * DROPS_PER_XRP, Some(HUOBI));
    }
    // Makers: descendants of their gateways, stocked with IOU inventory.
    for (i, spec) in trade_specs().iter().enumerate() {
        let m = AccountId(MAKER_BASE + i as u64);
        ledger.bootstrap_account(m, 10_000_000 * DROPS_PER_XRP, Some(spec.issuer));
        let inventory_whole = (spec.xrp_volume_per_day / spec.rate) * 120.0;
        ledger.bootstrap_iou(
            m,
            IssuedCurrency::new(spec.currency, spec.issuer),
            (inventory_whole * IOU_UNIT as f64) as i128,
        );
    }
    // Spammer + Myrone web.
    ledger.bootstrap_account(SPAMMER, 1_100_000 * DROPS_PER_XRP, None);
    ledger.bootstrap_account(MYRONE_ISSUER, 30_000 * DROPS_PER_XRP, Some(LIQUID));
    ledger.bootstrap_account(MYRONE_TAKER, 40_000_000 * DROPS_PER_XRP, Some(UPHOLD));
    ledger.bootstrap_account(MYRONE_SELLER_A, 30_000 * DROPS_PER_XRP, Some(MYRONE_TAKER));
    ledger.bootstrap_account(MYRONE_SELLER_B, 30_000 * DROPS_PER_XRP, Some(MYRONE_TAKER));
    // Myrone sellers hold the issuer's BTC (received "through payments from
    // the offer taker" per §4.3 — bootstrapped as inventory here).
    for seller in [MYRONE_SELLER_A, MYRONE_SELLER_B] {
        ledger.bootstrap_iou(seller, IssuedCurrency::new("BTC", MYRONE_ISSUER), 10 * IOU_UNIT);
    }
    // Taker must trust the Myrone BTC to receive the conspicuous payment.
    ledger.bootstrap_iou(MYRONE_TAKER, IssuedCurrency::new("BTC", MYRONE_ISSUER), IOU_UNIT);
    // Regular users.
    for i in 0..USERS {
        ledger.bootstrap_account(AccountId(USER_BASE + i), 60_000 * DROPS_PER_XRP, None);
    }
    // A slice of users hold shadow fiat IOUs (high-volume, never traded).
    for i in 0..200 {
        let u = AccountId(USER_BASE + i);
        ledger.bootstrap_iou(u, IssuedCurrency::new("USD", SHADOW_USD), 40_000_000 * IOU_UNIT);
        ledger.bootstrap_iou(u, IssuedCurrency::new("EUR", SHADOW_EUR), 50_000_000 * IOU_UNIT);
    }
    // And a slice hold rated gateway fiat (the valuable flows).
    for i in 200..400 {
        let u = AccountId(USER_BASE + i);
        ledger.bootstrap_iou(u, IssuedCurrency::new("USD", BITSTAMP), 1_000_000 * IOU_UNIT);
        ledger.bootstrap_iou(u, IssuedCurrency::new("EUR", GATEHUB_FIFTH), 20_000 * IOU_UNIT);
        ledger.bootstrap_iou(u, IssuedCurrency::new("CNY", CNY_GATEWAY), 100_000 * IOU_UNIT);
    }
    // Pre-window Ripple escrows that will be released Nov 1 / Dec 1.
    let nov1 = ChainTime::from_ymd(2019, 11, 1);
    let dec1 = ChainTime::from_ymd(2019, 12, 1);
    for (when, _i) in [(nov1, 0), (dec1, 1)] {
        let tx = Transaction::new(
            RIPPLE_ESCROW,
            TxPayload::EscrowCreate {
                destination: RIPPLE,
                drops: 1_000_000 * DROPS_PER_XRP,
                finish_after: when,
                cancel_after: None,
            },
            FEE,
        );
        ledger
            .submit(tx, ledger.config.genesis_time)
            .expect("escrow bootstrap");
    }
    // Drain the bootstrap escrow txs into a pre-window ledger so they do
    // not pollute the observation window.
    ledger.close_ledger();
}

/// Escrow ids created during setup (first two objects).
const ESCROW_NOV: u64 = 1;
const ESCROW_DEC: u64 = 2;

struct WaveState {
    children_target: u64,
    children_activated: u64,
    escrow_nov_done: bool,
    escrow_dec_done: bool,
    myrone_events_done: [bool; 4],
    amendment_done: bool,
}

impl WaveState {
    fn all_children_active(&self) -> bool {
        self.children_activated >= self.children_target
    }
}

/// Activate a chunk of spam children: funding payment (199 XRP), trust
/// line to the spammer's BTC, and initial IOU issuance (§4.3).
fn activate_children(ledger: &mut XrpLedger, now: ChainTime, state: &mut WaveState, count: u64) {
    let from = state.children_activated;
    let to = (from + count).min(state.children_target);
    for i in from..to {
        let child = AccountId(SPAM_CHILD_BASE + i);
        let _ = ledger.submit(
            Transaction::new(
                SPAMMER,
                TxPayload::Payment { destination: child, amount: xrp(199.0), send_max: None },
                FEE,
            ),
            now,
        );
        let _ = ledger.submit(
            Transaction::new(
                child,
                TxPayload::TrustSet {
                    currency: IssuedCurrency::new("BTC", SPAMMER),
                    limit: 1_000_000_000 * IOU_UNIT,
                },
                FEE,
            ),
            now,
        );
        let _ = ledger.submit(
            Transaction::new(
                SPAMMER,
                TxPayload::Payment {
                    destination: child,
                    amount: iou("BTC", SPAMMER, 1_000.0),
                    send_max: None,
                },
                FEE,
            ),
            now,
        );
    }
    state.children_activated = to;
}

#[allow(clippy::too_many_lines)]
fn gen_close_txs(
    sc: &Scenario,
    rng: &mut StdRng,
    ledger: &mut XrpLedger,
    now: ChainTime,
    state: &mut WaveState,
    user_zipf: &Zipf,
) {
    let per = |daily: f64| Scenario::per_block(daily, sc.xrp_divisor, sc.xrp_close_secs);
    let user = |rng: &mut StdRng| AccountId(USER_BASE + user_zipf.sample(rng) as u64);
    let submit = |l: &mut XrpLedger, tx: Transaction| {
        let _ = l.submit(tx, now);
    };

    // ---- one-shot events -----------------------------------------------
    // §4.3: the spammer activates its children over the week of Oct 9–16,
    // ~199 XRP each.
    if !state.all_children_active() && now >= ChainTime::from_ymd(2019, 10, 9) {
        let closes_per_week = (7 * 86_400 / sc.xrp_close_secs).max(1) as u64;
        let chunk = (state.children_target / closes_per_week).max(1) + 1;
        activate_children(ledger, now, state, chunk);
    }
    if !state.escrow_nov_done && now >= ChainTime::from_ymd(2019, 11, 1) {
        run_escrow_cycle(ledger, now, ESCROW_NOV);
        state.escrow_nov_done = true;
    }
    if !state.escrow_dec_done && now >= ChainTime::from_ymd(2019, 12, 1) {
        run_escrow_cycle(ledger, now, ESCROW_DEC);
        state.escrow_dec_done = true;
    }
    if !state.amendment_done && now >= ChainTime::from_ymd(2019, 11, 15) {
        submit(
            ledger,
            Transaction::new(
                AccountId::ACCOUNT_ZERO,
                TxPayload::EnableAmendment { amendment: "fixCheckThreading".into() },
                0,
            ),
        );
        // Pseudo-transactions come from ACCOUNT_ZERO which has no root; use
        // genesis instead for inclusion.
        state.amendment_done = true;
    }
    // Myrone saga (Figure 11b): the conspicuous payment + three self-dealt
    // exchanges at collapsing rates.
    let myrone_events: [(ChainTime, f64, f64, AccountId); 3] = [
        (ChainTime::from_ymd(2019, 12, 14), 1.0, 30_500.0, MYRONE_SELLER_A),
        (ChainTime::from_ymd(2019, 12, 28), 0.5, 1.0, MYRONE_SELLER_B),
        (ChainTime::from_ymd(2019, 12, 30), 0.5, 0.1, MYRONE_SELLER_B),
    ];
    for (i, (when, btc, rate, seller)) in myrone_events.iter().enumerate() {
        if !state.myrone_events_done[i] && now >= *when {
            // Seller offers BTC for XRP at the chosen rate…
            submit(
                ledger,
                Transaction::new(
                    *seller,
                    TxPayload::OfferCreate {
                        gets: iou("BTC", MYRONE_ISSUER, *btc),
                        pays: xrp(btc * rate),
                    },
                    FEE,
                ),
            );
            // …and the taker (same person) crosses it.
            submit(
                ledger,
                Transaction::new(
                    MYRONE_TAKER,
                    TxPayload::OfferCreate {
                        gets: xrp(btc * rate),
                        pays: iou("BTC", MYRONE_ISSUER, *btc),
                    },
                    FEE,
                ),
            );
            state.myrone_events_done[i] = true;
        }
    }
    if !state.myrone_events_done[3] && now >= ChainTime::from_ymd(2019, 12, 15) {
        // The conspicuous payment: issuer → taker, 360 BTC (scaled from
        // 360,222), valued at the just-established 30,500 XRP rate.
        submit(
            ledger,
            Transaction::new(
                MYRONE_ISSUER,
                TxPayload::Payment {
                    destination: MYRONE_TAKER,
                    amount: iou("BTC", MYRONE_ISSUER, 360.0),
                    send_max: None,
                },
                FEE,
            ),
        );
        state.myrone_events_done[3] = true;
    }

    // ---- recurring behaviours ------------------------------------------

    // Huobi bots: ≥98% OfferCreate (far off-market, never crossing), a few
    // cancels, and occasional tagged payments back to Huobi.
    let cny = IssuedCurrency::new("CNY", CNY_GATEWAY);
    for b in 0..(BIG_BOTS + SMALL_BOTS) {
        let bot = AccountId(BOT_BASE + b);
        let daily = if b < BIG_BOTS { BIG_BOT_OFFERS_PER_DAY } else { SMALL_BOT_OFFERS_PER_DAY };
        let n = poisson(rng, per(daily));
        for _ in 0..n {
            // Sell XRP at ~100× the real CNY rate: rests forever.
            let amount = 1_000.0 * jitter(rng);
            submit(
                ledger,
                Transaction::new(
                    bot,
                    TxPayload::OfferCreate {
                        gets: xrp(amount),
                        pays: iou("CNY", cny.issuer, amount / 0.7 * 100.0),
                    },
                    FEE,
                ),
            );
        }
        // Cancels ≈ 3.9% of offer rate (Figure 1's OfferCancel share).
        let n = poisson(rng, per(daily * 0.039));
        for _ in 0..n {
            if let Some(offer) = ledger.dex.oldest_offer_of(bot) {
                submit(ledger, Transaction::new(bot, TxPayload::OfferCancel { offer }, FEE));
            }
        }
        // ~1.5% payments, tagged 104398, to Huobi.
        let n = poisson(rng, per(daily * 0.015));
        for _ in 0..n {
            submit(
                ledger,
                Transaction::new(
                    bot,
                    TxPayload::Payment {
                        destination: HUOBI,
                        amount: xrp(500.0 * jitter(rng)),
                        send_max: None,
                    },
                    FEE,
                )
                .with_tag(HUOBI_TAG),
            );
        }
    }

    // Misc resting offers from users (rarely crossing).
    let n = poisson(rng, per(MISC_OFFERS_PER_DAY));
    for _ in 0..n {
        let u = user(rng);
        let amount = 100.0 * jitter(rng);
        submit(
            ledger,
            Transaction::new(
                u,
                TxPayload::OfferCreate {
                    gets: xrp(amount),
                    // Ask 3–10× the market rate for USD: rests unfilled.
                    pays: iou("USD", BITSTAMP, amount / 4.9 * (3.0 + 7.0 * rng.gen::<f64>())),
                },
                FEE,
            ),
        );
    }
    let n = poisson(rng, per(OFFER_CANCELS_PER_DAY * 0.2)); // bots carry most cancels
    for _ in 0..n {
        let u = user(rng);
        if let Some(offer) = ledger.dex.oldest_offer_of(u) {
            submit(ledger, Transaction::new(u, TxPayload::OfferCancel { offer }, FEE));
        }
    }

    // Deliberately unfunded offers (tecUNFUNDED_OFFER, Figure 7's failures).
    let n = poisson(rng, per(FAILED_OFFERS_PER_DAY));
    for _ in 0..n {
        let u = user(rng);
        submit(
            ledger,
            Transaction::new(
                u,
                TxPayload::OfferCreate {
                    // Promising a currency the account does not hold.
                    gets: iou("GKO", AccountId(999), 100.0),
                    pays: xrp(10.0),
                },
                FEE,
            ),
        );
    }

    // Failed payments: IOU paths that are dry (no trust line, no balance).
    let n = poisson(rng, per(FAILED_PAYMENTS_PER_DAY));
    for _ in 0..n {
        let u = user(rng);
        let dest = user(rng);
        submit(
            ledger,
            Transaction::new(
                u,
                TxPayload::Payment {
                    destination: dest,
                    amount: iou("JPY", AccountId(998), 50.0),
                    send_max: None,
                },
                FEE,
            ),
        );
    }

    // DEX maker/taker trades at calibrated rates (feeds the oracle). The
    // per-day rate is floored so rated currencies keep trading — and hence
    // keep a defined rate — even at extreme scenario divisors.
    for spec in trade_specs() {
        let floor = 0.34 * sc.xrp_close_secs as f64 / 86_400.0;
        let n = poisson(rng, per(spec.trades_per_day).max(floor));
        for _ in 0..n {
            let volume_xrp = spec.xrp_volume_per_day / spec.trades_per_day * jitter(rng);
            let units = volume_xrp / spec.rate;
            let rate = spec.rate * (0.98 + 0.04 * rng.gen::<f64>());
            submit(
                ledger,
                Transaction::new(
                    spec.maker,
                    TxPayload::OfferCreate {
                        gets: iou(spec.currency, spec.issuer, units),
                        pays: xrp(units * rate),
                    },
                    FEE,
                ),
            );
            let taker = user(rng);
            submit(
                ledger,
                Transaction::new(
                    taker,
                    TxPayload::OfferCreate {
                        gets: xrp(units * rate * 1.001),
                        pays: iou(spec.currency, spec.issuer, units),
                    },
                    FEE,
                ),
            );
        }
    }

    // Exchange XRP flows (Figure 12 magnitudes).
    let receivers: [(AccountId, f64); 8] = [
        (BINANCE, 0.25),
        (UPHOLD, 0.13),
        (HUOBI_DESC, 0.12),
        (BITHUMB, 0.11),
        (BITGO_DESC, 0.10),
        (BITSTAMP, 0.10),
        (COINBASE, 0.09),
        (UPBIT_DESC, 0.10),
    ];
    for (sender, sends_per_day, volume_per_day) in EXCHANGE_FLOWS {
        let n = poisson(rng, per(*sends_per_day));
        let mean_amount = volume_per_day / sends_per_day;
        for _ in 0..n {
            let mut u = rng.gen::<f64>();
            let mut dest = receivers[receivers.len() - 1].0;
            for (r, w) in receivers {
                u -= w;
                if u <= 0.0 {
                    dest = r;
                    break;
                }
            }
            if dest == *sender {
                dest = BINANCE;
                if *sender == BINANCE {
                    dest = BITHUMB;
                }
            }
            submit(
                ledger,
                Transaction::new(
                    *sender,
                    TxPayload::Payment {
                        destination: dest,
                        amount: xrp(mean_amount * jitter(rng)),
                        send_max: None,
                    },
                    FEE,
                ),
            );
        }
    }
    // User XRP payments.
    let n = poisson(rng, per(USER_XRP_PAYMENTS_PER_DAY));
    let mean_amount = USER_XRP_VOLUME_PER_DAY / USER_XRP_PAYMENTS_PER_DAY;
    for _ in 0..n {
        let from = user(rng);
        let mut to = user(rng);
        if to == from {
            to = BINANCE;
        }
        submit(
            ledger,
            Transaction::new(
                from,
                TxPayload::Payment { destination: to, amount: xrp(mean_amount * jitter(rng)), send_max: None },
                FEE,
            ),
        );
    }

    // Rated fiat IOU payments (the small valuable slice).
    for (currency, issuer, daily, mean_whole) in [
        ("USD", BITSTAMP, 400.0, 4_650.0),
        ("EUR", GATEHUB_FIFTH, 20.0, 1_630.0),
        ("CNY", CNY_GATEWAY, 30.0, 5_430.0),
    ] {
        let n = poisson(rng, per(daily));
        for _ in 0..n {
            let from = AccountId(USER_BASE + 200 + rng.gen_range(0..200u64));
            let mut to = AccountId(USER_BASE + 200 + rng.gen_range(0..200u64));
            if to == from {
                to = AccountId(USER_BASE + 200 + ((from.0 - USER_BASE - 200 + 1) % 200));
            }
            submit(
                ledger,
                Transaction::new(
                    from,
                    TxPayload::Payment {
                        destination: to,
                        amount: iou(currency, issuer, mean_whole * jitter(rng)),
                        send_max: None,
                    },
                    FEE,
                ),
            );
        }
    }
    // Shadow fiat IOU payments (huge nominal volume, no value).
    let n = poisson(rng, per(SHADOW_FIAT_PAYMENTS_PER_DAY));
    for _ in 0..n {
        let from = AccountId(USER_BASE + rng.gen_range(0..200u64));
        let mut to = AccountId(USER_BASE + rng.gen_range(0..200u64));
        if to == from {
            to = AccountId(USER_BASE + ((from.0 - USER_BASE + 1) % 200));
        }
        let (currency, issuer, mean) = if rng.gen::<bool>() {
            ("USD", SHADOW_USD, 38_000.0)
        } else {
            ("EUR", SHADOW_EUR, 50_000.0)
        };
        submit(
            ledger,
            Transaction::new(
                from,
                TxPayload::Payment {
                    destination: to,
                    amount: iou(currency, issuer, mean * jitter(rng)),
                    send_max: None,
                },
                FEE,
            ),
        );
    }

    // Spam waves: children shuffle worthless BTC IOUs (§4.3).
    let wave_rate = if in_wave1(now) {
        WAVE1_PER_DAY
    } else if in_wave2(now) {
        WAVE2_PER_DAY
    } else {
        0.0
    };
    if wave_rate > 0.0 && state.children_activated > 1 {
        let live = state.children_activated;
        let n = poisson(rng, per(wave_rate));
        for _ in 0..n {
            let a = AccountId(SPAM_CHILD_BASE + rng.gen_range(0..live));
            let mut b = AccountId(SPAM_CHILD_BASE + rng.gen_range(0..live));
            if b == a {
                b = AccountId(SPAM_CHILD_BASE + ((a.0 - SPAM_CHILD_BASE + 1) % live));
            }
            submit(
                ledger,
                Transaction::new(
                    a,
                    TxPayload::Payment {
                        destination: b,
                        amount: iou("BTC", SPAMMER, 0.5 * jitter(rng)),
                        send_max: None,
                    },
                    FEE,
                ),
            );
        }
    }

    // Account housekeeping (Figure 1's small rows).
    for _ in 0..poisson(rng, per(TRUSTSET_PER_DAY)) {
        let u = user(rng);
        let (currency, issuer) = if rng.gen::<f64>() < 0.5 {
            ("USD", BITSTAMP)
        } else {
            ("CNY", CNY_GATEWAY)
        };
        submit(
            ledger,
            Transaction::new(
                u,
                TxPayload::TrustSet {
                    currency: IssuedCurrency::new(currency, issuer),
                    limit: 1_000_000 * IOU_UNIT,
                },
                FEE,
            ),
        );
    }
    for _ in 0..poisson(rng, per(ACCOUNTSET_PER_DAY)) {
        submit(ledger, Transaction::new(user(rng), TxPayload::AccountSet { flags: 8 }, FEE));
    }
    for _ in 0..poisson(rng, per(SIGNERLIST_PER_DAY)) {
        submit(
            ledger,
            Transaction::new(
                user(rng),
                TxPayload::SignerListSet { quorum: 2, signer_count: 3 },
                FEE,
            ),
        );
    }
    for _ in 0..poisson(rng, per(SETREGKEY_PER_DAY)) {
        submit(ledger, Transaction::new(user(rng), TxPayload::SetRegularKey, FEE));
    }
    for _ in 0..poisson(rng, per(ESCROW_CREATE_PER_DAY)) {
        let u = user(rng);
        submit(
            ledger,
            Transaction::new(
                u,
                TxPayload::EscrowCreate {
                    destination: user(rng),
                    drops: 100 * DROPS_PER_XRP,
                    finish_after: now + 30 * 86_400,
                    cancel_after: Some(now + 90 * 86_400),
                },
                FEE,
            ),
        );
    }
    for _ in 0..poisson(rng, per(ESCROW_FINISH_PER_DAY)) {
        // Mostly targets long-gone escrows: recorded as tecNO_ENTRY.
        submit(
            ledger,
            Transaction::new(user(rng), TxPayload::EscrowFinish { escrow_id: rng.gen_range(3..1000) }, FEE),
        );
    }
    for _ in 0..poisson(rng, per(ESCROW_CANCEL_PER_DAY)) {
        submit(
            ledger,
            Transaction::new(user(rng), TxPayload::EscrowCancel { escrow_id: rng.gen_range(3..1000) }, FEE),
        );
    }
    for _ in 0..poisson(rng, per(PAYCHAN_CREATE_PER_DAY)) {
        submit(
            ledger,
            Transaction::new(
                user(rng),
                TxPayload::PaymentChannelCreate { destination: user(rng), drops: 50 * DROPS_PER_XRP },
                FEE,
            ),
        );
    }
    for _ in 0..poisson(rng, per(PAYCHAN_CLAIM_PER_DAY)) {
        submit(
            ledger,
            Transaction::new(
                user(rng),
                TxPayload::PaymentChannelClaim { channel_id: rng.gen_range(3..1000), drops: DROPS_PER_XRP },
                FEE,
            ),
        );
    }
}

/// Ripple's monthly cycle: finish the matured escrow (1 B release), return
/// 90% via a Payment to the treasury, which re-escrows it (§4.3).
fn run_escrow_cycle(ledger: &mut XrpLedger, now: ChainTime, escrow_id: u64) {
    let _ = ledger.submit(
        Transaction::new(RIPPLE, TxPayload::EscrowFinish { escrow_id }, FEE),
        now,
    );
    let _ = ledger.submit(
        Transaction::new(
            RIPPLE,
            TxPayload::Payment {
                destination: RIPPLE_ESCROW,
                amount: xrp(900_000.0),
                send_max: None,
            },
            FEE,
        ),
        now,
    );
    let _ = ledger.submit(
        Transaction::new(
            RIPPLE_ESCROW,
            TxPayload::EscrowCreate {
                destination: RIPPLE,
                drops: 900_000 * DROPS_PER_XRP,
                finish_after: now + 60 * 86_400,
                cancel_after: None,
            },
            FEE,
        ),
        now,
    );
    // The remaining 10% is distributed (OTC sales etc.).
    let _ = ledger.submit(
        Transaction::new(
            RIPPLE,
            TxPayload::Payment { destination: BITSTAMP, amount: xrp(100_000.0), send_max: None },
            FEE,
        ),
        now,
    );
}

/// Build the XRP ledger for a scenario.
pub fn build_xrp(sc: &Scenario) -> XrpLedger {
    let config = LedgerConfig {
        // Three closes of pre-window room so bootstrap ledgers (setup
        // escrows, possibly pre-activated spam children) close before the
        // observation window opens.
        genesis_time: sc.period.start + (-3 * sc.xrp_close_secs),
        close_interval_secs: sc.xrp_close_secs,
        start_index: 50_400_000,
        genesis_account: GENESIS,
        ..LedgerConfig::default()
    };
    let mut ledger = XrpLedger::new(config);
    setup(&mut ledger);
    let mut rng = rng_for(sc.seed, "workload/xrp");
    let user_zipf = Zipf::new(USERS as usize, 0.8);
    let mut state = WaveState {
        children_target: spam_children(sc.xrp_divisor),
        children_activated: 0,
        escrow_nov_done: false,
        escrow_dec_done: false,
        myrone_events_done: [false; 4],
        amendment_done: false,
    };
    // If the window opens after the activation week (Oct 9–16), the
    // children already exist: activate them in a pre-window ledger.
    if sc.period.start >= ChainTime::from_ymd(2019, 10, 17) {
        let genesis = ledger.config.genesis_time;
        activate_children(&mut ledger, genesis, &mut state, u64::MAX);
        ledger.close_ledger();
    }
    // Fast-forward empty ledgers so the next close lands at window start.
    while ledger.next_close_time() < sc.period.start {
        ledger.close_ledger();
    }
    let closes = sc.block_count(sc.xrp_close_secs);
    for _ in 0..closes {
        let now = ledger.next_close_time();
        gen_close_txs(sc, &mut rng, &mut ledger, now, &mut state, &user_zipf);
        ledger.close_ledger();
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use txstat_types::time::Period;
    use txstat_xrp::tx::{TxResult, TxType};

    fn tiny() -> Scenario {
        let mut sc = Scenario::small(11);
        sc.period = Period::new(ChainTime::from_ymd(2019, 10, 20), ChainTime::from_ymd(2019, 10, 28));
        sc.xrp_divisor = 20_000.0;
        sc
    }

    /// Ledgers in the observation window only.
    fn window_txs(l: &XrpLedger, sc: &Scenario) -> Vec<txstat_xrp::tx::AppliedTx> {
        l.closed_ledgers()
            .iter()
            .filter(|b| sc.period.contains(b.close_time))
            .flat_map(|b| b.transactions.clone())
            .collect()
    }

    #[test]
    fn offer_create_and_payment_dominate() {
        let sc = tiny();
        let l = build_xrp(&sc);
        let txs = window_txs(&l, &sc);
        assert!(txs.len() > 300, "window txs: {}", txs.len());
        let offers = txs.iter().filter(|t| t.tx.tx_type() == TxType::OfferCreate).count();
        let payments = txs.iter().filter(|t| t.tx.tx_type() == TxType::Payment).count();
        let share = (offers + payments) as f64 / txs.len() as f64;
        assert!(share > 0.80, "offer+payment share {share:.2}");
    }

    #[test]
    fn failures_present_with_paper_codes() {
        let sc = tiny();
        let l = build_xrp(&sc);
        let txs = window_txs(&l, &sc);
        let failed = txs.iter().filter(|t| !t.result.is_success()).count();
        let share = failed as f64 / txs.len() as f64;
        assert!((0.02..0.4).contains(&share), "failed share {share:.3} (paper: 0.107)");
        assert!(txs.iter().any(|t| t.result == TxResult::PathDry));
        assert!(txs.iter().any(|t| t.result == TxResult::UnfundedOffer));
    }

    #[test]
    fn spam_wave_spikes_payments() {
        let mut sc = tiny();
        sc.period = Period::new(ChainTime::from_ymd(2019, 10, 20), ChainTime::from_ymd(2019, 10, 27));
        sc.xrp_divisor = 5_000.0;
        let l = build_xrp(&sc);
        // Payments per close before and during wave 1 (starts Oct 23).
        let wave_start = ChainTime::from_ymd(2019, 10, 23);
        let (mut pre, mut pre_n, mut during, mut during_n) = (0u64, 0u64, 0u64, 0u64);
        for b in l.closed_ledgers() {
            if !sc.period.contains(b.close_time) {
                continue;
            }
            let pay = b.transactions.iter().filter(|t| t.tx.tx_type() == TxType::Payment).count() as u64;
            if b.close_time < wave_start {
                pre += pay;
                pre_n += 1;
            } else {
                during += pay;
                during_n += 1;
            }
        }
        let pre_rate = pre as f64 / pre_n.max(1) as f64;
        let during_rate = during as f64 / during_n.max(1) as f64;
        assert!(
            during_rate > 3.0 * pre_rate.max(1.0),
            "wave spike: pre {pre_rate:.1} during {during_rate:.1}"
        );
    }

    #[test]
    fn bots_are_offer_dominated_with_tag() {
        let sc = tiny();
        let l = build_xrp(&sc);
        let txs = window_txs(&l, &sc);
        let bot = AccountId(BOT_BASE);
        let bot_txs: Vec<_> = txs.iter().filter(|t| t.tx.account == bot).collect();
        assert!(bot_txs.len() > 20, "bot txs {}", bot_txs.len());
        let offers = bot_txs.iter().filter(|t| t.tx.tx_type() == TxType::OfferCreate).count();
        assert!(
            offers as f64 / bot_txs.len() as f64 > 0.9,
            "bot offer share {offers}/{}",
            bot_txs.len()
        );
        let tagged = txs
            .iter()
            .any(|t| t.tx.destination_tag == Some(HUOBI_TAG));
        assert!(tagged, "Huobi tag present");
        // Bots are Huobi descendants.
        assert_eq!(l.account(bot).unwrap().activated_by, Some(HUOBI));
    }

    #[test]
    fn oracle_rates_match_targets() {
        let mut sc = tiny();
        sc.period = Period::new(ChainTime::from_ymd(2019, 12, 1), ChainTime::from_ymd(2019, 12, 31));
        sc.xrp_divisor = 2_000.0;
        let l = build_xrp(&sc);
        let oracle = txstat_xrp::RateOracle::from_trades(
            &l.trades,
            ChainTime::from_ymd(2019, 12, 31),
            30,
        );
        let usd = oracle.rate(IssuedCurrency::new("USD", BITSTAMP)).expect("USD traded");
        assert!((4.0..6.0).contains(&usd), "USD rate {usd} (target 4.9)");
        let btc = oracle.rate(IssuedCurrency::new("BTC", BITSTAMP)).expect("BTC traded");
        assert!((30_000.0..42_000.0).contains(&btc), "BTC rate {btc} (target 36,050)");
        // Shadow issuers never trade: no value.
        assert!(!oracle.has_value(IssuedCurrency::new("USD", SHADOW_USD)));
        assert!(!oracle.has_value(IssuedCurrency::new("BTC", SPAMMER)));
    }

    #[test]
    fn escrow_cycle_runs() {
        let mut sc = tiny();
        sc.period = Period::new(ChainTime::from_ymd(2019, 10, 30), ChainTime::from_ymd(2019, 11, 3));
        let l = build_xrp(&sc);
        let finishes: Vec<_> = l
            .closed_ledgers()
            .iter()
            .flat_map(|b| &b.transactions)
            .filter(|t| t.tx.tx_type() == TxType::EscrowFinish && t.result.is_success())
            .collect();
        assert!(!finishes.is_empty(), "November escrow release happened");
        l.check_conservation().unwrap();
    }

    #[test]
    fn conservation_and_determinism() {
        let sc = tiny();
        let a = build_xrp(&sc);
        a.check_conservation().unwrap();
        let b = build_xrp(&sc);
        assert_eq!(a.tx_count(), b.tx_count());
        assert_eq!(a.fees_burned_drops, b.fees_burned_drops);
    }
}
