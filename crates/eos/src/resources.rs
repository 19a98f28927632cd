//! EOS resource model: CPU/NET staking, REX rentals, the RAM market, and the
//! elastic CPU limit whose collapse is the paper's EIDOS congestion story.
//!
//! EOS has no per-transaction fees (§2.4): accounts stake EOS for CPU/NET
//! bandwidth and buy RAM from a Bancor-style market. Under light load the
//! chain lets accounts burst far beyond their staked share ("greedy" mode,
//! up to a large elastic multiplier); when blocks run hot the multiplier
//! contracts toward 1 and every account is clamped to its staked share —
//! *congestion mode*. The EIDOS airdrop (§4.1) pushed the chain into
//! sustained congestion and made CPU rental prices spike ~10,000%.

use crate::name::Name;
use crate::types::AssetRaw;
use std::collections::HashMap;
use txstat_types::time::ChainTime;

/// Static parameters of the resource model.
#[derive(Debug, Clone)]
pub struct ResourceConfig {
    /// Sliding accounting window (mainnet: 24 h).
    pub window_secs: i64,
    /// Target CPU per block (µs); above this the elastic limit contracts.
    pub target_block_cpu_us: u64,
    /// Hard per-block CPU ceiling (µs).
    pub max_block_cpu_us: u64,
    /// Maximum elastic multiplier (mainnet: 1000×).
    pub max_multiplier: f64,
    /// Blocks per accounting window (depends on the scenario block interval).
    pub blocks_per_window: u64,
    /// Contraction ratio applied per hot block (mainnet: 99/100 per block).
    pub contract_ratio: f64,
    /// Expansion ratio applied per cool block (mainnet: 1000/999).
    pub expand_ratio: f64,
}

impl Default for ResourceConfig {
    fn default() -> Self {
        ResourceConfig {
            window_secs: 86_400,
            target_block_cpu_us: 200_000,
            max_block_cpu_us: 400_000,
            max_multiplier: 1000.0,
            blocks_per_window: 172_800, // 0.5 s blocks over 24 h
            contract_ratio: 0.99,
            expand_ratio: 1000.0 / 999.0,
        }
    }
}

/// Per-account decaying usage accumulator (linear window decay, like
/// eosio's `usage_accumulator`).
#[derive(Debug, Clone, Copy, Default)]
struct Usage {
    last: ChainTime,
    value_us: f64,
}

impl Usage {
    fn decayed(&self, now: ChainTime, window: i64) -> f64 {
        let dt = (now - self.last).max(0);
        if dt >= window {
            0.0
        } else {
            self.value_us * (window - dt) as f64 / window as f64
        }
    }

    fn add(&mut self, now: ChainTime, us: u64, window: i64) {
        self.value_us = self.decayed(now, window) + us as f64;
        self.last = now;
    }
}

/// An active REX CPU rental.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rental {
    pub receiver: Name,
    /// Stake-equivalent CPU weight granted by the rental.
    pub cpu_weight: u64,
    pub expires: ChainTime,
}

/// Errors from resource operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// The account exhausted its CPU allowance (tx_cpu_usage_exceeded).
    CpuExceeded { account: Name, used_us: u64, limit_us: u64 },
    NetExceeded { account: Name },
    InsufficientStake { account: Name },
    InsufficientRam { account: Name, need: u64, have: u64 },
    BadAmount,
}

impl std::fmt::Display for ResourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceError::CpuExceeded { account, used_us, limit_us } => write!(
                f,
                "tx_cpu_usage_exceeded: {account} used {used_us}us of {limit_us}us"
            ),
            ResourceError::NetExceeded { account } => write!(f, "net exceeded for {account}"),
            ResourceError::InsufficientStake { account } => {
                write!(f, "insufficient stake for {account}")
            }
            ResourceError::InsufficientRam { account, need, have } => {
                write!(f, "{account} needs {need} RAM bytes, has {have}")
            }
            ResourceError::BadAmount => write!(f, "amount must be positive"),
        }
    }
}

impl std::error::Error for ResourceError {}

/// Bancor-style RAM market (`rammarket` on mainnet): a connector pair of
/// RAM bytes against EOS. Buying RAM raises its price; a 0.5% fee applies.
#[derive(Debug, Clone)]
pub struct RamMarket {
    pub ram_reserve_bytes: u64,
    pub eos_reserve: AssetRaw,
    /// Fee in basis points charged on the EOS side of buys/sells.
    pub fee_bps: u32,
}

impl RamMarket {
    pub fn new(ram_reserve_bytes: u64, eos_reserve: AssetRaw) -> Self {
        RamMarket { ram_reserve_bytes, eos_reserve, fee_bps: 50 }
    }

    /// Bytes received for `eos_in`; updates reserves.
    pub fn buy_bytes(&mut self, eos_in: AssetRaw) -> Result<u64, ResourceError> {
        if eos_in <= 0 {
            return Err(ResourceError::BadAmount);
        }
        let fee = eos_in * self.fee_bps as i64 / 10_000;
        let net_in = eos_in - fee;
        let out = (self.ram_reserve_bytes as i128 * net_in as i128
            / (self.eos_reserve as i128 + net_in as i128)) as u64;
        self.eos_reserve += net_in;
        self.ram_reserve_bytes -= out;
        Ok(out)
    }

    /// EOS received for selling `bytes`; updates reserves.
    pub fn sell_bytes(&mut self, bytes: u64) -> Result<AssetRaw, ResourceError> {
        if bytes == 0 {
            return Err(ResourceError::BadAmount);
        }
        let gross = (self.eos_reserve as i128 * bytes as i128
            / (self.ram_reserve_bytes as i128 + bytes as i128)) as AssetRaw;
        let fee = gross * self.fee_bps as i64 / 10_000;
        self.ram_reserve_bytes += bytes;
        self.eos_reserve -= gross;
        Ok(gross - fee)
    }

    /// Marginal price in EOS sub-units per byte (×10⁴ fixed point of the
    /// connector ratio).
    #[cfg(test)]
    fn price_per_kib(&self) -> f64 {
        self.eos_reserve as f64 / self.ram_reserve_bytes as f64 * 1024.0
    }
}

/// The chain-wide resource state.
#[derive(Debug, Clone)]
pub struct ResourceState {
    pub cfg: ResourceConfig,
    /// Elastic CPU multiplier, in `[1, max_multiplier]`.
    virtual_multiplier: f64,
    /// CPU-staked weight per receiver account (sub-units of EOS).
    cpu_stake: HashMap<Name, u64>,
    net_stake: HashMap<Name, u64>,
    total_cpu_stake: u64,
    rentals: Vec<Rental>,
    usage: HashMap<Name, Usage>,
    pub ram: RamMarket,
    ram_bytes: HashMap<Name, u64>,
    #[cfg(test)]
    ram_used: HashMap<Name, u64>,
}

impl ResourceState {
    pub fn new(cfg: ResourceConfig) -> Self {
        let virtual_multiplier = cfg.max_multiplier;
        ResourceState {
            cfg,
            virtual_multiplier,
            cpu_stake: HashMap::new(),
            net_stake: HashMap::new(),
            total_cpu_stake: 0,
            rentals: Vec::new(),
            usage: HashMap::new(),
            ram: RamMarket::new(64 * 1024 * 1024 * 1024, 10_000_000_0000),
            ram_bytes: HashMap::new(),
            #[cfg(test)]
            ram_used: HashMap::new(),
        }
    }

    // ---- staking -------------------------------------------------------

    pub fn delegate(&mut self, receiver: Name, net: AssetRaw, cpu: AssetRaw) -> Result<(), ResourceError> {
        if net < 0 || cpu < 0 || (net == 0 && cpu == 0) {
            return Err(ResourceError::BadAmount);
        }
        *self.cpu_stake.entry(receiver).or_insert(0) += cpu as u64;
        *self.net_stake.entry(receiver).or_insert(0) += net as u64;
        self.total_cpu_stake += cpu as u64;
        Ok(())
    }

    pub(crate) fn undelegate(&mut self, receiver: Name, net: AssetRaw, cpu: AssetRaw) -> Result<(), ResourceError> {
        if net < 0 || cpu < 0 || (net == 0 && cpu == 0) {
            return Err(ResourceError::BadAmount);
        }
        let c = self.cpu_stake.entry(receiver).or_insert(0);
        let n = self.net_stake.entry(receiver).or_insert(0);
        if *c < cpu as u64 || *n < net as u64 {
            return Err(ResourceError::InsufficientStake { account: receiver });
        }
        *c -= cpu as u64;
        *n -= net as u64;
        self.total_cpu_stake -= cpu as u64;
        Ok(())
    }

    /// REX `rentcpu`: the payment grants a stake-equivalent weight
    /// (10× leverage here, roughly mainnet's rental efficiency) for 30 days.
    pub(crate) fn rent_cpu(&mut self, receiver: Name, payment: AssetRaw, now: ChainTime) -> Result<(), ResourceError> {
        if payment <= 0 {
            return Err(ResourceError::BadAmount);
        }
        self.rentals.push(Rental {
            receiver,
            cpu_weight: payment as u64 * 10,
            expires: now + 30 * 86_400,
        });
        Ok(())
    }

    pub(crate) fn cpu_staked(&self, account: Name) -> u64 {
        self.cpu_stake.get(&account).copied().unwrap_or(0)
    }

    fn rented_weight(&self, account: Name, now: ChainTime) -> u64 {
        self.rentals
            .iter()
            .filter(|r| r.receiver == account && r.expires.secs() > now.secs())
            .map(|r| r.cpu_weight)
            .sum()
    }

    // ---- CPU accounting --------------------------------------------------

    /// Chain CPU capacity per accounting window, µs (the guaranteed pool).
    fn window_cpu_us(&self) -> f64 {
        self.cfg.target_block_cpu_us as f64 * self.cfg.blocks_per_window as f64
    }

    /// The account's CPU allowance over the window, µs: its staked share of
    /// the window capacity, multiplied by the elastic multiplier. Relaxed
    /// chain (multiplier = max): accounts burst far beyond their guarantee;
    /// congestion (multiplier → 1): exactly the staked share (§4.1).
    pub(crate) fn cpu_limit_us(&self, account: Name, now: ChainTime) -> u64 {
        if self.total_cpu_stake == 0 {
            return 0;
        }
        let weight = self.cpu_staked(account) + self.rented_weight(account, now);
        (self.window_cpu_us() * weight as f64 / self.total_cpu_stake as f64
            * self.virtual_multiplier) as u64
    }

    /// Current decayed usage, µs.
    pub fn cpu_used_us(&self, account: Name, now: ChainTime) -> u64 {
        self.usage
            .get(&account)
            .map(|u| u.decayed(now, self.cfg.window_secs) as u64)
            .unwrap_or(0)
    }

    /// Bill `us` of CPU to `account`; fails with `CpuExceeded` if the
    /// account is over its allowance.
    pub fn charge_cpu(&mut self, account: Name, us: u64, now: ChainTime) -> Result<(), ResourceError> {
        let limit = self.cpu_limit_us(account, now);
        let used = self.cpu_used_us(account, now);
        if used + us > limit {
            return Err(ResourceError::CpuExceeded { account, used_us: used + us, limit_us: limit });
        }
        self.usage
            .entry(account)
            .or_default()
            .add(now, us, self.cfg.window_secs);
        Ok(())
    }

    /// Elastic-limit controller, called once per produced block with the
    /// block's total CPU usage.
    pub fn on_block(&mut self, block_cpu_us: u64) {
        if block_cpu_us > self.cfg.target_block_cpu_us {
            self.virtual_multiplier = (self.virtual_multiplier * self.cfg.contract_ratio).max(1.0);
        } else {
            self.virtual_multiplier =
                (self.virtual_multiplier * self.cfg.expand_ratio).min(self.cfg.max_multiplier);
        }
    }

    /// Congestion mode: the elastic multiplier has collapsed to ~1×, so
    /// accounts can only use their staked share.
    pub fn congested(&self) -> bool {
        self.virtual_multiplier <= 1.0 + 1e-9
    }

    #[cfg(test)]
    fn multiplier(&self) -> f64 {
        self.virtual_multiplier
    }

    /// Relative CPU price index: 1.0 when fully relaxed; equals
    /// `max_multiplier` (e.g. 1000×) when fully congested. The paper reports
    /// the EIDOS launch spiking CPU prices by ~10,000%.
    pub(crate) fn cpu_price_index(&self) -> f64 {
        self.cfg.max_multiplier / self.virtual_multiplier
    }

    // ---- RAM -------------------------------------------------------------

    pub(crate) fn buy_ram_eos(
        &mut self,
        receiver: Name,
        eos_in: AssetRaw,
    ) -> Result<u64, ResourceError> {
        let bytes = self.ram.buy_bytes(eos_in)?;
        *self.ram_bytes.entry(receiver).or_insert(0) += bytes;
        Ok(bytes)
    }

    pub fn grant_ram(&mut self, receiver: Name, bytes: u64) {
        *self.ram_bytes.entry(receiver).or_insert(0) += bytes;
    }

    #[cfg(test)]
    fn use_ram(&mut self, account: Name, bytes: u64) -> Result<(), ResourceError> {
        let quota = self.ram_bytes.get(&account).copied().unwrap_or(0);
        let used = self.ram_used.entry(account).or_insert(0);
        if *used + bytes > quota {
            return Err(ResourceError::InsufficientRam { account, need: *used + bytes, have: quota });
        }
        *used += bytes;
        Ok(())
    }

    #[cfg(test)]
    pub(crate) fn ram_quota(&self, account: Name) -> u64 {
        self.ram_bytes.get(&account).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_small() -> ResourceConfig {
        ResourceConfig {
            window_secs: 1000,
            target_block_cpu_us: 1000,
            max_block_cpu_us: 2000,
            max_multiplier: 100.0,
            blocks_per_window: 100,
            contract_ratio: 0.5,
            expand_ratio: 1.1,
        }
    }

    fn now() -> ChainTime {
        ChainTime::from_ymd(2019, 10, 1)
    }

    #[test]
    fn stake_and_limits() {
        let mut r = ResourceState::new(cfg_small());
        r.delegate(Name::new("alice"), 0, 100).unwrap();
        r.delegate(Name::new("bob"), 0, 300).unwrap();
        let la = r.cpu_limit_us(Name::new("alice"), now());
        let lb = r.cpu_limit_us(Name::new("bob"), now());
        assert_eq!(lb, la * 3, "limits proportional to stake");
        assert!(la > 0);
    }

    #[test]
    fn charge_and_decay() {
        let mut r = ResourceState::new(cfg_small());
        r.delegate(Name::new("alice"), 0, 100).unwrap();
        let t0 = now();
        let limit = r.cpu_limit_us(Name::new("alice"), t0);
        r.charge_cpu(Name::new("alice"), limit, t0).unwrap();
        // Fully used: next charge fails.
        assert!(matches!(
            r.charge_cpu(Name::new("alice"), 1, t0),
            Err(ResourceError::CpuExceeded { .. })
        ));
        // After half a window, half the usage has decayed.
        let t1 = t0 + 500;
        let used = r.cpu_used_us(Name::new("alice"), t1);
        assert!((used as i64 - (limit / 2) as i64).abs() <= 1, "used={used} limit={limit}");
        r.charge_cpu(Name::new("alice"), limit / 4, t1).unwrap();
        // After a full window from t0 the old usage is gone.
        let t2 = t0 + 1500;
        assert!(r.cpu_used_us(Name::new("alice"), t2) < limit / 2);
    }

    #[test]
    fn congestion_flips_under_sustained_load() {
        let mut r = ResourceState::new(cfg_small());
        assert!(!r.congested());
        assert_eq!(r.multiplier(), 100.0);
        for _ in 0..20 {
            r.on_block(1500); // hot blocks
        }
        assert!(r.congested(), "multiplier={}", r.multiplier());
        assert!(r.cpu_price_index() >= 99.0);
        // Recovery under cool blocks.
        for _ in 0..100 {
            r.on_block(100);
        }
        assert!(!r.congested());
        // The §4.1 responsiveness knob at mainnet scale: hot blocks collapse
        // the relaxed 1000× limit after ⌈ln 1000 / −ln ratio⌉ of them.
        for (ratio, flip_after) in [(0.99, 688), (0.97, 227), (0.92, 83)] {
            let mut r =
                ResourceState::new(ResourceConfig { contract_ratio: ratio, ..Default::default() });
            let flipped = (1..=10_000).find(|_| {
                r.on_block(10_000_000);
                r.congested()
            });
            assert_eq!(flipped, Some(flip_after), "contract_ratio {ratio}");
        }
    }

    #[test]
    fn congestion_shrinks_limits() {
        let mut r = ResourceState::new(cfg_small());
        r.delegate(Name::new("alice"), 0, 100).unwrap();
        let before = r.cpu_limit_us(Name::new("alice"), now());
        for _ in 0..20 {
            r.on_block(1500);
        }
        let after = r.cpu_limit_us(Name::new("alice"), now());
        assert!(after < before / 50, "before={before} after={after}");
    }

    #[test]
    fn rental_extends_limit_until_expiry() {
        let mut r = ResourceState::new(cfg_small());
        r.delegate(Name::new("alice"), 0, 100).unwrap();
        let base = r.cpu_limit_us(Name::new("alice"), now());
        r.rent_cpu(Name::new("alice"), 10, now()).unwrap();
        let with_rental = r.cpu_limit_us(Name::new("alice"), now());
        assert!(with_rental > base);
        let after_expiry = r.cpu_limit_us(Name::new("alice"), now() + 31 * 86_400);
        assert_eq!(after_expiry, base);
    }

    #[test]
    fn undelegate_checks_balance() {
        let mut r = ResourceState::new(cfg_small());
        r.delegate(Name::new("a"), 10, 10).unwrap();
        assert!(r.undelegate(Name::new("a"), 0, 20).is_err());
        r.undelegate(Name::new("a"), 10, 10).unwrap();
        assert_eq!(r.cpu_staked(Name::new("a")), 0);
    }

    #[test]
    fn ram_market_price_moves() {
        let mut m = RamMarket::new(1_000_000, 1_000_0000);
        let p0 = m.price_per_kib();
        let bytes = m.buy_bytes(100_0000).unwrap();
        assert!(bytes > 0);
        let p1 = m.price_per_kib();
        assert!(p1 > p0, "buying RAM raises price");
        // Selling everything back never mints EOS (fees burn value).
        let eos_back = m.sell_bytes(bytes).unwrap();
        assert!(eos_back < 100_0000);
    }

    #[test]
    fn ram_quota_enforced() {
        let mut r = ResourceState::new(cfg_small());
        r.grant_ram(Name::new("a"), 100);
        r.use_ram(Name::new("a"), 60).unwrap();
        assert!(matches!(
            r.use_ram(Name::new("a"), 50),
            Err(ResourceError::InsufficientRam { .. })
        ));
        r.use_ram(Name::new("a"), 40).unwrap();
    }
}
