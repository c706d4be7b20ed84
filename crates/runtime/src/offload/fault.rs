//! The seeded fault-injection plan: which failure an attempt meets.
//!
//! [`FaultPlan::outcome`] is the public, name-keyed form. It goes through
//! [`FaultKey`], the plan resolved for one device, which is what the fold
//! holds per chain target: the rates (two map look-ups) and the
//! device-keyed seed word (one name hash) are found once, at
//! construction, instead of once per attempt.

use crate::error::{RuntimeError, RuntimeResult};
use everest_platform::LinkProfile;
use everest_workflow::seed::{fnv1a, mix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt;

/// One injected failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The transfer was dropped on the wire (detected by timeout).
    Drop,
    /// The call exceeded its deadline.
    Timeout,
    /// The device answered, but the result failed its integrity check.
    Corrupt,
    /// The device disappeared for good (node loss, shell crash).
    DeviceLoss,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Drop => "drop",
            FaultKind::Timeout => "timeout",
            FaultKind::Corrupt => "corrupt",
            FaultKind::DeviceLoss => "device-loss",
        })
    }
}

/// Per-key fault probabilities. Each is in `[0, 1]` and their sum must
/// not exceed 1 (they partition the outcome space of one attempt).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a transfer is dropped.
    pub drop: f64,
    /// Probability a call times out.
    pub timeout: f64,
    /// Probability the result comes back corrupted.
    pub corrupt: f64,
    /// Probability the device is lost permanently.
    pub device_loss: f64,
}

impl FaultRates {
    /// No injected faults.
    pub const NONE: FaultRates =
        FaultRates { drop: 0.0, timeout: 0.0, corrupt: 0.0, device_loss: 0.0 };

    fn validate(&self) -> RuntimeResult<()> {
        let parts = [self.drop, self.timeout, self.corrupt, self.device_loss];
        if parts.iter().any(|p| !(0.0..=1.0).contains(p)) || parts.iter().sum::<f64>() > 1.0 {
            return Err(RuntimeError::Config(format!("invalid fault rates {self:?}")));
        }
        Ok(())
    }
}

/// A seeded, deterministic fault-injection plan.
///
/// Rates resolve per key, most specific first: an exact device override,
/// then the device's [`LinkProfile`] name, then the plan default. The
/// outcome of any attempt is a pure function of
/// `(seed, device, invocation, attempt)` — independent of wall clock,
/// thread interleaving and evaluation order.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default_rates: FaultRates,
    overrides: BTreeMap<String, FaultRates>,
}

impl FaultPlan {
    /// The named profiles [`FaultPlan::from_profile`] understands.
    pub const PROFILES: [&'static str; 4] = ["none", "lossy", "flaky", "meltdown"];

    /// A plan applying `default_rates` to every target.
    ///
    /// # Errors
    ///
    /// Rejects rates outside `[0, 1]` or summing above 1.
    pub fn new(seed: u64, default_rates: FaultRates) -> RuntimeResult<FaultPlan> {
        default_rates.validate()?;
        Ok(FaultPlan { seed, default_rates, overrides: BTreeMap::new() })
    }

    /// A plan that injects nothing (the healthy baseline).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan { seed, default_rates: FaultRates::NONE, overrides: BTreeMap::new() }
    }

    /// A named scenario, parseable from the CLI:
    ///
    /// * `none` — no faults;
    /// * `lossy` — moderate drop/timeout/corruption on datacenter
    ///   TCP/UDP links, bus attachments clean;
    /// * `flaky` — heavy network faults including occasional device
    ///   loss, and a whiff of bus errors;
    /// * `meltdown` — every FPGA dies on first contact, forcing the CPU
    ///   fallback.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Config`] for an unrecognized name.
    pub fn from_profile(name: &str, seed: u64) -> RuntimeResult<FaultPlan> {
        let network = |drop, timeout, corrupt, device_loss| FaultRates {
            drop,
            timeout,
            corrupt,
            device_loss,
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "none" => Ok(FaultPlan::none(seed)),
            "lossy" => FaultPlan::none(seed)
                .with_rates(LinkProfile::TcpDatacenter.name(), network(0.15, 0.10, 0.05, 0.0))?
                .with_rates(LinkProfile::UdpDatacenter.name(), network(0.20, 0.05, 0.05, 0.0)),
            "flaky" => FaultPlan::none(seed)
                .with_rates(LinkProfile::TcpDatacenter.name(), network(0.30, 0.20, 0.10, 0.02))?
                .with_rates(LinkProfile::UdpDatacenter.name(), network(0.35, 0.15, 0.10, 0.02))?
                .with_rates(LinkProfile::OpenCapi.name(), network(0.02, 0.0, 0.01, 0.0)),
            "meltdown" => FaultPlan::new(seed, FaultRates { device_loss: 1.0, ..FaultRates::NONE }),
            other => Err(RuntimeError::Config(format!(
                "unknown fault profile '{other}' (expected one of: {})",
                FaultPlan::PROFILES.join(", ")
            ))),
        }
    }

    /// Overrides the rates for one key (a device name or a
    /// [`LinkProfile`] name).
    ///
    /// # Errors
    ///
    /// Rejects invalid rates, like [`FaultPlan::new`].
    pub(crate) fn with_rates(mut self, key: &str, rates: FaultRates) -> RuntimeResult<FaultPlan> {
        rates.validate()?;
        self.overrides.insert(key.to_owned(), rates);
        Ok(self)
    }

    /// The plan's seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Resolves the rates for a device, most specific key first.
    pub(crate) fn rates_for(&self, device: &str, profile: Option<LinkProfile>) -> FaultRates {
        if let Some(rates) = self.overrides.get(device) {
            return *rates;
        }
        if let Some(rates) = profile.and_then(|p| self.overrides.get(p.name())) {
            return *rates;
        }
        self.default_rates
    }

    /// Samples the outcome of one attempt: `None` is success. Pure in
    /// `(seed, device, invocation, attempt)`.
    pub fn outcome(
        &self,
        device: &str,
        profile: Option<LinkProfile>,
        invocation: u64,
        attempt: u32,
    ) -> Option<FaultKind> {
        self.key_for(device, profile).outcome(invocation, attempt)
    }

    /// Everything about `device` that [`FaultPlan::outcome`] looks up or
    /// hashes, resolved once. The fold keeps one per chain target.
    pub(super) fn key_for(&self, device: &str, profile: Option<LinkProfile>) -> FaultKey {
        let rates = self.rates_for(device, profile);
        FaultKey {
            rates,
            word: mix(self.seed ^ fnv1a(device)),
            armed: [rates.drop, rates.timeout, rates.corrupt, rates.device_loss]
                .iter()
                .any(|p| *p > 0.0),
        }
    }
}

/// A [`FaultPlan`] resolved for one device: its rates and the
/// device-keyed seed word, so sampling an attempt is arithmetic only —
/// no map look-up, no name hash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct FaultKey {
    rates: FaultRates,
    /// `mix(seed ^ fnv1a(device))`.
    word: u64,
    /// Whether any rate is positive. When none is, every threshold below
    /// is 0 and `draw < 0` never holds for a draw from `[0, 1)`, so the
    /// draw is skipped.
    armed: bool,
}

impl FaultKey {
    /// The key of a target that never faults (the local reference
    /// kernel).
    pub(super) const NEVER: FaultKey = FaultKey { rates: FaultRates::NONE, word: 0, armed: false };

    /// The outcome of attempt `attempt` of invocation `invocation` on
    /// this key's device.
    pub(super) fn outcome(&self, invocation: u64, attempt: u32) -> Option<FaultKind> {
        if !self.armed {
            return None;
        }
        let rates = &self.rates;
        let seed = self.word
            ^ mix(invocation.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(u64::from(attempt)));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let draw: f64 = rng.gen_range(0.0..1.0);
        let mut edge = rates.device_loss;
        if draw < edge {
            return Some(FaultKind::DeviceLoss);
        }
        edge += rates.drop;
        if draw < edge {
            return Some(FaultKind::Drop);
        }
        edge += rates.timeout;
        if draw < edge {
            return Some(FaultKind::Timeout);
        }
        edge += rates.corrupt;
        if draw < edge {
            return Some(FaultKind::Corrupt);
        }
        None
    }
}
