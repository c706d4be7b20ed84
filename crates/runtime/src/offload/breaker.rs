//! Recovery policy per target: capped, jittered retry backoff and the
//! three-state circuit breaker.

use everest_workflow::seed::{fnv1a, mix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Retry/backoff configuration for one offload target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per target before falling back (>= 1).
    pub max_attempts: u32,
    /// Deadline charged to a dropped or timed-out attempt, microseconds.
    pub timeout_us: f64,
    /// First backoff, microseconds.
    pub base_us: f64,
    /// Multiplier between consecutive backoffs.
    pub factor: f64,
    /// Backoff ceiling, microseconds.
    pub cap_us: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            timeout_us: 2_000.0,
            base_us: 200.0,
            factor: 2.0,
            cap_us: 5_000.0,
        }
    }
}

impl RetryPolicy {
    /// The un-jittered backoff before retry number `attempt` (1-based):
    /// `base * factor^(attempt-1)`, capped. Non-decreasing in `attempt`.
    pub fn nominal_backoff_us(&self, attempt: u32) -> f64 {
        (self.base_us * self.factor.powi(attempt.saturating_sub(1) as i32)).min(self.cap_us)
    }

    /// The jittered backoff: deterministic "equal jitter" in
    /// `[nominal/2, nominal)`, derived from `(seed, device, invocation,
    /// attempt)` so schedules replay bit-identically per seed.
    pub fn backoff_us(&self, seed: u64, device: &str, invocation: u64, attempt: u32) -> f64 {
        self.keyed_backoff_us(backoff_key(seed, device), invocation, attempt)
    }

    /// [`RetryPolicy::backoff_us`] for a device whose [`backoff_key`] is
    /// already known: the form the fold uses, one key per chain target.
    pub(super) fn keyed_backoff_us(&self, key: u64, invocation: u64, attempt: u32) -> f64 {
        let nominal = self.nominal_backoff_us(attempt);
        let word = key ^ mix(invocation.wrapping_mul(0x9e37_79b9).wrapping_add(u64::from(attempt)));
        let mut rng = ChaCha8Rng::seed_from_u64(word);
        let unit: f64 = rng.gen_range(0.0..1.0);
        nominal * (0.5 + 0.5 * unit)
    }
}

/// The device-keyed seed word of the backoff jitter. The rotation keeps
/// this stream apart from the fault plan's, which hashes the same name
/// under the same seed.
pub(super) fn backoff_key(seed: u64, device: &str) -> u64 {
    mix(seed ^ fnv1a(device).rotate_left(17))
}

/// Circuit-breaker states (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow, consecutive failures are counted.
    Closed,
    /// Tripped: calls are rejected until the cooldown elapses.
    Open,
    /// Probing: a limited number of trial calls decide re-close vs re-open.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip Closed → Open.
    pub trip_after: u32,
    /// Time the breaker stays Open before probing, microseconds.
    pub cooldown_us: f64,
    /// Consecutive half-open successes that re-close the breaker.
    pub close_after: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig { trip_after: 3, cooldown_us: 10_000.0, close_after: 2 }
    }
}

/// Per-device circuit breaker over simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
    open_until_us: f64,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            half_open_successes: 0,
            open_until_us: 0.0,
        }
    }

    /// The current state *without* advancing time.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The state at simulated time `now_us`, transitioning Open →
    /// HalfOpen once the cooldown has elapsed.
    pub fn poll(&mut self, now_us: f64) -> BreakerState {
        if self.state == BreakerState::Open && now_us >= self.open_until_us {
            self.state = BreakerState::HalfOpen;
            self.half_open_successes = 0;
        }
        self.state
    }

    /// Records a successful call. Returns `true` when this success
    /// re-closes a half-open breaker.
    pub fn on_success(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = 0;
                false
            }
            BreakerState::HalfOpen => {
                self.half_open_successes += 1;
                if self.half_open_successes >= self.cfg.close_after {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    true
                } else {
                    false
                }
            }
            // A success while Open cannot happen (calls are rejected);
            // tolerate it as a no-op for robustness.
            BreakerState::Open => false,
        }
    }

    /// Records a failed call at simulated time `now_us`. Returns `true`
    /// when this failure trips the breaker open (from either Closed, on
    /// reaching the threshold, or HalfOpen, immediately).
    pub fn on_failure(&mut self, now_us: f64) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.trip_after {
                    self.state = BreakerState::Open;
                    self.open_until_us = now_us + self.cfg.cooldown_us;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.open_until_us = now_us + self.cfg.cooldown_us;
                true
            }
            BreakerState::Open => false,
        }
    }

    /// Latches the breaker open forever (device loss).
    pub(crate) fn force_open(&mut self) {
        self.state = BreakerState::Open;
        self.open_until_us = f64::INFINITY;
    }
}
