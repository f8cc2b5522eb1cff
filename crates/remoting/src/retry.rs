//! Retry policy and per-call deadlines.
//!
//! The channel layer's original failure behaviour was a single hard-coded
//! 30 s reply deadline and a permanent error afterwards. This module makes
//! both halves explicit and deterministic: [`DEFAULT_CALL_TIMEOUT`] is the
//! per-call deadline every channel starts from (each channel can set its
//! own), and [`RetryPolicy`] wraps an operation in bounded retries with
//! exponential backoff and deterministic SplitMix64 jitter
//! ([`crate::channel::RemoteObject::with_retry`] sets it). One-way posts and
//! idempotent-marked methods retry transparently in the proxies; two-way
//! non-idempotent calls never retry implicitly, preserving at-most-once
//! semantics.

use std::time::Duration;

use crate::error::RemotingError;

/// The per-call reply deadline of every channel that is not given its own
/// (the historical constant).
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// SplitMix64 — the same tiny deterministic generator parc-testkit uses,
/// duplicated here because the remoting crate cannot depend on the test
/// harness. One `mix` step is a pure function of its input, which keeps
/// backoff jitter reproducible per (seed, attempt) pair.
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stateful SplitMix64 stream for places that need a sequence of draws.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Bounded-retry policy: up to `max_attempts` tries with exponential
/// backoff (`base_backoff * 2^attempt`, capped at `max_backoff`) and
/// deterministic jitter in `[0.5, 1.0]` of the computed delay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Jitter seed; same seed → same backoff schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// Builds a policy with explicit bounds.
    pub fn new(max_attempts: u32, base_backoff: Duration, max_backoff: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff,
            max_backoff,
            ..RetryPolicy::default()
        }
    }

    /// Re-seeds the jitter stream (for reproducible tests and benches).
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// The backoff delay before retry number `attempt` (0-based: the
    /// delay slept after the first failure is `backoff(0)`). Pure
    /// function of the policy — same policy, same schedule.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.max_backoff);
        // Deterministic jitter in [0.5, 1.0] of the capped delay.
        let draw = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37)) >> 11;
        let unit = draw as f64 / (1u64 << 53) as f64;
        capped.mul_f64(0.5 + unit / 2.0)
    }

    /// Runs `op` under this policy: retries while the error
    /// [`RemotingError::is_retryable`] and attempts remain, sleeping the
    /// backoff between tries and counting each retry in
    /// `parc-obs` (`call.retried`).
    ///
    /// # Errors
    ///
    /// The last error when every attempt fails, or the first
    /// non-retryable error immediately.
    pub fn run<T>(
        &self,
        mut op: impl FnMut() -> Result<T, RemotingError>,
    ) -> Result<T, RemotingError> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(e) if e.is_retryable() && attempt + 1 < self.max_attempts => {
                    parc_obs::counter(parc_obs::kinds::CALL_RETRIED).incr();
                    parc_obs::event(parc_obs::kinds::CALL_RETRIED, || {
                        format!("attempt={} error={e}", attempt + 1)
                    });
                    let delay = self.backoff(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn zero_attempts_clamps_to_one() {
        assert_eq!(RetryPolicy::new(0, Duration::ZERO, Duration::ZERO).max_attempts, 1);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::new(8, Duration::from_millis(10), Duration::from_millis(100));
        // Jitter keeps every delay within [0.5, 1.0] of the nominal value.
        assert!(p.backoff(0) <= Duration::from_millis(10));
        assert!(p.backoff(0) >= Duration::from_millis(5));
        assert!(p.backoff(6) <= Duration::from_millis(100));
        assert!(p.backoff(6) >= Duration::from_millis(50));
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let a = RetryPolicy::default().with_seed(42);
        let b = RetryPolicy::default().with_seed(42);
        let c = RetryPolicy::default().with_seed(43);
        assert_eq!(a.backoff(1), b.backoff(1));
        assert_ne!(a.backoff(1), c.backoff(1), "different seeds should jitter differently");
    }

    #[test]
    fn run_retries_retryable_until_success() {
        let p = RetryPolicy::new(4, Duration::ZERO, Duration::ZERO);
        let tries = AtomicU32::new(0);
        let out = p.run(|| {
            if tries.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(RemotingError::Transport { detail: "flaky".into() })
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn run_gives_up_after_max_attempts() {
        let p = RetryPolicy::new(3, Duration::ZERO, Duration::ZERO);
        let tries = AtomicU32::new(0);
        let out: Result<(), _> = p.run(|| {
            tries.fetch_add(1, Ordering::Relaxed);
            Err(RemotingError::Transport { detail: "dead".into() })
        });
        assert!(out.is_err());
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn run_never_retries_non_retryable() {
        let p = RetryPolicy::new(5, Duration::ZERO, Duration::ZERO);
        let tries = AtomicU32::new(0);
        let out: Result<(), _> = p.run(|| {
            tries.fetch_add(1, Ordering::Relaxed);
            Err(RemotingError::ServerFault { detail: "logic bug".into() })
        });
        assert!(matches!(out, Err(RemotingError::ServerFault { .. })));
        assert_eq!(tries.load(Ordering::Relaxed), 1, "server faults are deterministic");
    }

    #[test]
    fn splitmix_stream_matches_testkit_constants() {
        // First draw from seed 0 of the canonical SplitMix64.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        let f = rng.next_f64();
        assert!((0.0..1.0).contains(&f));
    }
}
