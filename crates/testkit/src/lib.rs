//! # parc-testkit — deterministic in-tree property testing
//!
//! A hermetic replacement for the `proptest` suites the workspace used to
//! carry: no registry dependencies, no persisted regression files, and a
//! fully deterministic case stream driven by the same
//! [`SplitMix64`](parc_sim::SplitMix64) generator the simulator uses.
//!
//! ## Model
//!
//! A property is split into a **generator** (`FnMut(&mut Source) -> T`)
//! and a **predicate** (`Fn(&T)` that panics on violation, so plain
//! `assert!`/`assert_eq!` work). The [`Source`] records every bounded
//! draw as a *choice sequence* (a tape of `u64`s). When a case fails, the
//! tape — not the value — is shrunk: entries are deleted, zeroed, and
//! decremented, and the generator is replayed over each candidate tape.
//! Draws past the end of a shrunk tape read as zero, which by
//! construction maps every generator to its smallest output, so tape
//! shrinking is value shrinking without per-type shrinkers.
//!
//! ## Determinism and reproduction
//!
//! The root seed defaults to a fixed constant, so CI runs are
//! reproducible by construction. Each case derives its own seed from the
//! root stream; a failure report prints that case seed and the shrunk
//! counterexample, and `PARC_TESTKIT_SEED=<seed>` re-runs the whole
//! suite starting from any seed (decimal or `0x`-hex).
//!
//! ```
//! use parc_testkit::Config;
//!
//! Config::cases(64).check(
//!     |src| src.vec_of(0..20, |s| s.i32_in(-100..100)),
//!     |xs| {
//!         let mut sorted = xs.clone();
//!         sorted.sort_unstable();
//!         assert_eq!(sorted.len(), xs.len());
//!     },
//! );
//! ```

mod shrink;
mod source;

pub use source::Source;

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use parc_sim::SplitMix64;

/// Default root seed: an arbitrary fixed constant so every run draws the
/// same case stream.
pub const DEFAULT_SEED: u64 = 0x5eed_c0de_2005_9e37;

/// Default number of generated cases per property (proptest's default).
pub const DEFAULT_CASES: u32 = 256;

/// Default cap on shrink candidate executions per failure.
pub const DEFAULT_SHRINK_BUDGET: u32 = 2048;

/// Configuration for one property check.
#[derive(Debug, Clone)]
pub struct Config {
    cases: u32,
    seed: u64,
    shrink_budget: u32,
}

impl Default for Config {
    fn default() -> Config {
        Config { cases: DEFAULT_CASES, seed: seed_from_env(), shrink_budget: DEFAULT_SHRINK_BUDGET }
    }
}

fn seed_from_env() -> u64 {
    let Ok(raw) = std::env::var("PARC_TESTKIT_SEED") else {
        return DEFAULT_SEED;
    };
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("PARC_TESTKIT_SEED must be a u64, got {raw:?}"))
}

impl Config {
    /// The default configuration (256 cases, fixed seed).
    pub fn new() -> Config {
        Config::default()
    }

    /// Shorthand: default configuration with `n` cases.
    pub fn cases(n: u32) -> Config {
        Config { cases: n, ..Config::default() }
    }

    /// Overrides the root seed (the `PARC_TESTKIT_SEED` environment
    /// variable still wins over the built-in default, not over this).
    pub fn with_seed(mut self, seed: u64) -> Config {
        self.seed = seed;
        self
    }

    /// Overrides the shrink budget (candidate executions per failure).
    pub fn with_shrink_budget(mut self, budget: u32) -> Config {
        self.shrink_budget = budget;
        self
    }

    /// Runs the property: `generate` builds an input from the [`Source`],
    /// `prop` panics if the input violates the property.
    ///
    /// # Panics
    ///
    /// Panics with the case seed and the shrunk counterexample when any
    /// generated case fails.
    pub fn check<T, G, P>(&self, mut generate: G, prop: P)
    where
        T: Debug,
        G: FnMut(&mut Source) -> T,
        P: Fn(&T),
    {
        let mut root = SplitMix64::new(self.seed);
        for case in 0..self.cases {
            // Case 0 uses the root seed itself, so re-running with
            // `PARC_TESTKIT_SEED=<reported case seed>` replays the failing
            // case first.
            let case_seed = if case == 0 { self.seed } else { root.next_u64() };
            let mut src = Source::record(case_seed);
            let input = generate(&mut src);
            if let Err(message) = run_prop(&prop, &input) {
                let tape = src.into_tape();
                self.report_failure(case, case_seed, tape, &mut generate, &prop, &message);
            }
        }
    }

    fn report_failure<T, G, P>(
        &self,
        case: u32,
        case_seed: u64,
        tape: Vec<u64>,
        generate: &mut G,
        prop: &P,
        original_message: &str,
    ) -> !
    where
        T: Debug,
        G: FnMut(&mut Source) -> T,
        P: Fn(&T),
    {
        // Suppress the default panic hook's per-candidate backtrace spam
        // while the shrinker probes; restore it for the final report.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let minimal = shrink::shrink_tape(tape, self.shrink_budget, |candidate| {
            let mut src = Source::replay(candidate);
            // A generator panic on a mutated tape means the candidate is
            // invalid, not that the property failed.
            let input = catch_unwind(AssertUnwindSafe(|| generate(&mut src))).ok()?;
            run_prop(prop, &input).err()
        });
        std::panic::set_hook(hook);
        let shrunk = generate(&mut Source::replay(&minimal.tape));
        panic!(
            "property failed (case {case} of {cases})\n\
             \x20 case seed:     {case_seed:#018x}\n\
             \x20 counterexample (shrunk, {attempts} attempts): {shrunk:?}\n\
             \x20 failure:       {message}\n\
             \x20 reproduce with PARC_TESTKIT_SEED={case_seed:#x} (replays this case first)",
            cases = self.cases,
            attempts = minimal.attempts,
            message = minimal.message.as_deref().unwrap_or(original_message),
        );
    }
}

/// Runs one property check with the default [`Config`].
pub fn check<T, G, P>(generate: G, prop: P)
where
    T: Debug,
    G: FnMut(&mut Source) -> T,
    P: Fn(&T),
{
    Config::default().check(generate, prop);
}

fn run_prop<T, P: Fn(&T)>(prop: &P, input: &T) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| prop(input))).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0u32;
        Config::cases(50).check(
            |src| {
                ran += 1;
                src.u64_any()
            },
            |v| {
                let _ = v;
            },
        );
        assert_eq!(ran, 50);
    }

    #[test]
    fn same_seed_generates_same_cases() {
        let collect = |seed: u64| {
            let mut cases = Vec::new();
            Config::cases(20).with_seed(seed).check(
                |src| {
                    let v = src.vec_of(0..8, |s| s.u64_in(0..1000));
                    cases.push(v.clone());
                    v
                },
                |_| {},
            );
            cases
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn failing_property_reports_seed_and_counterexample() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Config::cases(200).with_seed(3).check(
                |src| src.vec_of(0..64, |s| s.u64_in(0..256)),
                |xs| assert!(xs.iter().all(|&x| x < 16), "element >= 16"),
            );
        }));
        let message = match result {
            Ok(()) => panic!("property should have failed"),
            Err(payload) => *payload.downcast::<String>().expect("string payload"),
        };
        assert!(message.contains("case seed:"), "missing seed in: {message}");
        assert!(message.contains("counterexample"), "missing counterexample in: {message}");
        assert!(message.contains("element >= 16"), "missing failure text in: {message}");
    }

    /// Satellite: shrinking quality. A known-failing predicate over
    /// `Vec<u8>` must shrink to the minimal counterexample `[16]`,
    /// deterministically, from a fixed seed.
    #[test]
    fn shrinks_to_minimal_counterexample_deterministically() {
        let run = || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                Config::cases(200).with_seed(11).check(
                    |src| src.vec_of(0..64, |s| s.u64_in(0..256) as u8),
                    |xs| assert!(xs.iter().all(|&x| x < 16)),
                );
            }));
            match result {
                Ok(()) => panic!("property should have failed"),
                Err(payload) => *payload.downcast::<String>().expect("string payload"),
            }
        };
        let first = run();
        // The minimal vector violating "all elements < 16" is one element
        // of exactly 16.
        assert!(first.contains("[16]"), "not shrunk to minimal [16]: {first}");
        // Deterministic: the whole report reproduces byte-for-byte.
        assert_eq!(first, run());
    }

    #[test]
    fn top_level_check_uses_defaults() {
        check(|src| src.bool_any(), |b| assert!(matches!(u8::from(*b), 0 | 1)));
    }
}
