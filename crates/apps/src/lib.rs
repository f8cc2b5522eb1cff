//! # parc-apps — the paper's evaluation workloads
//!
//! Two applications exercise the runtime exactly as §4 does:
//!
//! * [`raytracer`] — a Java-Grande-Forum-style Whitted ray tracer (the
//!   64-sphere scene, 500×500 pixels in the paper), farmed by image line;
//!   every rendered line reports its intersection-test count so the
//!   simulator can charge compute honestly;
//! * [`sieve`] — the paper's running `PrimeServer : PrimeFilter` example:
//!   a pipeline of prime filters, plus the pure reference sieve it must
//!   agree with ("running another application, a prime number sieve, the
//!   Mono execution time is about the same as the JVM").
//!
//! Each module exposes (a) the pure computation, (b) a work/flop meter for
//! the cost models, and (c) glue turning the computation into parallel
//! objects for `parc-core`.

pub mod raytracer;
pub mod sieve;

pub use raytracer::{RenderedLine, Scene};
pub use sieve::{reference_primes, PrimeFilterStage};
