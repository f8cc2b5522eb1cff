//! # parc-bench — calibration models and experiment runners
//!
//! Regenerates every table and figure of the paper's §4 (see the
//! per-experiment index in `DESIGN.md` and the results log in
//! `EXPERIMENTS.md`). The testbed is gone — a 2005 dual-Athlon cluster on
//! 100 Mbit Ethernet running Mono 1.1.7/1.0.5, Sun JDK 1.4.2 and MPICH
//! 1.2.6 — so the experiments run on the [`parc_sim`] substitute with
//! per-stack cost models ([`stacks`]) calibrated to the paper's *measured
//! constants* (one-way latencies 100/273/520 µs; Mono JIT ≈ 1.4× on the
//! Ray Tracer). Everything else — wire bytes, work per image line, message
//! counts — is produced by the real substrates in this workspace, not by
//! curve fitting:
//!
//! * wire sizes come from actually encoding call frames with
//!   `parc-serial`'s formatters;
//! * Ray-Tracer work comes from actually rendering with `parc-apps` and
//!   counting intersection tests;
//! * ablation message counts come from running the real `parc-core`
//!   runtime and reading its stats.
//!
//! Run `cargo bench -p parc-bench` to print every experiment.

pub mod ablation;
pub mod fig9;
pub mod latency;
pub mod pingpong;
pub mod report;
pub mod seqgap;
pub mod stacks;

pub use fig9::{raytracer_execution_time, Fig9Config, LineWork, PoolParams};
pub use pingpong::{bandwidth_series, BandwidthPoint};
pub use stacks::{StackModel, WireFormat};
