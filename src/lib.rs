//! # parc — facade crate for the ParC# reproduction
//!
//! Re-exports every subsystem of the workspace under one roof so examples
//! and downstream users can depend on a single crate:
//!
//! * [`serial`] — the serialization substrate (wire formats, `Value` model);
//! * [`remoting`] — the hand-built .NET-remoting-style RPC stack;
//! * [`rmi`] — the Java RMI baseline;
//! * [`mpi`] — the MPI baseline's explicit pack/unpack buffer;
//! * [`sim`] — the discrete-event cluster simulator;
//! * [`scoopp`] — the paper's contribution: the SCOOPP/ParC# runtime;
//! * [`apps`] — the evaluation workloads (Ray Tracer, prime sieve, ...);
//! * [`bench`](mod@bench) — calibration models and experiment runners;
//! * [`obs`] — runtime tracing, metrics and adaptation telemetry
//!   (enable with `PARC_OBS=1`, export Chrome traces via
//!   [`obs::export`]).
//!
//! See `README.md` for a guided tour and `DESIGN.md` for the paper-to-code
//! map.

pub use parc_apps as apps;
pub use parc_bench as bench;
pub use parc_core as scoopp;
pub use parc_mpi as mpi;
pub use parc_obs as obs;
pub use parc_remoting as remoting;
pub use parc_rmi as rmi;
pub use parc_serial as serial;
pub use parc_sim as sim;
