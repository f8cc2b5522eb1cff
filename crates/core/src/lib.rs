//! # parc-core — the ParC#/SCOOPP runtime (the paper's contribution)
//!
//! SCOOPP (Scalable Object Oriented Parallel Programming) structures a
//! parallel application as **parallel objects** — active objects with their
//! own logical thread of control, distributed across processing nodes and
//! invoked through **asynchronous** (no return value) or **synchronous**
//! (value-returning) method calls — plus **passive objects** that travel by
//! copy. The ParC# contribution (§3) is implementing that model on the
//! remoting stack and keeping ParC++'s *run-time grain-size adaptation*:
//!
//! * **method call aggregation** — delay and combine a series of
//!   asynchronous calls into a single aggregate message, cutting
//!   per-message overhead and latency ([`po::Po`] + the `__batch_flat`
//!   protocol in [`batch`], Fig. 7);
//! * **object agglomeration** — when parallelism is excessive, create new
//!   "parallel" objects locally so their calls execute synchronously and
//!   serially ([`runtime::ParcRuntime::create`] deciding local vs remote,
//!   Fig. 5);
//! * an **object manager** (OM) per node cooperating on placement and load
//!   balancing ([`om`]);
//! * **remote factories** instantiating implementation objects (IO) on
//!   demand ([`factory`], Fig. 6);
//! * dynamic **grain-size adaptation** driven by measured call costs
//!   ([`adapt`]);
//! * [`farm`] and [`pipeline`] skeletons — the two decompositions the
//!   paper's evaluation uses (Ray Tracer farm, prime-sieve pipeline).
//!
//! ```
//! use std::sync::Arc;
//! use parc_core::prelude::*;
//! use parc_remoting::dispatcher::FnInvokable;
//! use parc_serial::Value;
//!
//! # fn main() -> Result<(), ParcError> {
//! let runtime = ParcRuntime::builder().nodes(2).build()?;
//! runtime.register_class("Counter", || {
//!     let hits = std::sync::atomic::AtomicI64::new(0);
//!     Arc::new(FnInvokable(move |method: &str, _args: &[Value]| match method {
//!         "bump" => { hits.fetch_add(1, std::sync::atomic::Ordering::SeqCst); Ok(Value::Null) }
//!         "total" => Ok(Value::I64(hits.load(std::sync::atomic::Ordering::SeqCst))),
//!         _ => Err(parc_remoting::RemotingError::MethodNotFound {
//!             object: "Counter".into(), method: method.into() }),
//!     }))
//! });
//! let counter = runtime.create("Counter")?;
//! for _ in 0..10 {
//!     counter.post("bump", vec![])?;   // asynchronous, aggregated
//! }
//! counter.flush()?;
//! assert_eq!(counter.call("total", vec![])?, Value::I64(10));
//! # Ok(())
//! # }
//! ```

pub mod adapt;
pub mod batch;
pub mod config;
pub mod directory;
pub mod error;
pub mod factory;
pub mod farm;
mod nodes;
pub mod om;
pub mod pipeline;
pub mod po;
mod rebalance;
pub mod runtime;
pub mod stats;
pub mod telemetry;
pub mod txn;

pub use adapt::{BatchConfig, BatchController, GrainAdapter};
pub use config::{GrainConfig, Placement};
pub use directory::ObjectDirectory;
pub use error::ParcError;
pub use farm::Farm;
pub use pipeline::Pipeline;
pub use po::Po;
pub use runtime::{ParcRuntime, RebalanceConfig, RebalancerHandle, RuntimeBuilder};
pub use stats::RuntimeStats;
pub use telemetry::{ClusterTelemetry, NodeTelemetry};
pub use txn::Reservation;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::config::{GrainConfig, Placement};
    pub use crate::directory::ObjectDirectory;
    pub use crate::error::ParcError;
    pub use crate::farm::Farm;
    pub use crate::pipeline::Pipeline;
    pub use crate::po::Po;
    pub use crate::runtime::{ParcRuntime, RebalanceConfig, RuntimeBuilder};
    pub use crate::txn::Reservation;
}
