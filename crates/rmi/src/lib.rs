//! # parc-rmi — the Java RMI baseline
//!
//! The paper benchmarks Mono remoting against Java RMI (SDK 1.4.2) and
//! mentions the then-new `java.nio` package. This crate rebuilds RMI as a
//! *baseline*: functionally real (you can export objects, bind them in a
//! registry, look them up and invoke them), with the RMI cost structure the
//! paper measures — Java-serialization wire format (class descriptors,
//! fixed-width big-endian primitives) and the heavier per-call path.
//!
//! The API deliberately mirrors the five-step Java RMI burden the paper
//! walks through in §2 (Fig. 1):
//!
//! 1. servers implement a remote interface whose methods all return
//!    `Result<_, RemoteException>` ([`RemoteInvokable`]);
//! 2. each server object is explicitly exported
//!    ([`UnicastRemoteObject::export`]);
//! 3. ...and registered in a name server ([`Naming::rebind`]);
//! 4. clients look up references by URL ([`Naming::lookup`]) and must
//!    handle `RemoteException` on *every* call;
//! 5. stubs are the generic [`RmiStub`] (the `rmic`-generated proxy
//!    stand-in).
//!
//! The paper's `java.nio` row ("more low level, based on message passing",
//! latency close to Mono's) is not rebuilt: E3 takes it from the
//! `parc-sim` cost model (`StackModel::java_nio` in `parc-bench`).

pub mod error;
pub mod naming;
pub mod registry;
pub mod stub;
pub mod unicast;

pub use error::RemoteException;
pub use naming::Naming;
pub use registry::Registry;
pub use stub::RmiStub;
pub use unicast::{RemoteInvokable, UnicastRemoteObject};
