//! # parc-remoting — a hand-built .NET-remoting-style RPC stack
//!
//! ParC#'s central simplification over ParC++ (§3.2 of the paper) is that
//! the remoting layer does the heavy lifting: proxies are generated
//! automatically, server message loops disappear, object factories are
//! registered as *well-known* objects, and asynchronous invocation is one
//! delegate away. Rust has no such runtime, so this crate rebuilds the
//! semantics from scratch:
//!
//! * [`CallMessage`]/[`ReturnMessage`] — the wire protocol, serialized
//!   through any [`parc_serial::Formatter`];
//! * [`ObjectTable`] with [`WellKnownObjectMode::Singleton`] and
//!   [`WellKnownObjectMode::SingleCall`] publication modes plus explicit
//!   object registration (`RemotingConfiguration.RegisterWellKnownServiceType`
//!   analogue);
//! * channels: [`inproc`] (queue-backed, real threads), [`tcp`]
//!   (framed loopback sockets + binary formatter — Mono's `TcpChannel`) and
//!   [`http`] (HTTP/1.1-style framing + SOAP formatter — Mono's
//!   `HttpChannel`);
//! * [`Activator::get_object`] — URI-based proxy acquisition;
//! * [`Delegate`]s with `begin_invoke`/`end_invoke` over a real bounded
//!   [`ThreadPool`] — the C# asynchronous-invocation mechanism of Fig. 4;
//! * [`LeaseManager`] — `.Net`-style lifetime leases ("object lifetime is
//!   managed by the .Net implementation");
//! * the [`remote_interface!`] macro — the stand-in for the ParC#
//!   preprocessor, generating proxy and dispatcher boilerplate from an
//!   interface definition.
//!
//! ```
//! use std::sync::Arc;
//! use parc_remoting::{remote_interface, Activator, RemotingError};
//! use parc_remoting::inproc::InprocNetwork;
//!
//! remote_interface! {
//!     trait Divider, proxy DividerProxy, dispatcher DividerDispatcher {
//!         fn divide(d1: f64, d2: f64) -> f64;
//!     }
//! }
//!
//! struct DServer;
//! impl Divider for DServer {
//!     fn divide(&self, d1: f64, d2: f64) -> Result<f64, RemotingError> {
//!         Ok(d1 / d2)
//!     }
//! }
//!
//! # fn main() -> Result<(), RemotingError> {
//! let net = InprocNetwork::new();
//! let server = net.create_endpoint("node0")?;
//! server.objects().register_singleton(
//!     "DivideServer",
//!     Arc::new(DividerDispatcher(DServer)),
//! );
//!
//! let proxy = DividerProxy::new(Activator::get_object(&net, "inproc://node0/DivideServer")?);
//! assert_eq!(proxy.divide(10.0, 4.0)?, 2.5);
//! # Ok(())
//! # }
//! ```

pub mod activator;
pub mod bufpool;
pub mod channel;
pub mod delegate;
pub mod dispatcher;
pub mod error;
pub mod fault;
pub mod forward;
pub mod frame;
pub mod http;
pub mod inproc;
pub mod lease;
pub mod macros;
pub mod mailbox;
pub mod message;
pub mod reserve;
pub mod retry;
pub mod tcp;
pub mod threadpool;
pub mod uri;
pub mod wellknown;

pub use activator::Activator;
pub use channel::{ChannelProvider, ClientChannel, RemoteObject};
pub use delegate::{AsyncResult, Delegate};
pub use dispatcher::Invokable;
pub use error::RemotingError;
pub use fault::{ChaosChannel, FaultKind, FaultPlan, FaultSpec};
pub use forward::Forwarder;
pub use lease::LeaseManager;
pub use mailbox::{DispatchDepth, DispatchStats, MailboxScheduler};
pub use message::{CallMessage, ReturnMessage};
pub use reserve::{
    claim_alias, is_claim_plane, register_claimable, ClaimGate, ClaimStats, ClaimTable,
    CLAIM_METHOD, RELEASE_METHOD,
};
pub use retry::RetryPolicy;
pub use threadpool::ThreadPool;
pub use uri::ObjectUri;
pub use wellknown::{ObjectTable, WellKnownObjectMode, TELEMETRY_OBJECT};
