//! Server-side dispatch: from received calls to object method
//! invocations.
//!
//! In .NET remoting the server-side stack is reflective; here, server
//! objects implement [`Invokable`] (usually via the generated dispatcher of
//! [`crate::remote_interface!`]) and [`dispatch`] routes a call through an
//! [`ObjectTable`]. Every server — inproc, TCP and HTTP — hands its
//! decoded calls to one function, `serve_call`, which enqueues them on the
//! server's per-object mailboxes (or, for an in-process two-way call to an
//! idle object, lends the caller the mailbox to run the call itself) and
//! answers through a reply sink the channel supplies; the channels differ
//! only in framing and formatter.
//! The two socket servers also share one bind / accept loop /
//! stop-on-drop (`SocketServer`).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parc_serial::Value;

use crate::error::RemotingError;
use crate::mailbox::MailboxScheduler;
use crate::message::{CallMessage, ReturnMessage};
use crate::wellknown::ObjectTable;

/// A server object reachable by name: given a method name and marshalled
/// arguments, produce a marshalled result.
///
/// Implementations must be thread-safe — the channels dispatch concurrent
/// calls from multiple connections, exactly like .NET singleton objects,
/// which "must be prepared for concurrent access". Use interior mutability
/// for state.
pub trait Invokable: Send + Sync {
    /// Invokes `method` with `args`.
    ///
    /// # Errors
    ///
    /// [`RemotingError::MethodNotFound`] for unknown methods,
    /// [`RemotingError::BadArguments`] for marshalling mismatches, or any
    /// error the method itself produces.
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, RemotingError>;
}

impl<T: Invokable + ?Sized> Invokable for Arc<T> {
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, RemotingError> {
        (**self).invoke(method, args)
    }
}

/// Routes one call through the table, producing a reply (unless one-way).
///
/// Faults never poison the channel: every error becomes a fault
/// [`ReturnMessage`] for two-way calls and is silently dropped for one-way
/// calls (matching fire-and-forget delegate semantics). A *panic* inside
/// the method body is caught here and converted to
/// [`RemotingError::ServerFault`] — without this, a mailbox worker's own
/// `catch_unwind` would contain the panic but never send a reply, and the
/// caller would burn its whole per-call deadline on a dead correlation
/// slot.
pub fn dispatch(table: &ObjectTable, call: &CallMessage) -> Option<ReturnMessage> {
    let _span = parc_obs::Span::enter(parc_obs::kinds::DISPATCH);
    let outcome = table.resolve(&call.object).and_then(|obj| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            obj.invoke(&call.method, &call.args)
        }))
        .unwrap_or_else(|payload| {
            let detail = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            Err(RemotingError::ServerFault {
                detail: format!("method {:?} panicked: {detail}", call.method),
            })
        })
    });
    if call.oneway {
        return None;
    }
    Some(match outcome {
        // A `__moved` envelope from a forwarding entry becomes the Moved
        // reply variant: the inner value travels as the result and the new
        // location rides the reply's `moved_to` field.
        Ok(value) => match crate::forward::split_moved(value) {
            (value, Some(uri)) => ReturnMessage::ok(call.call_id, value).with_moved_to(uri),
            (value, None) => ReturnMessage::ok(call.call_id, value),
        },
        // Unwrap server faults so the client does not double-wrap the
        // prefix when it re-raises the fault as its own ServerFault.
        Err(RemotingError::ServerFault { detail }) => ReturnMessage::fault(call.call_id, detail),
        Err(e) => ReturnMessage::fault(call.call_id, e.to_string()),
    })
}

/// Where a call came from: the caller's trace context, which parents
/// every span the dispatch opens, and the serving node's interned name
/// (inproc endpoints tag their spans with it; socket servers have none).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Origin {
    pub(crate) trace: Option<parc_obs::TraceContext>,
    pub(crate) node: Option<u32>,
}

/// Every server's path from a received call to an invocation: enqueue it
/// on the target object's mailbox and return, so the receiving thread
/// never runs a method body. One-way posts, batches and two-way calls
/// all ride the same per-object FIFO, so arrival order per object is
/// execution order while distinct objects run in parallel.
///
/// `reply` is how a two-way caller hears back, and the transport alone
/// decides whether there is one (TCP's frame flag, HTTP's `SOAPAction`,
/// inproc's `post`/`call`), never the payload: `None` is a one-way call,
/// so a post can never consume (or corrupt) a caller's correlation slot.
/// A present `reply` is always answered — once the method returns (with
/// a fault if a one-way-marked message produced no reply), or right here
/// with a fault (call id 0) when `decoded` is an error. An undecodable
/// post is dropped.
///
/// `inline` is the caller's deadline when the caller offers its own
/// thread (only the in-process channel does, and only for two-way
/// calls). If the scheduler lends it the object's idle mailbox
/// ([`MailboxScheduler::claim_idle`]), nothing is enqueued: the job comes
/// back, holding the mailbox, for the caller to run once it has let go
/// of its own locks.
pub(crate) fn serve_call<R>(
    sched: &MailboxScheduler,
    objects: &ObjectTable,
    origin: Origin,
    decoded: Result<CallMessage, String>,
    reply: Option<R>,
    inline: Option<Duration>,
) -> Option<impl FnOnce()>
where
    R: FnOnce(&ReturnMessage) + Send + 'static,
{
    let call = match decoded {
        Ok(call) => call,
        Err(detail) => {
            if let Some(reply) = reply {
                reply(&ReturnMessage::fault(0, detail));
            }
            return None;
        }
    };
    let offered = inline.filter(|_| reply.is_some());
    let claim = offered.and_then(|deadline| sched.claim_idle(&call.object, deadline));
    let objects = objects.clone();
    let object = call.object.clone();
    let job = move || {
        let _node = origin.node.map(parc_obs::trace::enter_node_id);
        // The remote caller becomes the parent of every span the
        // dispatch opens.
        let _trace = parc_obs::trace::with_remote_parent(origin.trace);
        let out = dispatch(&objects, &call);
        if let Some(reply) = reply {
            // Only a one-way-marked message dispatches to no reply; its
            // caller gets a fault instead of waiting out its deadline.
            let out = out
                .unwrap_or_else(|| ReturnMessage::fault(call.call_id, "call produced no reply"));
            let _span = parc_obs::Span::enter(parc_obs::kinds::REPLY);
            reply(&out);
        }
    };
    match claim {
        Some(claim) => return Some(move || claim.run(job)),
        None if offered.is_some() => sched.enqueue_timed(&object, job),
        None => sched.enqueue(&object, job),
    }
    None
}

/// What every connection of a socket server serves with.
#[derive(Clone)]
pub(crate) struct ServerState {
    pub(crate) objects: ObjectTable,
    pub(crate) scheduler: Arc<MailboxScheduler>,
    stop: Arc<AtomicBool>,
}

impl ServerState {
    /// True once the server was dropped; connections close at their next request.
    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// The bind / accept loop / stop-on-drop both socket servers (TCP and
/// HTTP) share. Each accepted socket gets a `{kind}-conn` thread running
/// `serve`, which parses its channel's framing and hands every call to
/// [`serve_call`].
pub(crate) struct SocketServer {
    pub(crate) addr: SocketAddr,
    pub(crate) state: ServerState,
}

impl SocketServer {
    /// Binds `addr` and starts accepting, with a mailbox scheduler of
    /// `workers` threads shared by every connection.
    pub(crate) fn bind(
        addr: &str,
        workers: usize,
        kind: &'static str,
        serve: fn(TcpStream, ServerState),
    ) -> Result<SocketServer, RemotingError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = ServerState {
            objects: ObjectTable::new(),
            scheduler: Arc::new(MailboxScheduler::with_workers(workers)),
            stop: Arc::new(AtomicBool::new(false)),
        };
        let accept = state.clone();
        std::thread::Builder::new()
            .name(format!("{kind}-accept-{local}"))
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept.stopped() {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    let state = accept.clone();
                    let _ = std::thread::Builder::new()
                        .name(format!("{kind}-conn"))
                        .spawn(move || serve(stream, state));
                }
            })
            .expect("spawning accept thread");
        Ok(SocketServer { addr: local, state })
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Poke the listener so the accept loop observes the stop flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Convenience [`Invokable`] built from a closure — handy in tests and for
/// tiny service objects.
pub struct FnInvokable<F>(pub F);

impl<F> Invokable for FnInvokable<F>
where
    F: Fn(&str, &[Value]) -> Result<Value, RemotingError> + Send + Sync,
{
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, RemotingError> {
        (self.0)(method, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellknown::ObjectTable;

    fn echo_table() -> ObjectTable {
        let table = ObjectTable::new();
        table.register_singleton(
            "Echo",
            Arc::new(FnInvokable(|method: &str, args: &[Value]| match method {
                "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
                "boom" => Err(RemotingError::ServerFault { detail: "kaboom".into() }),
                _ => Err(RemotingError::MethodNotFound {
                    object: "Echo".into(),
                    method: method.into(),
                }),
            })),
        );
        table
    }

    #[test]
    fn dispatch_routes_to_method() {
        let table = echo_table();
        let call = CallMessage::new("Echo", "echo", vec![Value::I32(5)]);
        let reply = dispatch(&table, &call).unwrap();
        assert_eq!(reply.result, Ok(Value::I32(5)));
    }

    #[test]
    fn unknown_object_is_fault_not_crash() {
        let table = echo_table();
        let call = CallMessage::new("Nope", "echo", vec![]);
        let reply = dispatch(&table, &call).unwrap();
        let err = reply.result.unwrap_err();
        assert!(err.contains("Nope"), "{err}");
    }

    #[test]
    fn unknown_method_is_fault() {
        let table = echo_table();
        let reply = dispatch(&table, &CallMessage::new("Echo", "frobnicate", vec![])).unwrap();
        assert!(reply.result.is_err());
    }

    #[test]
    fn server_error_becomes_fault_reply() {
        let table = echo_table();
        let reply = dispatch(&table, &CallMessage::new("Echo", "boom", vec![])).unwrap();
        assert!(reply.result.unwrap_err().contains("kaboom"));
    }

    #[test]
    fn oneway_calls_get_no_reply_even_on_error() {
        let table = echo_table();
        assert!(dispatch(&table, &CallMessage::one_way("Echo", "echo", vec![])).is_none());
        assert!(dispatch(&table, &CallMessage::one_way("Nope", "echo", vec![])).is_none());
    }

    #[test]
    fn method_panic_becomes_server_fault_reply() {
        let table = ObjectTable::new();
        table.register_singleton(
            "Bomb",
            Arc::new(FnInvokable(|method: &str, _args: &[Value]| -> Result<Value, RemotingError> {
                panic!("detonated in {method}")
            })),
        );
        let reply = dispatch(&table, &CallMessage::new("Bomb", "tick", vec![])).unwrap();
        let err = reply.result.unwrap_err();
        assert!(err.contains("panicked"), "{err}");
        assert!(err.contains("detonated in tick"), "{err}");
    }

    #[test]
    fn reply_echoes_call_id() {
        let table = echo_table();
        let mut call = CallMessage::new("Echo", "echo", vec![]);
        call.call_id = 777;
        assert_eq!(dispatch(&table, &call).unwrap().call_id, 777);
    }
}
