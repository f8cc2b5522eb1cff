//! Server-side dispatch: from decoded [`CallMessage`]s to object method
//! invocations.
//!
//! In .NET remoting the server-side stack is reflective; here, server
//! objects implement [`Invokable`] (usually via the generated dispatcher of
//! [`crate::remote_interface!`]) and [`dispatch`] routes a call through an
//! [`ObjectTable`]. This function is shared by every channel — inproc, TCP
//! and HTTP differ only in framing and formatter.

use std::sync::Arc;

use parc_serial::{BinaryFormatter, Value};

use crate::error::RemotingError;
use crate::frame::{self, FrameHeader, TraceExt};
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

/// Dispatches a two-way call, turning a "no reply" dispatch outcome (which
/// only a one-way-marked message produces) into an explicit fault instead
/// of leaving the caller to time out.
fn dispatch_call(objects: &ObjectTable, call: &CallMessage) -> ReturnMessage {
    dispatch(objects, call)
        .unwrap_or_else(|| ReturnMessage::fault(call.call_id, "call produced no reply"))
}

/// The TCP server's path from a received frame to an invocation: peel the
/// optional trace-context extension, decode the [`CallMessage`], enqueue
/// it on the target object's mailbox and return — the transport thread
/// never runs a method body. One-way posts, batches and two-way calls
/// all ride the same per-object FIFO, so arrival order per object
/// (including one-way/two-way interleaving on one connection) is
/// execution order while distinct objects run in parallel.
///
/// `reply` is how a two-way caller hears back; it runs on the mailbox
/// worker once the method returns, or right here with a fault (call id 0)
/// when the frame body or its trace extension is malformed. The frame
/// flag, not the payload, decides whether it is ever called: a one-way
/// frame never produces a reply, so a post can never consume (or corrupt)
/// a caller's correlation slot, and a malformed one is dropped silently.
pub(crate) fn serve_frame(
    sched: &MailboxScheduler,
    objects: &ObjectTable,
    header: &FrameHeader,
    payload: &[u8],
    reply: impl FnOnce(&ReturnMessage) + Send + 'static,
) {
    let oneway = header.oneway();
    let decoded = frame::split_trace_ext(header, payload)
        .map_err(|e| e.to_string())
        .and_then(|(ext, body)| {
            CallMessage::decode(&BinaryFormatter::new(), body)
                .map(|call| (ext.map(TraceExt::to_context), call))
                .map_err(|e| e.to_string())
        });
    let (trace_ctx, call) = match decoded {
        Ok(decoded) => decoded,
        Err(detail) => {
            if !oneway {
                reply(&ReturnMessage::fault(0, detail));
            }
            return;
        }
    };
    let objects = objects.clone();
    let object = call.object.clone();
    sched.enqueue(&object, move || {
        // The remote caller becomes the parent of every span the
        // dispatch opens.
        let _trace = parc_obs::trace::with_remote_parent(trace_ctx);
        if oneway {
            let _ = dispatch(&objects, &call);
        } else {
            reply(&dispatch_call(&objects, &call));
        }
    });
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
