//! Generic client stubs — the `rmic` output, minus the code generator.
//!
//! A stub marshals every call through the Java-flavoured wire format
//! ([`parc_serial::JavaFormatter`]), unmarshals it "server-side", invokes
//! the exported object, and marshals the reply back. Both directions pay
//! real serialization CPU and produce real byte counts (exposed via
//! [`RmiStub::bytes_sent`]/[`RmiStub::bytes_received`]) — the benchmark
//! harness feeds those into the network model for Fig. 8a.

use std::sync::atomic::{AtomicU64, Ordering};

use parc_serial::{Formatter, JavaFormatter, Value};

use crate::error::RemoteException;
use crate::unicast::{ObjRef, UnicastRemoteObject};

/// A client-side remote reference.
pub struct RmiStub {
    target: ObjRef,
    exports: UnicastRemoteObject,
    formatter: JavaFormatter,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    calls: AtomicU64,
}

impl RmiStub {
    /// Creates a stub for `target` resolved against `exports`.
    pub fn new(target: ObjRef, exports: UnicastRemoteObject) -> RmiStub {
        RmiStub {
            target,
            exports,
            formatter: JavaFormatter::new(),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// The referenced object id.
    pub fn target(&self) -> ObjRef {
        self.target
    }

    /// Total marshalled request bytes so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total marshalled reply bytes so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Number of completed calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Invokes a remote method: marshal → unmarshal → dispatch →
    /// marshal → unmarshal, exactly the RMI data path.
    ///
    /// # Errors
    ///
    /// Any [`RemoteException`] from marshalling, resolution, or the server.
    pub fn call(&self, method: &str, args: Vec<Value>) -> Result<Value, RemoteException> {
        let _call_span = parc_obs::Span::enter(parc_obs::kinds::RMI_CALL);
        // Client side: marshal the call.
        let call = Value::List(vec![Value::Str(method.to_string()), Value::List(args)]);
        let request = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::SERIALIZE);
            self.formatter.serialize(&call)?
        };
        self.bytes_sent.fetch_add(request.len() as u64, Ordering::Relaxed);

        // Server side: unmarshal and dispatch.
        let decoded = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::DESERIALIZE);
            self.formatter.deserialize(&request)?
        };
        let items = decoded.as_list().ok_or(RemoteException::Unmarshal {
            detail: "call frame is not a list".into(),
        })?;
        let (method_v, args_v) = match items {
            [m, a] => (m, a),
            _ => {
                return Err(RemoteException::Unmarshal {
                    detail: "call frame must be [method, args]".into(),
                })
            }
        };
        let method_name = method_v.as_str().ok_or(RemoteException::Unmarshal {
            detail: "method name is not a string".into(),
        })?;
        let args_list = args_v.as_list().ok_or(RemoteException::Unmarshal {
            detail: "args is not a list".into(),
        })?;
        let server = self.exports.resolve(self.target)?;
        let result = server.invoke(method_name, args_list)?;

        // Server side: marshal the reply; client side: unmarshal it.
        let reply = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::SERIALIZE);
            self.formatter.serialize(&result)?
        };
        self.bytes_received.fetch_add(reply.len() as u64, Ordering::Relaxed);
        let value = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::DESERIALIZE);
            self.formatter.deserialize(&reply)?
        };
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(value)
    }

    /// Typed convenience wrapper over [`RmiStub::call`].
    ///
    /// # Errors
    ///
    /// As [`RmiStub::call`], plus unmarshal failures for the return type.
    pub fn call_typed<T: parc_serial::FromValue>(
        &self,
        method: &str,
        args: Vec<Value>,
    ) -> Result<T, RemoteException> {
        let out = self.call(method, args)?;
        T::from_value(&out).map_err(|e| RemoteException::Unmarshal { detail: e.to_string() })
    }
}

impl std::fmt::Debug for RmiStub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmiStub")
            .field("target", &self.target)
            .field("calls", &self.calls())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::unicast::FnRemote;

    fn divider_stub() -> RmiStub {
        let exports = UnicastRemoteObject::new();
        let obj = exports.export(Arc::new(FnRemote(|method: &str, args: &[Value]| {
            match method {
                "divide" => {
                    let d1 = args[0].as_f64().unwrap_or(f64::NAN);
                    let d2 = args[1].as_f64().unwrap_or(f64::NAN);
                    Ok(Value::F64(d1 / d2))
                }
                "fail" => Err(RemoteException::ServerError { detail: "nope".into() }),
                _ => Err(RemoteException::NoSuchMethod { method: method.to_string() }),
            }
        })));
        RmiStub::new(obj, exports)
    }

    #[test]
    fn call_roundtrips_through_java_serialization() {
        let stub = divider_stub();
        let out = stub.call("divide", vec![Value::F64(10.0), Value::F64(4.0)]).unwrap();
        assert_eq!(out, Value::F64(2.5));
        assert_eq!(stub.calls(), 1);
        assert!(stub.bytes_sent() > 0);
        assert!(stub.bytes_received() > 0);
    }

    #[test]
    fn typed_call_converts() {
        let stub = divider_stub();
        let out: f64 = stub.call_typed("divide", vec![Value::F64(9.0), Value::F64(3.0)]).unwrap();
        assert_eq!(out, 3.0);
        let err = stub
            .call_typed::<String>("divide", vec![Value::F64(1.0), Value::F64(1.0)])
            .unwrap_err();
        assert!(matches!(err, RemoteException::Unmarshal { .. }));
    }

    #[test]
    fn server_error_propagates() {
        let stub = divider_stub();
        assert!(matches!(
            stub.call("fail", vec![]),
            Err(RemoteException::ServerError { .. })
        ));
        assert!(matches!(
            stub.call("ghost", vec![]),
            Err(RemoteException::NoSuchMethod { .. })
        ));
    }

    #[test]
    fn stale_stub_fails_after_unexport() {
        let exports = UnicastRemoteObject::new();
        let obj = exports.export(Arc::new(FnRemote(|_: &str, _: &[Value]| Ok(Value::Null))));
        let stub = RmiStub::new(obj, exports.clone());
        assert!(stub.call("m", vec![]).is_ok());
        exports.unexport(obj);
        assert!(matches!(
            stub.call("m", vec![]),
            Err(RemoteException::NoSuchObject { .. })
        ));
    }

    #[test]
    fn byte_counters_grow_with_payload() {
        let stub = divider_stub();
        stub.call("divide", vec![Value::F64(1.0), Value::F64(2.0)]).unwrap();
        let small = stub.bytes_sent();
        // Extra args are marshalled and shipped even if the server ignores
        // them — the counter must reflect the fatter frame.
        stub.call(
            "divide",
            vec![Value::F64(1.0), Value::F64(2.0), Value::I32Array(vec![0; 1000])],
        )
        .unwrap();
        let grown = stub.bytes_sent() - small;
        assert!(grown > 4000, "1000 ints are >= 4000 wire bytes, got {grown}");
    }
}
