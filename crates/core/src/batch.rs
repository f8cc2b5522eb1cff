//! The aggregate-call protocol — the generalized `processN` of Fig. 7.
//!
//! When a proxy object aggregates asynchronous calls, it ships one message
//! whose method is [`FLAT_BATCH_METHOD`] and whose single `Bytes` argument
//! is a concatenation of length-prefixed, pre-serialized calls. The
//! paper's preprocessor generated a dedicated `processN` per method; here
//! a generic [`BatchDispatcher`] wrapper replays any batch in order
//! against the wrapped implementation object, so every IO accepts both
//! plain and aggregated calls.

use std::sync::Arc;

use parc_remoting::{Invokable, RemotingError};
use parc_serial::{BinaryFormatter, Formatter, Value};

/// Reserved method name for aggregate messages: one `Bytes` argument
/// holding length-prefixed pre-serialized calls (see
/// [`encode_flat_call`]). The proxy serializes each call once at enqueue
/// time into a recycled pool buffer, and the dispatcher replays entries
/// streaming — neither side materializes an intermediate `Value` list.
pub const FLAT_BATCH_METHOD: &str = "__batch_flat";

/// Appends one call to a flat batch buffer.
///
/// Entry layout, all lengths big-endian `u32`:
/// `method_len | method utf-8 | argc | argc × (arg_len | arg bytes)`,
/// where each argument is one self-contained [`BinaryFormatter`] encoding.
/// The buffer is plain bytes — callers recycle it through the channel
/// buffer pool and ship it as the single `Bytes` argument of
/// [`FLAT_BATCH_METHOD`].
///
/// # Errors
///
/// [`RemotingError::Serial`] when an argument will not encode.
pub fn encode_flat_call(
    formatter: &BinaryFormatter,
    buf: &mut Vec<u8>,
    method: &str,
    args: &[Value],
) -> Result<(), RemotingError> {
    let method_bytes = method.as_bytes();
    buf.extend_from_slice(&(u32::try_from(method_bytes.len()).unwrap_or(u32::MAX)).to_be_bytes());
    buf.extend_from_slice(method_bytes);
    buf.extend_from_slice(&(args.len() as u32).to_be_bytes());
    for arg in args {
        // Length slot first, value appended in place, then the slot is
        // patched — one pass, no per-argument scratch buffer.
        let slot = buf.len();
        buf.extend_from_slice(&[0u8; 4]);
        formatter.serialize_into(arg, buf)?;
        let len = u32::try_from(buf.len() - slot - 4).map_err(|_| {
            RemotingError::BadArguments {
                method: FLAT_BATCH_METHOD.to_string(),
                detail: "argument encoding exceeds u32 length prefix".to_string(),
            }
        })?;
        buf[slot..slot + 4].copy_from_slice(&len.to_be_bytes());
    }
    Ok(())
}

/// Streaming decoder over a flat batch payload: yields one
/// `(method, args)` at a time, deserializing arguments on demand — the
/// whole batch is never materialized at once.
pub struct FlatBatchReader<'a> {
    formatter: &'a BinaryFormatter,
    bytes: &'a [u8],
}

impl<'a> FlatBatchReader<'a> {
    /// Reads `bytes` (an [`encode_flat_call`] concatenation) with
    /// `formatter`.
    pub fn new(formatter: &'a BinaryFormatter, bytes: &'a [u8]) -> FlatBatchReader<'a> {
        FlatBatchReader { formatter, bytes }
    }

    fn malformed(detail: &str) -> RemotingError {
        RemotingError::BadArguments {
            method: FLAT_BATCH_METHOD.to_string(),
            detail: detail.to_string(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RemotingError> {
        if self.bytes.len() < n {
            return Err(Self::malformed("truncated flat batch"));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn take_u32(&mut self) -> Result<usize, RemotingError> {
        let raw = self.take(4)?;
        Ok(u32::from_be_bytes([raw[0], raw[1], raw[2], raw[3]]) as usize)
    }

    fn next_entry(&mut self) -> Result<(String, Vec<Value>), RemotingError> {
        let method_len = self.take_u32()?;
        let method = std::str::from_utf8(self.take(method_len)?)
            .map_err(|_| Self::malformed("method name is not utf-8"))?
            .to_string();
        let argc = self.take_u32()?;
        let mut args = Vec::with_capacity(argc.min(64));
        for _ in 0..argc {
            let len = self.take_u32()?;
            let encoded = self.take(len)?;
            args.push(
                self.formatter
                    .deserialize(encoded)
                    .map_err(|_| Self::malformed("argument does not decode"))?,
            );
        }
        Ok((method, args))
    }
}

impl Iterator for FlatBatchReader<'_> {
    type Item = Result<(String, Vec<Value>), RemotingError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.bytes.is_empty() {
            return None;
        }
        match self.next_entry() {
            Ok(entry) => Some(Ok(entry)),
            Err(e) => {
                // Poison the stream: a framing error is unrecoverable.
                self.bytes = &[];
                Some(Err(e))
            }
        }
    }
}

/// Wraps an implementation object so it also understands aggregate
/// messages. Calls inside a batch run in order on the caller's dispatch
/// thread; the batch returns `Null` (its members were asynchronous calls,
/// which have no results by definition).
pub struct BatchDispatcher {
    inner: Arc<dyn Invokable>,
    formatter: BinaryFormatter,
}

impl BatchDispatcher {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Invokable>) -> BatchDispatcher {
        BatchDispatcher { inner, formatter: BinaryFormatter::new() }
    }
}

impl Invokable for BatchDispatcher {
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, RemotingError> {
        if method != FLAT_BATCH_METHOD {
            return self.inner.invoke(method, args);
        }
        let bytes = match args.first() {
            Some(Value::Bytes(b)) => b,
            Some(_) => return Err(FlatBatchReader::malformed("flat batch argument not bytes")),
            None => return Err(FlatBatchReader::malformed("missing batch argument")),
        };
        for entry in FlatBatchReader::new(&self.formatter, bytes) {
            let (m, a) = entry?;
            // A failure mid-batch aborts the rest — same as N one-way
            // calls where call k crashed the server object.
            self.inner.invoke(&m, &a)?;
        }
        Ok(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parc_remoting::dispatcher::FnInvokable;
    use parc_sync::Mutex;

    type CallLog = Arc<Mutex<Vec<(String, i32)>>>;

    fn recorder() -> (CallLog, Arc<dyn Invokable>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let obj: Arc<dyn Invokable> = Arc::new(FnInvokable(move |method: &str, args: &[Value]| {
            if method == "boom" {
                return Err(RemotingError::ServerFault { detail: "boom".into() });
            }
            log2.lock()
                .push((method.to_string(), args.first().and_then(Value::as_i32).unwrap_or(-1)));
            Ok(Value::I32(0))
        }));
        (log, obj)
    }

    #[test]
    fn non_batch_calls_pass_through() {
        let (log, obj) = recorder();
        let d = BatchDispatcher::new(obj);
        d.invoke("direct", &[Value::I32(7)]).unwrap();
        assert_eq!(log.lock().as_slice(), &[("direct".to_string(), 7)]);
    }

    fn flat(calls: &[(&str, Vec<Value>)]) -> Vec<u8> {
        let f = BinaryFormatter::new();
        let mut buf = Vec::new();
        for (m, a) in calls {
            encode_flat_call(&f, &mut buf, m, a).unwrap();
        }
        buf
    }

    #[test]
    fn flat_roundtrip_preserves_calls_and_order() {
        let calls = vec![
            ("a", vec![Value::I32(1)]),
            ("b", vec![Value::I32(2), Value::Str("x".into())]),
            ("c", vec![]),
        ];
        let bytes = flat(&calls);
        let f = BinaryFormatter::new();
        let decoded: Vec<(String, Vec<Value>)> =
            FlatBatchReader::new(&f, &bytes).collect::<Result<_, _>>().unwrap();
        let expected: Vec<(String, Vec<Value>)> =
            calls.into_iter().map(|(m, a)| (m.to_string(), a)).collect();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn flat_batch_dispatches_in_order() {
        let (log, obj) = recorder();
        let d = BatchDispatcher::new(obj);
        let calls: Vec<(&str, Vec<Value>)> =
            (0..10).map(|i| ("work", vec![Value::I32(i)])).collect();
        d.invoke(FLAT_BATCH_METHOD, &[Value::Bytes(flat(&calls))]).unwrap();
        let seen: Vec<i32> = log.lock().iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn flat_failure_mid_batch_stops_the_rest() {
        let (log, obj) = recorder();
        let d = BatchDispatcher::new(obj);
        let calls = [
            ("ok", vec![Value::I32(1)]),
            ("boom", vec![]),
            ("never", vec![Value::I32(3)]),
        ];
        assert!(d.invoke(FLAT_BATCH_METHOD, &[Value::Bytes(flat(&calls))]).is_err());
        assert_eq!(log.lock().len(), 1);
    }

    #[test]
    fn malformed_flat_batches_rejected() {
        let (_, obj) = recorder();
        let d = BatchDispatcher::new(obj);
        assert!(d.invoke(FLAT_BATCH_METHOD, &[]).is_err());
        assert!(d.invoke(FLAT_BATCH_METHOD, &[Value::I32(1)]).is_err());
        // Truncated mid-entry.
        let mut bytes = flat(&[("work", vec![Value::I32(7)])]);
        bytes.truncate(bytes.len() - 2);
        assert!(d.invoke(FLAT_BATCH_METHOD, &[Value::Bytes(bytes)]).is_err());
        // Garbage where an argument encoding should be.
        let mut garbage = Vec::new();
        garbage.extend_from_slice(&4u32.to_be_bytes());
        garbage.extend_from_slice(b"work");
        garbage.extend_from_slice(&1u32.to_be_bytes());
        garbage.extend_from_slice(&3u32.to_be_bytes());
        garbage.extend_from_slice(&[0xde, 0xad, 0xbe]);
        assert!(d.invoke(FLAT_BATCH_METHOD, &[Value::Bytes(garbage)]).is_err());
    }

    #[test]
    fn empty_flat_batch_is_a_noop() {
        let (log, obj) = recorder();
        let d = BatchDispatcher::new(obj);
        assert_eq!(d.invoke(FLAT_BATCH_METHOD, &[Value::Bytes(vec![])]).unwrap(), Value::Null);
        assert!(log.lock().is_empty());
    }
}
