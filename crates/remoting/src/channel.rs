//! Channel abstractions and the transparent remote-object handle.
//!
//! A [`ClientChannel`] moves call messages to one endpoint and replies
//! back; a [`ChannelProvider`] resolves object URIs to client channels
//! (the role `ChannelServices.RegisterChannel` plays in .NET). On top of
//! both sits [`RemoteObject`] — the untyped transparent proxy every
//! generated typed proxy wraps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parc_serial::Value;

use crate::error::RemotingError;
use crate::message::{CallMessage, ReturnMessage};
use crate::retry::RetryPolicy;
use crate::uri::ObjectUri;

/// A client-side transport to one endpoint.
///
/// TCP has one implementation, the multiplexed
/// [`TcpClientChannel`](crate::tcp::TcpClientChannel), whose callers
/// read their own replies; `tests/transport_conformance.rs` pins its
/// semantics.
pub trait ClientChannel: Send + Sync {
    /// Performs a synchronous two-way call.
    ///
    /// # Errors
    ///
    /// Transport and server-side failures.
    fn call(&self, msg: &CallMessage) -> Result<ReturnMessage, RemotingError>;

    /// Posts a one-way call (fire and forget), returning the encoded
    /// payload size in bytes — the channel already serialized the message
    /// to send it, so callers that account for wire traffic (e.g. batch
    /// instrumentation) get the size without re-encoding. Delivery is
    /// asynchronous; server-side failures are not reported.
    ///
    /// # Errors
    ///
    /// Only local send failures.
    fn post(&self, msg: &CallMessage) -> Result<usize, RemotingError>;

    /// Short transport name for diagnostics ("inproc", "tcp", "http").
    fn scheme(&self) -> &'static str;

    /// Live link feedback — per-call RTT and the dispatch backlog the
    /// server piggybacks on its reply frames — when the transport
    /// collects it. The handle is stable for the channel's lifetime
    /// (feedback survives reconnects); `None` means the transport has no
    /// feedback path and callers should fall back to open-loop batching.
    fn feedback(&self) -> Option<Arc<LinkFeedback>> {
        None
    }
}

/// EWMA smoothing denominator for the link RTT: `alpha = 1/RTT_EWMA_DIV`.
const RTT_EWMA_DIV: u64 = 5;

/// What one client channel has learned about its link and its server:
/// a round-trip-time EWMA sampled on every two-way call, and the
/// server's dispatch backlog as piggybacked on reply frames (the
/// [`crate::frame::DepthExt`] extension). One instance per channel,
/// shared across reconnects, read lock-free by the aggregation
/// controller.
#[derive(Debug, Default)]
pub struct LinkFeedback {
    /// RTT EWMA in nanoseconds; 0 until the first sample.
    rtt_ewma_ns: AtomicU64,
    rtt_samples: AtomicU64,
    /// Last reported scheduler-wide pending jobs.
    pending: AtomicU64,
    /// Last reported deepest single mailbox.
    busiest: AtomicU64,
    depth_samples: AtomicU64,
}

impl LinkFeedback {
    /// A fresh, sample-free feedback handle.
    pub fn new() -> LinkFeedback {
        LinkFeedback::default()
    }

    /// Folds one measured round trip into the EWMA (`alpha = 0.2`,
    /// integer arithmetic so replayed tapes stay deterministic).
    pub fn record_rtt(&self, rtt: std::time::Duration) {
        let sample = rtt.as_nanos().min(u128::from(u64::MAX)) as u64;
        let prev = self.rtt_ewma_ns.load(Ordering::Relaxed);
        let next = if self.rtt_samples.fetch_add(1, Ordering::Relaxed) == 0 || prev == 0 {
            sample
        } else {
            prev - prev / RTT_EWMA_DIV + sample / RTT_EWMA_DIV
        };
        self.rtt_ewma_ns.store(next.max(1), Ordering::Relaxed);
    }

    /// Records a backlog report peeled off a reply frame.
    pub fn record_depth(&self, pending: usize, busiest: usize) {
        self.pending.store(pending as u64, Ordering::Relaxed);
        self.busiest.store(busiest as u64, Ordering::Relaxed);
        self.depth_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Smoothed round-trip time; `None` before the first two-way call.
    pub fn rtt(&self) -> Option<std::time::Duration> {
        match self.rtt_ewma_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(std::time::Duration::from_nanos(ns)),
        }
    }

    /// Last server backlog report `(pending, busiest_mailbox)`; `None`
    /// until the server has piggybacked at least one depth extension.
    pub fn depth(&self) -> Option<(usize, usize)> {
        if self.depth_samples.load(Ordering::Relaxed) == 0 {
            return None;
        }
        Some((
            self.pending.load(Ordering::Relaxed) as usize,
            self.busiest.load(Ordering::Relaxed) as usize,
        ))
    }

    /// Total RTT samples folded in so far.
    pub fn rtt_samples(&self) -> u64 {
        self.rtt_samples.load(Ordering::Relaxed)
    }

    /// Total depth reports received so far.
    pub fn depth_samples(&self) -> u64 {
        self.depth_samples.load(Ordering::Relaxed)
    }
}

/// Resolves object URIs to client channels.
pub trait ChannelProvider {
    /// Opens (or reuses) a channel to the endpoint a URI names.
    ///
    /// # Errors
    ///
    /// [`RemotingError::BadUri`] for foreign schemes,
    /// [`RemotingError::EndpointNotFound`] / transport errors for
    /// unreachable endpoints.
    fn open(&self, uri: &ObjectUri) -> Result<Arc<dyn ClientChannel>, RemotingError>;
}

static NEXT_CALL_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique call id.
pub fn next_call_id() -> u64 {
    NEXT_CALL_ID.fetch_add(1, Ordering::Relaxed)
}

/// An untyped transparent proxy to one published remote object.
///
/// Typed proxies generated by [`crate::remote_interface!`] wrap this;
/// the SCOOPP proxy objects (PO) in `parc-core` use it directly so they can
/// interpose aggregation before marshalling.
#[derive(Clone)]
pub struct RemoteObject {
    channel: Arc<dyn ClientChannel>,
    object: String,
    retry: RetryPolicy,
}

impl RemoteObject {
    /// Wraps a channel and a published object name. The proxy's retry
    /// policy comes from `PARC_RETRY` (default: 3 attempts); it applies
    /// to one-way posts and [`RemoteObject::call_idempotent`], never to
    /// plain [`RemoteObject::call`].
    pub fn new(channel: Arc<dyn ClientChannel>, object: impl Into<String>) -> RemoteObject {
        RemoteObject { channel, object: object.into(), retry: RetryPolicy::from_env() }
    }

    /// Replaces the retry policy (tests and benches pin one explicitly).
    pub fn with_retry(mut self, retry: RetryPolicy) -> RemoteObject {
        self.retry = retry;
        self
    }

    /// The proxy's retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The published object name this proxy targets.
    pub fn object(&self) -> &str {
        &self.object
    }

    /// The underlying channel.
    pub fn channel(&self) -> &Arc<dyn ClientChannel> {
        &self.channel
    }

    /// Synchronous method invocation; returns the marshalled result.
    ///
    /// # Errors
    ///
    /// Transport failures, marshalling failures, or a server fault.
    pub fn call(&self, method: &str, args: Vec<Value>) -> Result<Value, RemotingError> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::CALL);
        let mut msg = CallMessage::new(self.object.clone(), method, args);
        self.call_once(&mut msg)
    }

    /// Synchronous invocation of an *idempotent* method: transient
    /// transport failures and timeouts are retried under the proxy's
    /// [`RetryPolicy`], each attempt with a fresh call id. Callers mark a
    /// method idempotent by choosing this entry point — the contract is
    /// that re-executing it server-side is harmless, so retries give
    /// exactly-once *effects* even when the wire delivers at-least-once.
    ///
    /// # Errors
    ///
    /// The last transport failure when every attempt fails, or any
    /// non-retryable error immediately.
    pub fn call_idempotent(&self, method: &str, args: Vec<Value>) -> Result<Value, RemotingError> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::CALL);
        let mut msg = CallMessage::new(self.object.clone(), method, args);
        self.retry.run(|| self.call_once(&mut msg))
    }

    fn call_once(&self, msg: &mut CallMessage) -> Result<Value, RemotingError> {
        self.call_once_located(msg).map(|(value, _)| value)
    }

    fn call_once_located(
        &self,
        msg: &mut CallMessage,
    ) -> Result<(Value, Option<String>), RemotingError> {
        // A fresh id per attempt keeps a late reply to an abandoned
        // attempt from completing a retried call's correlation slot.
        msg.call_id = next_call_id();
        let reply = self.channel.call(msg)?;
        if reply.call_id != msg.call_id {
            return Err(RemotingError::Transport {
                detail: format!(
                    "reply correlation mismatch: sent {} got {}",
                    msg.call_id, reply.call_id
                ),
            });
        }
        reply.into_located()
    }

    /// Like [`RemoteObject::call`], but hands the argument vector back on
    /// failure so a failover layer can retry the same invocation against a
    /// *different* target (new object name, new channel) without cloning
    /// the arguments up front on the success path.
    ///
    /// # Errors
    ///
    /// The failure paired with the untouched arguments.
    pub fn call_reclaim(
        &self,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, (RemotingError, Vec<Value>)> {
        self.call_reclaim_located(method, args).map(|(value, _)| value)
    }

    /// Like [`RemoteObject::call_reclaim`], but also surfaces the `Moved`
    /// location when the reply travelled through a forwarding entry — the
    /// caller can repoint its channel at the object's new home.
    ///
    /// # Errors
    ///
    /// The failure paired with the untouched arguments.
    pub fn call_reclaim_located(
        &self,
        method: &str,
        args: Vec<Value>,
    ) -> Result<(Value, Option<String>), (RemotingError, Vec<Value>)> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::CALL);
        let mut msg = CallMessage::new(self.object.clone(), method, args);
        match self.call_once_located(&mut msg) {
            Ok(located) => Ok(located),
            Err(e) => Err((e, msg.args)),
        }
    }

    /// Asynchronous one-way invocation (no return value, no fault
    /// reporting) — the transport of SCOOPP's asynchronous method calls.
    /// Returns the encoded payload size in bytes.
    ///
    /// # Errors
    ///
    /// Only local send failures.
    pub fn post(&self, method: &str, args: Vec<Value>) -> Result<usize, RemotingError> {
        self.post_reclaim(method, args).map_err(|(e, _)| e)
    }

    /// Like [`RemoteObject::post`], but hands the argument vector back when
    /// every retry attempt failed (see [`RemoteObject::call_reclaim`]).
    ///
    /// # Errors
    ///
    /// The last send failure paired with the untouched arguments.
    pub fn post_reclaim(
        &self,
        method: &str,
        args: Vec<Value>,
    ) -> Result<usize, (RemotingError, Vec<Value>)> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::POST);
        let mut msg = CallMessage::one_way(self.object.clone(), method, args);
        msg.call_id = next_call_id();
        // One-way posts always retry transparently: there is no reply to
        // duplicate, so redelivery after a transient send failure is the
        // best available approximation of at-least-once.
        match self.retry.run(|| self.channel.post(&msg)) {
            Ok(n) => Ok(n),
            Err(e) => Err((e, msg.args)),
        }
    }

    /// Like [`RemoteObject::post_reclaim`], but hands the argument vector
    /// back on **success** as well: channels take the message by
    /// reference, so the arguments survive serialization untouched. The
    /// batch flush path uses this to check its pooled flat-encoded buffer
    /// back into the buffer pool once the bytes are on the wire.
    ///
    /// # Errors
    ///
    /// The last send failure paired with the untouched arguments.
    pub fn post_reclaim_always(
        &self,
        method: &str,
        args: Vec<Value>,
    ) -> Result<(usize, Vec<Value>), (RemotingError, Vec<Value>)> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::POST);
        let mut msg = CallMessage::one_way(self.object.clone(), method, args);
        msg.call_id = next_call_id();
        match self.retry.run(|| self.channel.post(&msg)) {
            Ok(n) => Ok((n, msg.args)),
            Err(e) => Err((e, msg.args)),
        }
    }
}

impl std::fmt::Debug for RemoteObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteObject")
            .field("object", &self.object)
            .field("scheme", &self.channel.scheme())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parc_sync::Mutex;

    /// Channel that records posted messages and answers calls with a canned
    /// reply.
    struct FakeChannel {
        posted: Mutex<Vec<CallMessage>>,
        reply_with_wrong_id: bool,
    }

    impl ClientChannel for FakeChannel {
        fn call(&self, msg: &CallMessage) -> Result<ReturnMessage, RemotingError> {
            let id = if self.reply_with_wrong_id { msg.call_id + 1 } else { msg.call_id };
            Ok(ReturnMessage::ok(id, Value::Str(msg.method.clone())))
        }

        fn post(&self, msg: &CallMessage) -> Result<usize, RemotingError> {
            self.posted.lock().push(msg.clone());
            // A fake never serializes, so it reports a zero wire size.
            Ok(0)
        }

        fn scheme(&self) -> &'static str {
            "fake"
        }
    }

    #[test]
    fn call_ids_are_unique_and_increasing() {
        let a = next_call_id();
        let b = next_call_id();
        assert!(b > a);
    }

    #[test]
    fn call_returns_server_value() {
        let obj = RemoteObject::new(
            Arc::new(FakeChannel { posted: Mutex::new(vec![]), reply_with_wrong_id: false }),
            "O",
        );
        assert_eq!(obj.call("ping", vec![]).unwrap(), Value::Str("ping".into()));
    }

    #[test]
    fn correlation_mismatch_is_transport_error() {
        let obj = RemoteObject::new(
            Arc::new(FakeChannel { posted: Mutex::new(vec![]), reply_with_wrong_id: true }),
            "O",
        );
        assert!(matches!(
            obj.call("ping", vec![]),
            Err(RemotingError::Transport { .. })
        ));
    }

    #[test]
    fn post_marks_oneway() {
        let chan = Arc::new(FakeChannel { posted: Mutex::new(vec![]), reply_with_wrong_id: false });
        let obj = RemoteObject::new(Arc::clone(&chan) as Arc<dyn ClientChannel>, "O");
        obj.post("fire", vec![Value::I32(1)]).unwrap();
        let posted = chan.posted.lock();
        assert_eq!(posted.len(), 1);
        assert!(posted[0].oneway);
        assert_eq!(posted[0].method, "fire");
        assert_eq!(posted[0].object, "O");
    }

    /// Channel that fails the first `fail_first` operations with a
    /// transport error, then succeeds.
    struct FlakyChannel {
        fail_first: u32,
        attempts: std::sync::atomic::AtomicU32,
    }

    impl FlakyChannel {
        fn trip(&self) -> Result<(), RemotingError> {
            use std::sync::atomic::Ordering;
            if self.attempts.fetch_add(1, Ordering::Relaxed) < self.fail_first {
                Err(RemotingError::Transport { detail: "flaky".into() })
            } else {
                Ok(())
            }
        }
    }

    impl ClientChannel for FlakyChannel {
        fn call(&self, msg: &CallMessage) -> Result<ReturnMessage, RemotingError> {
            self.trip()?;
            Ok(ReturnMessage::ok(msg.call_id, Value::I32(1)))
        }

        fn post(&self, _msg: &CallMessage) -> Result<usize, RemotingError> {
            self.trip()?;
            Ok(1)
        }

        fn scheme(&self) -> &'static str {
            "flaky"
        }
    }

    fn flaky_object(fail_first: u32, attempts: u32) -> RemoteObject {
        use crate::retry::RetryPolicy;
        use std::time::Duration;
        RemoteObject::new(
            Arc::new(FlakyChannel { fail_first, attempts: std::sync::atomic::AtomicU32::new(0) }),
            "O",
        )
        .with_retry(RetryPolicy::new(attempts, Duration::ZERO, Duration::ZERO))
    }

    #[test]
    fn posts_retry_transient_failures() {
        assert_eq!(flaky_object(2, 3).post("fire", vec![]).unwrap(), 1);
    }

    #[test]
    fn idempotent_calls_retry_transient_failures() {
        assert_eq!(flaky_object(2, 3).call_idempotent("get", vec![]).unwrap(), Value::I32(1));
    }

    #[test]
    fn plain_calls_never_retry() {
        let obj = flaky_object(1, 5);
        assert!(obj.call("mutate", vec![]).is_err(), "first failure must surface");
        assert_eq!(obj.call("mutate", vec![]).unwrap(), Value::I32(1));
    }

    #[test]
    fn retries_exhaust_into_last_error() {
        let obj = flaky_object(10, 3);
        assert!(matches!(
            obj.call_idempotent("get", vec![]),
            Err(RemotingError::Transport { .. })
        ));
    }

    #[test]
    fn reclaim_variants_hand_arguments_back_on_failure() {
        let obj = flaky_object(10, 1);
        let args = vec![Value::I32(7), Value::Str("x".into())];
        let (e, back) = obj.call_reclaim("m", args.clone()).unwrap_err();
        assert!(e.is_retryable());
        assert_eq!(back, args);
        let (_, back) = obj.post_reclaim("m", args.clone()).unwrap_err();
        assert_eq!(back, args);
        // And the success path still completes through the same entry points.
        let healthy = flaky_object(0, 1);
        assert_eq!(healthy.call_reclaim("m", args.clone()).unwrap(), Value::I32(1));
        assert_eq!(healthy.post_reclaim("m", args).unwrap(), 1);
    }

    #[test]
    fn feedback_defaults_to_none() {
        let chan: Arc<dyn ClientChannel> =
            Arc::new(FakeChannel { posted: Mutex::new(vec![]), reply_with_wrong_id: false });
        assert!(chan.feedback().is_none());
    }

    #[test]
    fn link_feedback_tracks_rtt_and_depth() {
        use std::time::Duration;
        let fb = LinkFeedback::new();
        assert_eq!(fb.rtt(), None);
        assert_eq!(fb.depth(), None);
        fb.record_rtt(Duration::from_micros(100));
        assert_eq!(fb.rtt(), Some(Duration::from_micros(100)), "first sample is adopted as-is");
        fb.record_rtt(Duration::from_micros(200));
        // 100_000 - 20_000 + 40_000 = 120_000 ns: integer EWMA, alpha 1/5.
        assert_eq!(fb.rtt(), Some(Duration::from_nanos(120_000)));
        fb.record_depth(40, 7);
        assert_eq!(fb.depth(), Some((40, 7)));
        fb.record_depth(0, 0);
        assert_eq!(fb.depth(), Some((0, 0)), "a zero report is still a report");
        assert_eq!(fb.rtt_samples(), 2);
        assert_eq!(fb.depth_samples(), 2);
    }

    #[test]
    fn post_reclaim_always_returns_args_on_success() {
        let obj = flaky_object(0, 1);
        let args = vec![Value::Bytes(vec![1, 2, 3])];
        let (n, back) = obj.post_reclaim_always("m", args.clone()).unwrap();
        assert_eq!(n, 1);
        assert_eq!(back, args);
        let failing = flaky_object(10, 1);
        let (_, back) = failing.post_reclaim_always("m", args.clone()).unwrap_err();
        assert_eq!(back, args);
    }

    #[test]
    fn debug_shows_object_and_scheme() {
        let obj = RemoteObject::new(
            Arc::new(FakeChannel { posted: Mutex::new(vec![]), reply_with_wrong_id: false }),
            "Widget",
        );
        let dbg = format!("{obj:?}");
        assert!(dbg.contains("Widget") && dbg.contains("fake"));
    }
}
