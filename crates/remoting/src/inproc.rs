//! In-process channel: real threads, real queues, real serialized bytes —
//! no sockets.
//!
//! An [`InprocNetwork`] is a registry of named endpoints inside one
//! process. Each endpoint owns a per-object [`MailboxScheduler`] (the same
//! active-object discipline the TCP server uses: calls to one object
//! serial and in order, distinct objects in parallel on work-stealing
//! workers), so concurrency semantics match the socket channels: calls
//! from many client threads interleave on the server exactly as they
//! would across machines. The calling thread encodes its call, decodes it
//! as a server would and enqueues it on the target object's mailbox
//! itself; the worker that runs it completes the caller's reply slot. A
//! call crosses two threads — caller and worker — and no router. Payloads
//! still pass through the binary formatter, so marshalling costs and wire
//! sizes are identical to the TCP channel — only the wire itself is a
//! queue.
//!
//! [`InprocNetwork::stop_endpoint`] behaves like a crash with no timing
//! window: a send either lands before it or fails with a transport error,
//! jobs that have not started are discarded (their callers fail at once)
//! and jobs already running finish.
//!
//! This is the channel the single-machine SCOOPP runtime and most tests
//! use; URIs look like `inproc://node0/PrimeServer`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_serial::BinaryFormatter;
use parc_sync::RwLock;

use crate::channel::{ChannelProvider, ClientChannel, LinkFeedback};
use crate::dispatcher::{serve_call, Origin};
use crate::error::RemotingError;
use crate::mailbox::{DispatchDepth, MailboxScheduler};
use crate::message::{CallMessage, ReturnMessage};
use crate::slot::Slot;
use crate::uri::{ObjectUri, Scheme};
use crate::wellknown::ObjectTable;

/// Default reply timeout for in-process calls when `PARC_CALL_TIMEOUT`
/// is unset. Generous — a stuck server object is a bug, not a slow
/// network. The live value each opened channel uses is
/// [`crate::retry::call_timeout`].
pub const DEFAULT_TIMEOUT: Duration = crate::retry::DEFAULT_CALL_TIMEOUT;

/// A reply's bytes and the endpoint's backlog (`pending`, `busiest`) at
/// reply time — the in-process analogue of a reply frame with a
/// [`crate::frame::DepthExt`], so the caller's aggregation controller
/// sees backpressure.
type ReplyOutcome = Result<(Vec<u8>, (usize, usize)), RemotingError>;

fn stopped() -> RemotingError {
    RemotingError::Transport { detail: "endpoint stopped".into() }
}

/// The server's end of one caller's completion slot. Dropped unsent — its
/// job discarded by a stop, or its reply unencodable — it fails the
/// caller at once.
struct Reply(Option<Arc<Slot<ReplyOutcome>>>);

impl Reply {
    /// Encodes `out` and completes the caller's slot, stamping the live
    /// backlog sampled now (the write-time freshness TCP's `DepthExt` has).
    fn send(mut self, out: &ReturnMessage, depth: &DispatchDepth) {
        let Ok(bytes) = out.encode(&BinaryFormatter::new()) else { return };
        if let Some(slot) = self.0.take() {
            slot.complete(Ok((bytes, (depth.pending(), depth.max_object_depth()))));
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.complete(Err(stopped()));
        }
    }
}

/// What a live endpoint serves calls with. [`InprocNetwork::stop_endpoint`]
/// takes it, which also breaks the reference cycles that objects holding
/// channels to sibling nodes form.
struct Serving {
    objects: ObjectTable,
    scheduler: Arc<MailboxScheduler>,
    /// Interned endpoint name: every span dispatched here is tagged with
    /// it, so multi-node traces in one process stay attributable per node.
    node: u32,
}

struct EndpointShared {
    /// `None` once stopped. Senders hold the read lock across their
    /// enqueue, so a stop (the write lock) never races one.
    serving: RwLock<Option<Serving>>,
    bytes_received: AtomicU64,
    messages_received: AtomicU64,
}

/// Registry of in-process endpoints.
#[derive(Clone, Default)]
pub struct InprocNetwork {
    endpoints: Arc<RwLock<HashMap<String, Arc<EndpointShared>>>>,
}

impl InprocNetwork {
    /// Creates an empty network.
    pub fn new() -> InprocNetwork {
        InprocNetwork::default()
    }

    /// Creates and starts an endpoint with the configured mailbox worker
    /// count ([`crate::mailbox::workers_from_env`]).
    ///
    /// # Errors
    ///
    /// [`RemotingError::Transport`] if the name is already taken.
    pub fn create_endpoint(&self, name: impl Into<String>) -> Result<InprocEndpoint, RemotingError> {
        self.create_endpoint_with_workers(name, crate::mailbox::workers_from_env())
    }

    /// Creates and starts an endpoint whose mailbox scheduler runs
    /// `workers` dispatch threads. Per-object FIFO order is guaranteed at
    /// any worker count; `workers` only bounds cross-object parallelism.
    ///
    /// # Errors
    ///
    /// [`RemotingError::Transport`] if the name is already taken.
    pub fn create_endpoint_with_workers(
        &self,
        name: impl Into<String>,
        workers: usize,
    ) -> Result<InprocEndpoint, RemotingError> {
        let name = name.into();
        let mut endpoints = self.endpoints.write();
        if endpoints.contains_key(&name) {
            return Err(RemotingError::Transport {
                detail: format!("endpoint {name:?} already exists"),
            });
        }
        let objects = ObjectTable::new();
        let scheduler = Arc::new(MailboxScheduler::with_workers(workers));
        let serving = Serving {
            objects: objects.clone(),
            scheduler: Arc::clone(&scheduler),
            node: parc_obs::trace::node_id(&name),
        };
        endpoints.insert(
            name.clone(),
            Arc::new(EndpointShared {
                serving: RwLock::new(Some(serving)),
                bytes_received: AtomicU64::new(0),
                messages_received: AtomicU64::new(0),
            }),
        );
        Ok(InprocEndpoint { name, objects, network: self.clone(), scheduler })
    }

    /// Names of live endpoints (sorted).
    pub fn endpoint_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.endpoints.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Total bytes delivered to `endpoint` so far (diagnostics/benchmarks).
    pub fn bytes_received(&self, endpoint: &str) -> Option<u64> {
        self.endpoints
            .read()
            .get(endpoint)
            .map(|e| e.bytes_received.load(Ordering::Relaxed))
    }

    /// Total messages delivered to `endpoint` so far.
    pub fn messages_received(&self, endpoint: &str) -> Option<u64> {
        self.endpoints
            .read()
            .get(endpoint)
            .map(|e| e.messages_received.load(Ordering::Relaxed))
    }

    /// Hard-stops an endpoint, simulating a node crash: the endpoint is
    /// unregistered (new opens fail with `EndpointNotFound`), channels
    /// already held by clients fail every later send with a transport
    /// error, and queued calls that have not started are discarded, so
    /// their callers fail at once. Calls already running finish. Returns
    /// `false` when no such endpoint exists.
    pub fn stop_endpoint(&self, name: &str) -> bool {
        let Some(shared) = self.endpoints.write().remove(name) else {
            return false;
        };
        // Taken under the lock, halted and dropped outside it: discarded
        // jobs and the published objects may own channels whose drop
        // re-enters this network.
        let serving = shared.serving.write().take();
        if let Some(serving) = serving {
            serving.scheduler.halt();
        }
        true
    }

    fn remove(&self, name: &str) {
        // Dropped outside the registry lock: the last handle may take the
        // endpoint's objects and scheduler with it.
        let removed = self.endpoints.write().remove(name);
        drop(removed);
    }

    /// Opens a client on `uri`'s endpoint with a per-call deadline.
    fn client(&self, uri: &ObjectUri, timeout: Duration) -> Result<InprocClient, RemotingError> {
        if uri.scheme() != Scheme::Inproc {
            return Err(RemotingError::BadUri {
                uri: uri.to_string(),
                detail: "inproc network only serves inproc:// uris".into(),
            });
        }
        let shared = self.endpoints.read().get(uri.authority()).cloned().ok_or_else(|| {
            RemotingError::EndpointNotFound { endpoint: uri.authority().to_string() }
        })?;
        Ok(InprocClient { shared, timeout, feedback: Arc::new(LinkFeedback::new()) })
    }

    /// Opens a channel with an explicit per-call deadline, bypassing the
    /// `PARC_CALL_TIMEOUT` default (tests pin short deadlines without
    /// touching the process environment). Never chaos-wrapped.
    ///
    /// # Errors
    ///
    /// Same as [`ChannelProvider::open`].
    pub fn open_with_timeout(
        &self,
        uri: &ObjectUri,
        timeout: Duration,
    ) -> Result<Arc<dyn ClientChannel>, RemotingError> {
        Ok(Arc::new(self.client(uri, timeout)?))
    }
}

impl std::fmt::Debug for InprocNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InprocNetwork").field("endpoints", &self.endpoint_names()).finish()
    }
}

/// A live in-process endpoint (server side). Dropping it unregisters the
/// endpoint; channels already open keep being served until the last of
/// them drops, and the scheduler then drains its queue and exits.
/// [`InprocNetwork::stop_endpoint`] severs them instead.
pub struct InprocEndpoint {
    name: String,
    objects: ObjectTable,
    network: InprocNetwork,
    scheduler: Arc<MailboxScheduler>,
}

impl InprocEndpoint {
    /// The endpoint's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The endpoint's published-object table.
    pub fn objects(&self) -> &ObjectTable {
        &self.objects
    }

    /// Live backlog view of this endpoint's mailbox scheduler (always
    /// `Some`). The handle stays valid after the endpoint drops.
    pub fn dispatch_depth(&self) -> Option<DispatchDepth> {
        Some(self.scheduler.depth_handle())
    }

    /// Scheduler counter snapshot (always `Some`).
    pub fn dispatch_stats(&self) -> Option<crate::mailbox::DispatchStats> {
        Some(self.scheduler.stats())
    }
}

impl Drop for InprocEndpoint {
    fn drop(&mut self) {
        self.network.remove(&self.name);
    }
}

impl std::fmt::Debug for InprocEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InprocEndpoint").field("name", &self.name).finish()
    }
}

/// Client side of an in-process channel.
pub struct InprocClient {
    shared: Arc<EndpointShared>,
    timeout: Duration,
    feedback: Arc<LinkFeedback>,
}

impl InprocClient {
    /// Encodes `msg`, decodes it as the server would and hands it to the
    /// shared `serve_call`, which enqueues it on the target object's
    /// mailbox; returns the encoded payload size. `reply` is `None` for a
    /// post.
    /// A send either lands before a concurrent stop or fails here; one
    /// that lands but has not started when the stop comes is discarded
    /// with the rest of the queue, as a crash would lose it.
    fn send(&self, msg: &CallMessage, reply: Option<Reply>) -> Result<usize, RemotingError> {
        let formatter = BinaryFormatter::new();
        let bytes = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::SERIALIZE);
            msg.encode(&formatter)?
        };
        let _span = parc_obs::Span::enter(parc_obs::kinds::CHANNEL_SEND);
        // Captured inside the send span: the server dispatch becomes a
        // child of this `channel.send`, mirroring the TCP transport.
        let trace = parc_obs::trace::current_for_wire();
        let decoded = CallMessage::decode(&formatter, &bytes).map_err(|e| e.to_string());
        let serving = self.shared.serving.read();
        let serving = serving.as_ref().ok_or_else(stopped)?;
        self.shared.bytes_received.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.shared.messages_received.fetch_add(1, Ordering::Relaxed);
        let reply = reply.map(|reply| {
            let depth = serving.scheduler.depth_handle();
            move |out: &ReturnMessage| reply.send(out, &depth)
        });
        let origin = Origin { trace, node: Some(serving.node) };
        serve_call(&serving.scheduler, &serving.objects, origin, decoded, reply);
        Ok(bytes.len())
    }
}

impl ClientChannel for InprocClient {
    fn call(&self, msg: &CallMessage) -> Result<ReturnMessage, RemotingError> {
        let started = Instant::now();
        let slot = Slot::new();
        self.send(msg, Some(Reply(Some(Arc::clone(&slot)))))?;
        let (bytes, (pending, busiest)) = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::CHANNEL_RECV);
            match slot.wait(&self.feedback, started + self.timeout) {
                Some(outcome) => outcome?,
                None => return Err(RemotingError::timed_out(started.elapsed(), self.timeout)),
            }
        };
        self.feedback.record_rtt(started.elapsed());
        self.feedback.record_depth(pending, busiest);
        let _span = parc_obs::Span::enter(parc_obs::kinds::DESERIALIZE);
        Ok(ReturnMessage::decode(&BinaryFormatter::new(), &bytes)?)
    }

    fn post(&self, msg: &CallMessage) -> Result<usize, RemotingError> {
        self.send(msg, None)
    }

    fn scheme(&self) -> &'static str {
        "inproc"
    }

    fn feedback(&self) -> Option<Arc<LinkFeedback>> {
        Some(Arc::clone(&self.feedback))
    }
}

impl ChannelProvider for InprocNetwork {
    fn open(&self, uri: &ObjectUri) -> Result<Arc<dyn ClientChannel>, RemotingError> {
        let client = self.client(uri, crate::retry::call_timeout())?;
        Ok(crate::fault::wrap_if_chaotic(Arc::new(client)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RemoteObject;
    use crate::dispatcher::FnInvokable;
    use parc_serial::Value;
    use std::sync::mpsc;

    fn adder_network() -> (InprocNetwork, InprocEndpoint) {
        let net = InprocNetwork::new();
        let ep = net.create_endpoint("node0").unwrap();
        ep.objects().register_singleton(
            "Adder",
            Arc::new(FnInvokable(|method: &str, args: &[Value]| match method {
                "add" => {
                    let a = args[0].as_i32().unwrap_or(0);
                    let b = args[1].as_i32().unwrap_or(0);
                    Ok(Value::I32(a + b))
                }
                "sleepy" => {
                    std::thread::sleep(Duration::from_millis(20));
                    Ok(Value::Null)
                }
                _ => Err(RemotingError::MethodNotFound {
                    object: "Adder".into(),
                    method: method.into(),
                }),
            })),
        );
        (net, ep)
    }

    fn proxy(net: &InprocNetwork, uri: &str) -> RemoteObject {
        let uri: ObjectUri = uri.parse().unwrap();
        let chan = net.open(&uri).unwrap();
        RemoteObject::new(chan, uri.object())
    }

    #[test]
    fn sync_call_roundtrips() {
        let (net, _ep) = adder_network();
        let adder = proxy(&net, "inproc://node0/Adder");
        assert_eq!(
            adder.call("add", vec![Value::I32(2), Value::I32(3)]).unwrap(),
            Value::I32(5)
        );
    }

    #[test]
    fn unknown_endpoint_fails_at_open() {
        let (net, _ep) = adder_network();
        let uri: ObjectUri = "inproc://ghost/Adder".parse().unwrap();
        assert!(matches!(
            net.open(&uri),
            Err(RemotingError::EndpointNotFound { .. })
        ));
    }

    #[test]
    fn unknown_object_is_server_fault() {
        let (net, _ep) = adder_network();
        let ghost = proxy(&net, "inproc://node0/Ghost");
        assert!(matches!(
            ghost.call("add", vec![]),
            Err(RemotingError::ServerFault { .. })
        ));
    }

    #[test]
    fn wrong_scheme_rejected() {
        let (net, _ep) = adder_network();
        let uri: ObjectUri = "tcp://node0:1/Adder".parse().unwrap();
        assert!(matches!(net.open(&uri), Err(RemotingError::BadUri { .. })));
    }

    #[test]
    fn duplicate_endpoint_rejected() {
        let net = InprocNetwork::new();
        let _a = net.create_endpoint("dup").unwrap();
        assert!(net.create_endpoint("dup").is_err());
    }

    #[test]
    fn endpoint_drop_unregisters() {
        let net = InprocNetwork::new();
        {
            let _ep = net.create_endpoint("transient").unwrap();
            assert_eq!(net.endpoint_names(), vec!["transient"]);
        }
        assert!(net.endpoint_names().is_empty());
    }

    #[test]
    fn stop_endpoint_severs_held_channels() {
        let (net, _ep) = adder_network();
        let adder = proxy(&net, "inproc://node0/Adder");
        assert!(adder.call("add", vec![Value::I32(1), Value::I32(1)]).is_ok());
        assert!(net.stop_endpoint("node0"));
        assert!(!net.stop_endpoint("node0"), "second stop is a no-op");
        // New opens fail fast...
        let uri: ObjectUri = "inproc://node0/Adder".parse().unwrap();
        assert!(matches!(net.open(&uri), Err(RemotingError::EndpointNotFound { .. })));
        // ...and so does every send on a channel opened before the crash.
        assert!(matches!(
            adder.call("add", vec![Value::I32(1), Value::I32(1)]),
            Err(RemotingError::Transport { .. })
        ));
        assert!(matches!(adder.post("add", vec![]), Err(RemotingError::Transport { .. })));
    }

    #[test]
    fn stop_fails_a_call_queued_behind_a_running_job_at_once() {
        let net = InprocNetwork::new();
        let ep = net.create_endpoint_with_workers("node0", 1).unwrap();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = parc_sync::Mutex::new(gate_rx);
        ep.objects().register_singleton(
            "Gate",
            Arc::new(FnInvokable(move |method: &str, _args: &[Value]| {
                if method == "block" {
                    entered_tx.send(()).unwrap();
                    gate_rx.lock().recv_timeout(Duration::from_secs(10)).expect("gate");
                }
                Ok(Value::Null)
            })),
        );
        let blocker = proxy(&net, "inproc://node0/Gate");
        let blocked = std::thread::spawn(move || blocker.call("block", vec![]));
        entered_rx.recv_timeout(Duration::from_secs(5)).expect("blocker never ran");
        let queued = proxy(&net, "inproc://node0/Gate");
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = queued.call("quick", vec![]);
            done_tx.send((outcome, std::time::Instant::now())).unwrap();
        });
        let depth = ep.dispatch_depth().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while depth.object_depth("Gate") == 0 {
            assert!(std::time::Instant::now() < deadline, "second call never queued");
            std::thread::yield_now();
        }
        let stopped_at = std::time::Instant::now();
        assert!(net.stop_endpoint("node0"));
        let (outcome, failed_at) = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(outcome, Err(RemotingError::Transport { .. })), "{outcome:?}");
        let waited = failed_at - stopped_at;
        assert!(waited < Duration::from_millis(100), "queued call failed after {waited:?}");
        // The running job finishes and replies.
        gate_tx.send(()).unwrap();
        assert_eq!(blocked.join().unwrap().unwrap(), Value::Null);
    }

    #[test]
    fn calls_racing_a_stop_see_ok_or_transport_never_timeout() {
        let (net, _ep) = adder_network();
        let uri: ObjectUri = "inproc://node0/Adder".parse().unwrap();
        // Every caller has a call behind it and keeps calling when the
        // stop comes; "sleepy" calls keep the object's mailbox queued.
        let started = std::sync::Barrier::new(5);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let chan = net.open_with_timeout(&uri, Duration::from_secs(2)).unwrap();
                let started = &started;
                scope.spawn(move || {
                    let adder = RemoteObject::new(chan, "Adder");
                    for i in 0.. {
                        let method = if (t + i) % 3 == 0 { "sleepy" } else { "add" };
                        match adder.call(method, vec![Value::I32(1), Value::I32(2)]) {
                            Ok(_) if i == 0 => {
                                started.wait();
                            }
                            Ok(_) => {}
                            Err(RemotingError::Transport { .. }) if i > 0 => return,
                            Err(other) => panic!("caller {t} saw {other:?}"),
                        }
                    }
                });
            }
            started.wait();
            assert!(net.stop_endpoint("node0"));
        });
    }

    #[test]
    fn concurrent_calls_from_many_threads() {
        let (net, _ep) = adder_network();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let net = net.clone();
                scope.spawn(move || {
                    let adder = proxy(&net, "inproc://node0/Adder");
                    for i in 0..50 {
                        let v = adder
                            .call("add", vec![Value::I32(t), Value::I32(i)])
                            .unwrap();
                        assert_eq!(v, Value::I32(t + i));
                    }
                });
            }
        });
    }

    #[test]
    fn oneway_posts_are_counted_but_unreplied() {
        let (net, _ep) = adder_network();
        let adder = proxy(&net, "inproc://node0/Adder");
        for _ in 0..10 {
            adder.post("sleepy", vec![]).unwrap();
        }
        // Counted at the send itself, not when a worker gets to them.
        assert_eq!(net.messages_received("node0"), Some(10));
        assert!(net.bytes_received("node0").unwrap() > 0);
    }

    #[test]
    fn method_panic_under_mailbox_dispatch_faults_fast() {
        // Regression: a panicking method used to be contained by the
        // mailbox worker's catch_unwind without ever sending a reply, so
        // the caller burned its whole deadline on a dead slot. Now the
        // dispatcher converts the panic to a ServerFault reply.
        let net = InprocNetwork::new();
        let ep = net.create_endpoint_with_workers("panicky", 2).unwrap();
        ep.objects().register_singleton(
            "Bomb",
            Arc::new(FnInvokable(|_m: &str, _a: &[Value]| -> Result<Value, RemotingError> {
                panic!("mailbox boom")
            })),
        );
        let bomb = proxy(&net, "inproc://panicky/Bomb");
        let started = std::time::Instant::now();
        match bomb.call("tick", vec![]) {
            Err(RemotingError::ServerFault { detail }) => {
                assert!(detail.contains("panicked"), "{detail}");
                assert!(detail.contains("mailbox boom"), "{detail}");
            }
            other => panic!("expected a server fault, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "panic reply should be immediate, not a timeout"
        );
        // The worker survives: the endpoint keeps serving.
        ep.objects().register_singleton(
            "Echo",
            Arc::new(FnInvokable(|_m: &str, args: &[Value]| {
                Ok(args.first().cloned().unwrap_or(Value::Null))
            })),
        );
        let echo = proxy(&net, "inproc://panicky/Echo");
        assert_eq!(echo.call("e", vec![Value::I32(9)]).unwrap(), Value::I32(9));
    }

    #[test]
    fn per_call_deadline_is_configurable_and_reported() {
        let net = InprocNetwork::new();
        let ep = net.create_endpoint("slowpoke").unwrap();
        ep.objects().register_singleton(
            "Slow",
            Arc::new(FnInvokable(|_m: &str, _a: &[Value]| {
                std::thread::sleep(Duration::from_millis(300));
                Ok(Value::Null)
            })),
        );
        let uri: ObjectUri = "inproc://slowpoke/Slow".parse().unwrap();
        let chan = net.open_with_timeout(&uri, Duration::from_millis(30)).unwrap();
        let slow = RemoteObject::new(chan, "Slow");
        match slow.call("nap", vec![]) {
            Err(RemotingError::Timeout { elapsed, deadline }) => {
                assert_eq!(deadline, Duration::from_millis(30));
                assert!(elapsed >= deadline);
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    /// Endpoints report their backlog on every reply; the inproc channel
    /// surfaces it (plus RTT) through `feedback()`.
    #[test]
    fn mailbox_replies_carry_depth_feedback() {
        let (net, _ep) = adder_network();
        let uri: ObjectUri = "inproc://node0/Adder".parse().unwrap();
        let chan = net.open(&uri).unwrap();
        let feedback = chan.feedback().expect("inproc channel exposes feedback");
        let adder = RemoteObject::new(chan, "Adder");
        adder.call("add", vec![Value::I32(1), Value::I32(2)]).unwrap();
        assert!(feedback.rtt().is_some(), "call recorded no RTT sample");
        assert!(feedback.depth().is_some(), "mailbox reply carried no depth report");
    }

    #[test]
    fn calls_race_with_posts_safely() {
        let (net, _ep) = adder_network();
        let adder = proxy(&net, "inproc://node0/Adder");
        for i in 0..20 {
            adder.post("sleepy", vec![]).unwrap();
            assert_eq!(
                adder.call("add", vec![Value::I32(i), Value::I32(1)]).unwrap(),
                Value::I32(i + 1)
            );
        }
    }
}
