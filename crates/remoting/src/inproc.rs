//! In-process channel: real threads, real queues, real serialized bytes —
//! no sockets.
//!
//! An [`InprocNetwork`] is a registry of named endpoints inside one
//! process. Each endpoint runs a router thread feeding a per-object
//! [`MailboxScheduler`] (the same active-object discipline the TCP
//! server uses: calls to one object serial and in order, distinct
//! objects in parallel on work-stealing workers), so concurrency
//! semantics match the socket channels: calls from many client threads
//! interleave on the server exactly as they would across machines.
//! Payloads still pass through the binary formatter, so marshalling
//! costs and wire sizes are identical to the TCP channel — only the wire
//! itself is a queue.
//!
//! This is the channel the single-machine SCOOPP runtime and most tests
//! use; URIs look like `inproc://node0/PrimeServer`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parc_sync::channel::{bounded, unbounded, Receiver, Sender};
use parc_serial::BinaryFormatter;
use parc_sync::RwLock;

use crate::channel::{ChannelProvider, ClientChannel, LinkFeedback};
use crate::dispatcher::dispatch;
use crate::error::RemotingError;
use crate::mailbox::{DispatchDepth, MailboxScheduler};
use crate::message::CallMessage;
use crate::uri::{ObjectUri, Scheme};
use crate::wellknown::ObjectTable;

/// Default reply timeout for in-process calls when `PARC_CALL_TIMEOUT`
/// is unset. Generous — a stuck server object is a bug, not a slow
/// network. The live value each opened channel uses is
/// [`crate::retry::call_timeout`].
pub const DEFAULT_TIMEOUT: Duration = crate::retry::DEFAULT_CALL_TIMEOUT;

/// One reply travelling back to a parked caller. The in-process
/// analogue of a reply frame with a [`crate::frame::DepthExt`]: the
/// endpoint stamps its live backlog (`pending`, `busiest`) on every
/// reply so the caller's aggregation controller sees backpressure.
struct InprocReply {
    bytes: Vec<u8>,
    depth: (usize, usize),
}

struct Envelope {
    bytes: Vec<u8>,
    reply: Option<Sender<InprocReply>>,
    // 0 unless obs recording was enabled at send time; lets the pump
    // measure queue wait without paying for a clock read when disabled.
    enqueued_ns: u64,
    /// Caller's trace context at send time (`None` with obs disabled):
    /// the in-process analogue of the TCP frame's trace extension, so
    /// server-side dispatch spans parent onto the remote caller.
    trace: Option<parc_obs::TraceContext>,
}

struct EndpointShared {
    tx: Sender<Envelope>,
    bytes_received: AtomicU64,
    messages_received: AtomicU64,
    // Set by `stop_endpoint`: the pump breaks out of its loop on the next
    // envelope, dropping its receiver so every held client sender starts
    // failing — the in-process analogue of a node crash.
    stopped: std::sync::atomic::AtomicBool,
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
        let (tx, rx) = unbounded::<Envelope>();
        let shared = Arc::new(EndpointShared {
            tx,
            bytes_received: AtomicU64::new(0),
            messages_received: AtomicU64::new(0),
            stopped: std::sync::atomic::AtomicBool::new(false),
        });
        {
            let mut endpoints = self.endpoints.write();
            if endpoints.contains_key(&name) {
                return Err(RemotingError::Transport {
                    detail: format!("endpoint {name:?} already exists"),
                });
            }
            endpoints.insert(name.clone(), Arc::clone(&shared));
        }
        let objects = ObjectTable::new();
        let pump_objects = objects.clone();
        let pump_shared = Arc::clone(&shared);
        let scheduler = Arc::new(MailboxScheduler::with_workers(workers));
        let pump_scheduler = Arc::clone(&scheduler);
        // Interned once: every span dispatched on this endpoint is tagged
        // with its name, so multi-node traces in one process stay
        // attributable per node.
        let node = parc_obs::trace::node_id(&name);
        let thread = std::thread::Builder::new()
            .name(format!("inproc-{name}"))
            .spawn(move || pump_mailbox(rx, pump_objects, pump_shared, pump_scheduler, node))
            .expect("spawning inproc endpoint thread");
        Ok(InprocEndpoint {
            name,
            objects,
            network: self.clone(),
            scheduler,
            thread: Some(thread),
        })
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
    /// unregistered (new opens fail with `EndpointNotFound`) **and** its
    /// pump thread is told to exit, so channels already held by clients
    /// start failing with a transport error instead of silently continuing
    /// to serve. Queued-but-undispatched envelopes are dropped as a crash
    /// would drop them, failing their callers at once. Returns `false`
    /// when no such endpoint exists.
    pub fn stop_endpoint(&self, name: &str) -> bool {
        let Some(shared) = self.endpoints.write().remove(name) else {
            return false;
        };
        shared.stopped.store(true, Ordering::Relaxed);
        // Wake the pump if it is blocked in recv; the envelope itself is
        // never processed (the stop flag is checked first).
        let _ = shared.tx.send(Envelope { bytes: Vec::new(), reply: None, enqueued_ns: 0, trace: None });
        true
    }

    fn remove(&self, name: &str) {
        self.endpoints.write().remove(name);
    }
}

impl std::fmt::Debug for InprocNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InprocNetwork").field("endpoints", &self.endpoint_names()).finish()
    }
}

/// Router loop: decode on the pump thread — the decoded call is what
/// routes to a mailbox — then enqueue; the scheduler's workers dispatch
/// and reply. A slow method on one object only backs up that object's
/// mailbox, never this router.
///
/// Kept apart from [`crate::dispatcher::serve_frame`]: an envelope has
/// no frame header to peel (trace context and enqueue timestamp travel
/// beside the bytes, the reply sender decides one-way), and the job tags
/// its spans with this endpoint's node id and records queue wait —
/// sharing would mean the socket servers' function branching on its
/// caller.
fn pump_mailbox(
    rx: Receiver<Envelope>,
    objects: ObjectTable,
    shared: Arc<EndpointShared>,
    sched: Arc<MailboxScheduler>,
    node: u32,
) {
    let formatter = BinaryFormatter::new();
    // Sampled at reply time by every dispatch closure — the same
    // write-time freshness the TCP reply path's DepthExt gets.
    let depth = sched.depth_handle();
    while let Ok(envelope) = rx.recv() {
        if shared.stopped.load(Ordering::Relaxed) {
            break;
        }
        shared.bytes_received.fetch_add(envelope.bytes.len() as u64, Ordering::Relaxed);
        shared.messages_received.fetch_add(1, Ordering::Relaxed);
        let Envelope { bytes, reply, enqueued_ns, trace } = envelope;
        let call = match CallMessage::decode(&formatter, &bytes) {
            Ok(call) => call,
            Err(e) => {
                // Undecodable frame: fault with id 0 if a reply channel
                // exists; otherwise drop.
                if let Some(tx) = reply {
                    let fault = crate::message::ReturnMessage::fault(0, e.to_string());
                    if let Ok(bytes) = fault.encode(&formatter) {
                        let _ = tx.send(InprocReply {
                            bytes,
                            depth: (depth.pending(), depth.max_object_depth()),
                        });
                    }
                }
                continue;
            }
        };
        let objects = objects.clone();
        let object = call.object.clone();
        let depth = depth.clone();
        sched.enqueue(&object, move || {
            let _node = parc_obs::trace::enter_node_id(node);
            let _trace = parc_obs::trace::with_remote_parent(trace);
            parc_obs::record_wait(parc_obs::kinds::QUEUE_WAIT, enqueued_ns);
            let out = dispatch(&objects, &call);
            if let (Some(out), Some(tx)) = (out, reply) {
                let _span = parc_obs::Span::enter(parc_obs::kinds::REPLY);
                if let Ok(bytes) = out.encode(&BinaryFormatter::new()) {
                    let _ = tx.send(InprocReply {
                        bytes,
                        depth: (depth.pending(), depth.max_object_depth()),
                    });
                }
            }
        });
    }
    // Dropping the pump's scheduler handle lets the last owner drain and
    // join the workers.
    drop(sched);
}

/// A live in-process endpoint (server side). Dropping it unregisters the
/// endpoint and stops its dispatcher once queued work drains.
pub struct InprocEndpoint {
    name: String,
    objects: ObjectTable,
    network: InprocNetwork,
    scheduler: Arc<MailboxScheduler>,
    thread: Option<std::thread::JoinHandle<()>>,
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
        // Unregister, dropping the network's sender; when the last client
        // channel drops its sender clone too, the pump exits.
        self.network.remove(&self.name);
        // Do not join: clients may still hold senders. The pump exits when
        // every sender is gone; detach the thread.
        let _ = self.thread.take();
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
    /// Encodes and enqueues one envelope, returning the encoded payload
    /// size in bytes.
    fn send(
        &self,
        msg: &CallMessage,
        reply: Option<Sender<InprocReply>>,
    ) -> Result<usize, RemotingError> {
        // A stopped endpoint's pump may not have drained its queue yet;
        // without this check a one-way post would be accepted and then
        // silently discarded. Failing here makes kill → post deterministic
        // for callers (posts racing the stop itself can still be lost —
        // fire-and-forget semantics).
        if self.shared.stopped.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(RemotingError::Transport { detail: "endpoint stopped".into() });
        }
        let bytes = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::SERIALIZE);
            msg.encode(&BinaryFormatter::new())?
        };
        let sent = bytes.len();
        let _span = parc_obs::Span::enter(parc_obs::kinds::CHANNEL_SEND);
        // Captured inside the send span: the server dispatch becomes a
        // child of this `channel.send`, mirroring the TCP transports.
        let trace = parc_obs::trace::current_for_wire();
        self.shared
            .tx
            .send(Envelope { bytes, reply, enqueued_ns: parc_obs::timestamp_if_enabled(), trace })
            .map(|()| sent)
            .map_err(|_| RemotingError::Transport { detail: "endpoint stopped".into() })
    }
}

impl ClientChannel for InprocClient {
    fn call(&self, msg: &CallMessage) -> Result<crate::message::ReturnMessage, RemotingError> {
        let (reply_tx, reply_rx) = bounded(1);
        let started = std::time::Instant::now();
        self.send(msg, Some(reply_tx))?;
        let reply = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::CHANNEL_RECV);
            use parc_sync::channel::RecvTimeoutError::{Disconnected, Timeout};
            reply_rx.recv_timeout(self.timeout).map_err(|e| match e {
                Timeout => RemotingError::timed_out(started.elapsed(), self.timeout),
                // The endpoint stopped with this call still queued.
                Disconnected => RemotingError::Transport { detail: "endpoint stopped".into() },
            })?
        };
        self.feedback.record_rtt(started.elapsed());
        let (pending, busiest) = reply.depth;
        self.feedback.record_depth(pending, busiest);
        let _span = parc_obs::Span::enter(parc_obs::kinds::DESERIALIZE);
        Ok(crate::message::ReturnMessage::decode(&BinaryFormatter::new(), &reply.bytes)?)
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
        if uri.scheme() != Scheme::Inproc {
            return Err(RemotingError::BadUri {
                uri: uri.to_string(),
                detail: "inproc network only serves inproc:// uris".into(),
            });
        }
        let endpoints = self.endpoints.read();
        let shared = endpoints.get(uri.authority()).ok_or_else(|| {
            RemotingError::EndpointNotFound { endpoint: uri.authority().to_string() }
        })?;
        Ok(crate::fault::wrap_if_chaotic(Arc::new(InprocClient {
            shared: Arc::clone(shared),
            timeout: crate::retry::call_timeout(),
            feedback: Arc::new(LinkFeedback::new()),
        })))
    }
}

impl InprocNetwork {
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
        if uri.scheme() != Scheme::Inproc {
            return Err(RemotingError::BadUri {
                uri: uri.to_string(),
                detail: "inproc network only serves inproc:// uris".into(),
            });
        }
        let endpoints = self.endpoints.read();
        let shared = endpoints.get(uri.authority()).ok_or_else(|| {
            RemotingError::EndpointNotFound { endpoint: uri.authority().to_string() }
        })?;
        Ok(Arc::new(InprocClient {
            shared: Arc::clone(shared),
            timeout,
            feedback: Arc::new(LinkFeedback::new()),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RemoteObject;
    use crate::dispatcher::FnInvokable;
    use parc_serial::Value;

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
        // ...and channels opened before the crash start failing once the
        // pump exits (a call still queued for it fails at once with a
        // transport error; later sends fail at the transport).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match adder.call("add", vec![Value::I32(1), Value::I32(1)]) {
                Err(RemotingError::Transport { .. }) | Err(RemotingError::Timeout { .. }) => break,
                Err(other) => panic!("unexpected error class: {other:?}"),
                Ok(_) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "stopped endpoint kept serving"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
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
        // Give the pool a moment to drain, then check delivery counters.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while net.messages_received("node0").unwrap() < 10 {
            assert!(std::time::Instant::now() < deadline, "posts never delivered");
            std::thread::sleep(Duration::from_millis(5));
        }
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
