//! Proxy objects (PO) — the client half of a parallel object.
//!
//! A PO "represents a local or a remote parallel object and has the same
//! interface as the object it represents. It transparently replaces remote
//! parallel objects and forwards all method invocations" (§3.2, Fig. 3).
//! On top of plain forwarding the PO performs the grain-size adaptation:
//!
//! * asynchronous calls ([`Po::post`]) are buffered and shipped as one
//!   aggregate message once `maxCalls` accumulate (Fig. 7); on an adaptive
//!   proxy `maxCalls` is driven by the closed-loop
//!   [`crate::adapt::BatchController`] once reply frames
//!   start reporting the server's dispatch depth, and a max-linger
//!   deadline (checked at every enqueue) ships a partial buffer whose
//!   oldest call has waited too long, so low-rate callers are never
//!   stranded behind a large batch target;
//! * aggregate messages travel *flat*: each buffered call is serialized
//!   once at enqueue time into a recycled pool buffer
//!   ([`FLAT_BATCH_METHOD`]), so a flush ships bytes instead of
//!   re-walking a `Value` list (DESIGN.md §14);
//! * on an *agglomerated* (local) object, asynchronous calls execute
//!   synchronously and serially in place — the intra-grain fast path of
//!   Fig. 3 call *b*;
//! * synchronous calls ([`Po::call`]) first flush the aggregation buffer so
//!   program order is preserved, then block for the result.
//!
//! The PO is also the recovery point of the fault-tolerance layer: when a
//! send fails with a transient error, the runtime handed the proxy a
//! failover handle, and the failure detector confirms the node dead, the
//! PO re-creates its implementation object on a surviving node (or, with
//! no survivors, locally in the caller's grain) and retries — the caller
//! never observes the node death. A failed call against a node that still
//! answers its poll surfaces to the caller instead. The re-created
//! object starts from the class constructor; state the lost instance had
//! accumulated is gone. See DESIGN.md §10 for the full fault model.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parc_remoting::channel::RemoteObject;
use parc_remoting::{bufpool, Invokable};
use parc_serial::{BinaryFormatter, Value};
use parc_sync::{Mutex, RwLock};

use crate::adapt::{BatchConfig, BatchController, GrainAdapter};
use crate::batch::{encode_flat_call, BatchDispatcher, FLAT_BATCH_METHOD};
use crate::config::GrainConfig;
use crate::error::ParcError;
use crate::nodes::{node_name, node_uri, Nodes};
use crate::stats::RuntimeStats;

/// Where the implementation object lives.
pub(crate) enum Target {
    /// Agglomerated: the IO lives in this grain; calls are direct.
    Local(Arc<dyn Invokable>),
    /// Distributed: the IO lives on a node, reached through remoting.
    Remote {
        /// Transparent remote handle.
        remote: RemoteObject,
        /// Hosting node index.
        node: usize,
        /// Registered IO name (for URIs and diagnostics).
        io_name: String,
    },
}

/// The aggregation buffer: calls awaiting shipment as one message.
///
/// The first call is held unserialized so a buffer holding exactly one
/// call flushes as a plain post (aggregation factor 1 never batches, and a
/// single-call flush carries no batch framing). From the second call on,
/// everything is serialized *flat* into a recycled pool buffer — the first
/// call moves in first, preserving FIFO order — and a flush ships those
/// bytes as the one `Bytes` argument of [`FLAT_BATCH_METHOD`].
#[derive(Default)]
struct AggBuffer {
    first: Option<(String, Vec<Value>)>,
    flat: Option<Vec<u8>>,
    count: usize,
    /// When the oldest buffered call was enqueued — the linger clock.
    first_at: Option<Instant>,
}

/// A proxy object for one parallel object.
pub struct Po {
    id: u64,
    class: String,
    target: RwLock<Target>,
    buffer: Mutex<AggBuffer>,
    /// `buffer.count`, written under the `buffer` lock, so a call with
    /// nothing buffered skips the lock. A thread always reads its own
    /// earlier posts' writes, so its program order holds.
    buffered: AtomicUsize,
    aggregation_factor: usize,
    adaptive: bool,
    adapter: Arc<GrainAdapter>,
    controller: BatchController,
    /// `LinkFeedback::depth_samples()` at the controller's last decision,
    /// so the controller steps once per fresh depth report instead of once
    /// per post (deterministic for a fixed feedback tape).
    feedback_seen: AtomicU64,
    formatter: BinaryFormatter,
    stats: RuntimeStats,
    failover: Option<Arc<Nodes>>,
}

impl Po {
    pub(crate) fn new(
        id: u64,
        class: String,
        target: Target,
        grain: &GrainConfig,
        adapter: Arc<GrainAdapter>,
        stats: RuntimeStats,
        failover: Option<Arc<Nodes>>,
    ) -> Po {
        Po {
            id,
            class,
            target: RwLock::new(target),
            buffer: Mutex::new(AggBuffer::default()),
            buffered: AtomicUsize::new(0),
            aggregation_factor: grain.aggregation_factor,
            adaptive: grain.adaptive,
            adapter,
            controller: BatchController::new(BatchConfig::from_env()),
            feedback_seen: AtomicU64::new(0),
            formatter: BinaryFormatter::new(),
            stats,
            failover,
        }
    }

    /// The runtime-wide parallel-object id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The object's class name.
    pub fn class(&self) -> &str {
        &self.class
    }

    /// Hosting node, or `None` for an agglomerated (local) object. A
    /// failed-over proxy reports its *current* node.
    pub fn node(&self) -> Option<usize> {
        match &*self.target.read() {
            Target::Local(_) => None,
            Target::Remote { node, .. } => Some(*node),
        }
    }

    /// True when the object lives in the caller's grain — agglomerated at
    /// creation, or degraded to local execution after every node died.
    pub fn is_local(&self) -> bool {
        matches!(&*self.target.read(), Target::Local(_))
    }

    /// The `inproc://` URI of a distributed object (so its reference can be
    /// sent as a method argument), or `None` for a local one.
    pub fn uri(&self) -> Option<String> {
        match &*self.target.read() {
            Target::Local(_) => None,
            Target::Remote { node, io_name, .. } => Some(node_uri(*node, io_name)),
        }
    }

    /// Effective `maxCalls` for this proxy right now.
    ///
    /// Fixed-factor proxies return their configured factor. Adaptive
    /// proxies start on the open-loop adapter recommendation and switch to
    /// the closed-loop [`BatchController`] as soon as the channel has both
    /// an RTT estimate and a piggybacked server-depth report (and the
    /// adapter a call-cost estimate) — from then on the reply stream
    /// drives the batch size.
    pub fn effective_aggregation(&self) -> usize {
        if !self.adaptive {
            return self.aggregation_factor;
        }
        if let Some(closed) = self.closed_loop_aggregation() {
            return closed;
        }
        self.adapter.recommended_aggregation()
    }

    /// The closed-loop batch size, or `None` while any input signal is
    /// still missing. The controller steps once per *fresh* depth report.
    fn closed_loop_aggregation(&self) -> Option<usize> {
        let feedback = match &*self.target.read() {
            Target::Remote { remote, .. } => remote.channel().feedback()?,
            Target::Local(_) => return None,
        };
        let rtt = feedback.rtt()?;
        let (pending, _busiest) = feedback.depth()?;
        let cost = self.adapter.estimated_call_cost()?;
        let sample = feedback.depth_samples();
        if self.feedback_seen.swap(sample, Ordering::Relaxed) == sample {
            return Some(self.controller.current());
        }
        Some(self.controller.observe(rtt, cost, pending))
    }

    /// The closed-loop controller steering this proxy's batch size.
    pub fn batch_controller(&self) -> &BatchController {
        &self.controller
    }

    /// Buffered-but-unsent asynchronous calls.
    pub fn pending(&self) -> usize {
        self.buffered.load(Ordering::Relaxed)
    }

    /// Asynchronous method invocation — SCOOPP's "no value returned" form.
    ///
    /// On a distributed object the call is buffered and shipped when
    /// `maxCalls` accumulate (flush explicitly with [`Po::flush`]). On an
    /// agglomerated object it executes immediately, synchronously and
    /// serially (the parallelism was removed on purpose).
    ///
    /// # Errors
    ///
    /// Transport failures; for local objects, the method's own failure.
    pub fn post(&self, method: &str, args: Vec<Value>) -> Result<(), ParcError> {
        self.stats.record_async_call();
        {
            let target = self.target.read();
            if let Target::Local(io) = &*target {
                let _span = parc_obs::Span::enter(parc_obs::kinds::PO_LOCAL);
                self.stats.record_local_fast_path();
                let start = Instant::now();
                io.invoke(method, &args)?;
                self.adapter.observe_call(start.elapsed());
                return Ok(());
            }
        }
        let mut buffer = self.buffer.lock();
        self.enqueue(&mut buffer, method, args)?;
        if buffer.count >= self.effective_aggregation() {
            self.flush_buffer(&mut buffer)?;
        } else if let Some(waited) =
            buffer.first_at.map(|t| t.elapsed()).filter(|w| *w >= self.controller.config().linger)
        {
            // The oldest buffered call outlived the max-linger deadline:
            // ship the partial batch rather than strand one-ways behind a
            // batch target this caller's rate will never reach.
            parc_obs::counter(parc_obs::kinds::BATCH_LINGER).incr();
            parc_obs::event(parc_obs::kinds::BATCH_LINGER, || {
                format!("calls={} waited_us={}", buffer.count, waited.as_micros())
            });
            self.flush_buffer(&mut buffer)?;
        }
        Ok(())
    }

    /// Appends one call to the aggregation buffer. The first call is held
    /// as values; the second call's arrival moves it into the flat pool
    /// buffer (ahead of the newcomer, preserving FIFO order) and every
    /// later call is serialized straight in.
    fn enqueue(
        &self,
        buffer: &mut AggBuffer,
        method: &str,
        args: Vec<Value>,
    ) -> Result<(), ParcError> {
        if buffer.count == 0 {
            buffer.first = Some((method.to_string(), args));
            buffer.first_at = Some(Instant::now());
            buffer.count = 1;
            self.buffered.store(1, Ordering::Relaxed);
            return Ok(());
        }
        if buffer.flat.is_none() {
            // Satellite: the flat encoding goes through the channel buffer
            // pool, so steady-state flushes reuse warmed wire buffers.
            let mut flat = bufpool::global().checkout_with_capacity(256);
            let (m, a) = buffer.first.take().expect("count 1 holds the first call");
            encode_flat_call(&self.formatter, &mut flat, &m, &a)
                .map_err(ParcError::from)?;
            buffer.flat = Some(flat);
        }
        let flat = buffer.flat.as_mut().expect("installed above");
        encode_flat_call(&self.formatter, flat, method, &args).map_err(ParcError::from)?;
        buffer.count += 1;
        self.buffered.store(buffer.count, Ordering::Relaxed);
        Ok(())
    }

    /// Ships any buffered asynchronous calls now.
    ///
    /// # Errors
    ///
    /// Transport failures (after failover, if armed, exhausted every node).
    pub fn flush(&self) -> Result<(), ParcError> {
        let mut buffer = self.buffer.lock();
        self.flush_buffer(&mut buffer)
    }

    fn flush_buffer(&self, buffer: &mut AggBuffer) -> Result<(), ParcError> {
        if buffer.count == 0 {
            return Ok(());
        }
        let _span = parc_obs::Span::enter(parc_obs::kinds::BATCH_FLUSH);
        // Build the wire form once, by value. A single call ships plain; a
        // filled buffer ships its pre-serialized flat bytes — the per-call
        // encoding already happened at enqueue time, so the flush itself
        // moves one `Bytes` value. A failed send hands the payload back
        // (`post_reclaim_always`), so a failover retry re-ships the same calls
        // to the replacement target.
        let n = buffer.count as u64;
        buffer.count = 0;
        self.buffered.store(0, Ordering::Relaxed);
        buffer.first_at = None;
        let (method, initial) = if n == 1 {
            buffer.first.take().expect("one buffered call")
        } else {
            let flat = buffer.flat.take().expect("multi-call buffers are flat");
            (FLAT_BATCH_METHOD.to_string(), vec![Value::Bytes(flat)])
        };
        let mut args = Some(initial);
        loop {
            let (err, failed_node) = {
                let target = self.target.read();
                match &*target {
                    Target::Local(io) => {
                        // Degraded to local synchronous execution: run the
                        // shipped form in place — a BatchDispatcher accepts
                        // plain and aggregate calls alike.
                        let payload = args.take().expect("payload survives failed sends");
                        BatchDispatcher::new(Arc::clone(io)).invoke(&method, &payload)?;
                        if n > 1 {
                            Self::reclaim_flat(payload);
                        }
                        return Ok(());
                    }
                    Target::Remote { remote, node, .. } => {
                        let payload = args.take().expect("payload survives failed sends");
                        match remote.post_reclaim_always(&method, payload) {
                            Ok((bytes, sent)) => {
                                if n == 1 {
                                    self.stats.record_message();
                                } else {
                                    self.stats.record_batch(n);
                                }
                                // The channel reports the encoded size it
                                // put on the wire, so instrumentation never
                                // serializes a second time; the flat buffer
                                // comes back for pool recycling.
                                if n > 1 {
                                    Self::reclaim_flat(sent);
                                }
                                parc_obs::event(parc_obs::kinds::BATCH_FLUSHED, || {
                                    format!("calls={n} bytes={bytes}")
                                });
                                return Ok(());
                            }
                            Err((e, reclaimed)) => {
                                args = Some(reclaimed);
                                (ParcError::from(e), *node)
                            }
                        }
                    }
                }
            };
            if !self.try_failover(failed_node, &err) {
                return Err(err);
            }
        }
    }

    /// Returns a shipped flat batch buffer to the channel buffer pool
    /// (callers only pass multi-call payloads, whose single value is the
    /// flat `Bytes` buffer).
    fn reclaim_flat(mut payload: Vec<Value>) {
        if payload.len() == 1 {
            if let Some(Value::Bytes(flat)) = payload.pop() {
                bufpool::global().checkin(flat);
            }
        }
    }

    /// Synchronous method invocation — SCOOPP's value-returning form.
    ///
    /// Flushes buffered asynchronous calls first so the server observes
    /// program order.
    ///
    /// # Errors
    ///
    /// Transport failures, server faults, or the method's own failure.
    pub fn call(&self, method: &str, args: Vec<Value>) -> Result<Value, ParcError> {
        self.stats.record_sync_call();
        let mut args = Some(args);
        loop {
            // Flush outside the target guard: a flush-triggered failover
            // needs the write half of the target lock.
            if self.buffered.load(Ordering::Relaxed) != 0 {
                let mut buffer = self.buffer.lock();
                self.flush_buffer(&mut buffer)?;
            }
            let (err, failed_node) = {
                let target = self.target.read();
                match &*target {
                    Target::Local(io) => {
                        let _span = parc_obs::Span::enter(parc_obs::kinds::PO_LOCAL);
                        self.stats.record_local_fast_path();
                        let start = Instant::now();
                        let out = io
                            .invoke(method, args.as_ref().expect("args survive failed attempts"))?;
                        self.adapter.observe_call(start.elapsed());
                        return Ok(out);
                    }
                    Target::Remote { remote, node, .. } => {
                        let _span = parc_obs::Span::enter(parc_obs::kinds::PO_CALL);
                        let payload = args.take().expect("args survive failed attempts");
                        match remote.call_reclaim_located(method, payload) {
                            Ok((out, moved)) => {
                                // The channel already timed the round
                                // trip; no second clock reading here.
                                if let Some(rtt) = parc_remoting::channel::last_round_trip() {
                                    self.adapter.observe_call(rtt);
                                }
                                self.stats.record_message();
                                drop(target);
                                if let Some(uri) = moved {
                                    // The reply came through a forwarding
                                    // entry: the object migrated. Repoint
                                    // at its new home so later calls skip
                                    // the extra hop. Order-safe: every
                                    // earlier post was relayed two-way
                                    // before this reply was produced.
                                    self.repoint(&uri);
                                }
                                return Ok(out);
                            }
                            Err((e, reclaimed)) => {
                                args = Some(reclaimed);
                                (ParcError::from(e), *node)
                            }
                        }
                    }
                }
            };
            if !self.try_failover(failed_node, &err) {
                return Err(err);
            }
        }
    }

    /// Points this proxy at `uri`, its object's post-migration home: on a
    /// `Moved` reply, or after an explicit [`migrate`] whose initiator
    /// already knows the new home. Best-effort: a proxy without a failover
    /// handle (no channel opener) keeps calling through the forwarding
    /// entry, which stays correct.
    ///
    /// [`migrate`]: crate::ParcRuntime::migrate
    pub(crate) fn repoint(&self, uri: &str) {
        let Some(failover) = &self.failover else { return };
        let Ok(new_target) = failover.open(uri) else { return };
        let mut target = self.target.write();
        // Never demote a proxy that degraded to local execution.
        if matches!(&*target, Target::Remote { .. }) {
            *target = new_target;
        }
    }

    /// Attempts to move this proxy's implementation object off
    /// `failed_node` after `err`. Returns `true` when the caller should
    /// retry: either this thread installed a replacement target, or a
    /// racing thread already moved the object. Non-transient errors,
    /// proxies without a failover handle, a node the failure detector
    /// does not confirm dead, and failed re-creation return `false` so
    /// the original error surfaces.
    fn try_failover(&self, failed_node: usize, err: &ParcError) -> bool {
        let transient = matches!(err, ParcError::Remoting(e) if e.is_retryable());
        if !transient {
            return false;
        }
        let Some(failover) = &self.failover else {
            return false;
        };
        let started = Instant::now();
        let mut target = self.target.write();
        let io_name = match &*target {
            Target::Remote { node, io_name, .. } if *node == failed_node => io_name.clone(),
            // Someone else already moved the object (or it degraded to
            // local); retry against whatever is installed now.
            _ => return true,
        };
        if !failover.confirm_dead(failed_node) {
            return false;
        }
        match failover.replace_target(&self.class, failed_node, &io_name) {
            Ok(new_target) => {
                let destination = match &new_target {
                    Target::Remote { node, .. } => node_name(*node),
                    Target::Local(_) => "local".to_string(),
                };
                *target = new_target;
                drop(target);
                parc_obs::counter(parc_obs::kinds::OBJECT_FAILED_OVER).incr();
                parc_obs::histogram(parc_obs::kinds::RECOVERY_LATENCY)
                    .record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                parc_obs::event(parc_obs::kinds::OBJECT_FAILED_OVER, || {
                    format!(
                        "object={} class={} from={} to={destination}",
                        self.id,
                        self.class,
                        node_name(failed_node)
                    )
                });
                // Post-mortem flight recorder: with PARC_OBS_DUMP_DIR
                // set, freeze the ring and event log at the failover.
                parc_obs::flight_dump("object.failed_over");
                true
            }
            Err(_) => false,
        }
    }
}

impl Drop for Po {
    fn drop(&mut self) {
        // Best-effort flush, mirroring .NET's "lifetime managed by the
        // runtime": buffered one-way calls must not vanish silently.
        let _ = self.flush();
    }
}

impl std::fmt::Debug for Po {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Po")
            .field("id", &self.id)
            .field("class", &self.class)
            .field("node", &self.node())
            .field("local", &self.is_local())
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use parc_remoting::channel::ClientChannel;
    use parc_remoting::dispatcher::FnInvokable;
    use parc_remoting::inproc::InprocNetwork;
    use parc_remoting::tcp::{TcpClientChannel, TcpServerChannel};
    use parc_remoting::{ChaosChannel, FaultPlan, FaultSpec, ObjectUri};

    fn local_po(factor: usize) -> (Po, Arc<Mutex<Vec<i32>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let io: Arc<dyn Invokable> = Arc::new(FnInvokable(move |_: &str, args: &[Value]| {
            log2.lock().push(args.first().and_then(Value::as_i32).unwrap_or(-1));
            Ok(Value::I32(99))
        }));
        let po = Po::new(
            1,
            "Test".into(),
            Target::Local(io),
            &GrainConfig { aggregation_factor: factor, ..GrainConfig::default() },
            Arc::new(GrainAdapter::mono_default()),
            RuntimeStats::new(),
            None,
        );
        (po, log)
    }

    #[test]
    fn local_posts_execute_immediately_in_order() {
        let (po, log) = local_po(16);
        for i in 0..5 {
            po.post("work", vec![Value::I32(i)]).unwrap();
        }
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
        assert_eq!(po.pending(), 0, "local objects never buffer");
        assert!(po.is_local());
        assert_eq!(po.node(), None);
        assert_eq!(po.uri(), None);
    }

    #[test]
    fn local_call_returns_value_and_records_stats() {
        let (po, _log) = local_po(1);
        assert_eq!(po.call("work", vec![Value::I32(7)]).unwrap(), Value::I32(99));
        assert_eq!(po.id(), 1);
        assert_eq!(po.class(), "Test");
    }

    #[test]
    fn adapter_sees_local_call_durations() {
        let (po, _) = local_po(1);
        po.post("work", vec![Value::I32(1)]).unwrap();
        po.call("work", vec![Value::I32(2)]).unwrap();
        assert_eq!(po.adapter.samples(), 2);
    }

    #[test]
    fn debug_is_informative() {
        let (po, _) = local_po(1);
        let s = format!("{po:?}");
        assert!(s.contains("Test") && s.contains("local"));
    }

    // Remote-target behaviour (buffering, batch flush, ordering with sync
    // calls) and failover (node death, re-creation, local degradation) are
    // exercised end-to-end in the runtime.rs and nodes.rs tests, where real
    // inproc endpoints host the IOs.

    /// A server-side recorder: `work` appends its first argument, `len`
    /// returns how many calls have applied so far. Wrapped in a
    /// [`BatchDispatcher`] (like the runtime wraps every IO) so it
    /// understands flat aggregate messages.
    fn recorder() -> (Arc<dyn Invokable>, Arc<Mutex<Vec<i32>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let io: Arc<dyn Invokable> = Arc::new(FnInvokable(move |method: &str, args: &[Value]| {
            let mut log = log2.lock();
            match method {
                "len" => Ok(Value::I32(log.len() as i32)),
                _ => {
                    log.push(args.first().and_then(Value::as_i32).unwrap_or(-1));
                    Ok(Value::Null)
                }
            }
        }));
        (Arc::new(BatchDispatcher::new(io)) as Arc<dyn Invokable>, log)
    }

    fn remote_po(
        channel: Arc<dyn ClientChannel>,
        factor: usize,
        adaptive: bool,
        adapter: Arc<GrainAdapter>,
        stats: RuntimeStats,
    ) -> Po {
        Po::new(
            9,
            "Test".into(),
            Target::Remote {
                remote: RemoteObject::new(channel, "obj"),
                node: 0,
                io_name: "obj".into(),
            },
            &GrainConfig { aggregation_factor: factor, adaptive, ..GrainConfig::default() },
            adapter,
            stats,
            None,
        )
    }

    #[test]
    fn linger_deadline_ships_partial_buffers() {
        let net = InprocNetwork::new();
        let ep = net.create_endpoint_with_workers("linger", 2).unwrap();
        let (io, log) = recorder();
        ep.objects().register_singleton("obj", io);
        let uri: ObjectUri = "inproc://linger/obj".parse().unwrap();
        let chan = net.open_with_timeout(&uri, Duration::from_secs(5)).unwrap();
        let stats = RuntimeStats::new();
        let mut po = remote_po(chan, 100, false, Arc::new(GrainAdapter::mono_default()), stats.clone());
        po.controller = BatchController::new(BatchConfig {
            linger: Duration::from_millis(1),
            ..BatchConfig::default()
        });

        po.post("work", vec![Value::I32(0)]).unwrap();
        assert_eq!(po.pending(), 1, "far below the factor, the first call waits");
        std::thread::sleep(Duration::from_millis(3));
        po.post("work", vec![Value::I32(1)]).unwrap();
        assert_eq!(po.pending(), 0, "the second enqueue found the deadline expired");

        // The returned sync call proves both posts applied, in order.
        assert_eq!(po.call("len", vec![]).unwrap(), Value::I32(2));
        assert_eq!(*log.lock(), vec![0, 1]);
        let snap = stats.snapshot();
        assert_eq!(snap.batches_sent, 1, "the linger flush shipped one aggregate");
        assert_eq!(snap.calls_in_batches, 2);
    }

    #[test]
    fn closed_loop_controller_engages_once_feedback_arrives() {
        let net = InprocNetwork::new();
        let ep = net.create_endpoint_with_workers("closed", 2).unwrap();
        let (io, _log) = recorder();
        ep.objects().register_singleton("obj", io);
        let uri: ObjectUri = "inproc://closed/obj".parse().unwrap();
        let chan = net.open_with_timeout(&uri, Duration::from_secs(5)).unwrap();
        let adapter = Arc::new(GrainAdapter::mono_default());
        let po = remote_po(chan, 1, true, Arc::clone(&adapter), RuntimeStats::new());

        assert!(
            po.closed_loop_aggregation().is_none(),
            "before any reply there is no RTT or depth signal"
        );
        for _ in 0..8 {
            adapter.observe_call(Duration::from_micros(1));
        }
        // One sync call populates the channel's RTT EWMA and piggybacked
        // depth report; the loop closes on the next sizing decision.
        po.call("len", vec![]).unwrap();
        let agg = po.effective_aggregation();
        assert!(agg >= 2, "cheap calls over a real wire should batch, got {agg}");
        assert!(po.batch_controller().grows() >= 1, "drained queues grow the target");
    }

    /// Delay-only chaos: messages are slowed (on the sending thread, like
    /// a congested link) but never dropped or duplicated, so exact FIFO
    /// assertions remain valid.
    fn chaos(inner: Arc<dyn ClientChannel>) -> Arc<dyn ClientChannel> {
        let spec = FaultSpec { delay: 0.5, delay_ms: 2, ..FaultSpec::default() };
        Arc::new(ChaosChannel::new(inner, Arc::new(FaultPlan::new(7, spec))))
    }

    /// Drives a Po through full-batch flushes, linger flushes and
    /// sync-triggered flushes over `channel`, asserting per-object FIFO
    /// and sync-after-async ordering throughout.
    fn ordering_survives_chaos(channel: Arc<dyn ClientChannel>, log: Arc<Mutex<Vec<i32>>>) {
        let mut po =
            remote_po(channel, 8, false, Arc::new(GrainAdapter::mono_default()), RuntimeStats::new());
        po.controller = BatchController::new(BatchConfig {
            linger: Duration::from_millis(1),
            ..BatchConfig::default()
        });
        let mut posted = 0;
        for burst in 0..6 {
            for _ in 0..3 {
                po.post("work", vec![Value::I32(posted)]).unwrap();
                posted += 1;
            }
            if burst % 2 == 0 {
                // Outlive the linger deadline, then let the next enqueue
                // discover it and ship a partial (4 < 8) batch.
                std::thread::sleep(Duration::from_millis(3));
                po.post("work", vec![Value::I32(posted)]).unwrap();
                posted += 1;
                assert_eq!(po.pending(), 0, "linger flush shipped the partial buffer");
            } else {
                // Sync-after-async: the call first flushes the buffer,
                // and its reply proves every earlier post applied.
                assert_eq!(po.call("len", vec![]).unwrap(), Value::I32(posted));
            }
        }
        po.flush().unwrap();
        assert_eq!(po.call("len", vec![]).unwrap(), Value::I32(posted));
        assert_eq!(*log.lock(), (0..posted).collect::<Vec<i32>>());
    }

    #[test]
    fn chaos_delays_never_reorder_mux_batches() {
        let server =
            TcpServerChannel::bind_with_workers("127.0.0.1:0", 2).unwrap();
        let (io, log) = recorder();
        server.objects().register_singleton("obj", io);
        let addr = server.local_addr().to_string();
        // Pool pinned to one socket: a wider pool may legally spread
        // one-way posts across connections, voiding the FIFO assertion.
        let client =
            TcpClientChannel::connect_pooled_with_timeout(&addr, 1, Duration::from_secs(5))
                .unwrap();
        ordering_survives_chaos(chaos(Arc::new(client)), log);
    }
}
