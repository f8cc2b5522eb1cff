//! The live cluster telemetry plane.
//!
//! Every runtime node publishes a well-known `__telemetry` object (see
//! [`parc_remoting::TELEMETRY_OBJECT`]) next to its OM and factory. The
//! service answers `snapshot` with a fixed-layout list of `I64`s covering
//! the node's OM load counters, mailbox-scheduler stats, queue-wait
//! latency quantiles and process-wide fault counters — everything a
//! cluster dashboard needs, served over the ordinary remoting stack so it
//! works across any transport the node happens to listen on.
//!
//! [`ClusterTelemetry`] is the read side: it polls every node's
//! `__telemetry` object (with a short timeout so dead nodes cost one
//! bounded probe, not a hang) and returns one [`NodeTelemetry`] row per
//! node. The `parc-top` binary renders those rows as a refreshing table.

use std::sync::Arc;
use std::time::Duration;

use parc_remoting::channel::RemoteObject;
use parc_remoting::inproc::InprocNetwork;
use parc_remoting::{Invokable, RemotingError, TELEMETRY_OBJECT};
use parc_serial::Value;

use crate::om::OmState;
use crate::stats::RuntimeStats;

/// How long one telemetry probe waits for a node before the row is
/// reported dead.
pub const POLL_TIMEOUT: Duration = Duration::from_millis(250);

/// Number of `I64` fields in the `snapshot` list, in order: node, hosted,
/// dispatched, queue_depth, max_object_depth, executed, steals, busy,
/// queue-wait p50 (ns), queue-wait p99 (ns), faults injected, objects
/// failed over, async calls, sync calls, messages sent, batches sent,
/// calls in batches, batch-controller shrinks, batch-controller grows,
/// migrations completed, forwarding entries outstanding, ring epoch,
/// claims acquired, claims aborted, claim-wait p99 (ns).
pub const SNAPSHOT_FIELDS: usize = 25;

/// The published per-node telemetry service.
pub struct TelemetryService {
    node: usize,
    state: Arc<OmState>,
    stats: RuntimeStats,
}

impl TelemetryService {
    /// Creates the service for `node` over the node's OM state and the
    /// runtime's shared counters.
    pub fn new(node: usize, state: Arc<OmState>, stats: RuntimeStats) -> TelemetryService {
        TelemetryService { node, state, stats }
    }

    fn snapshot_value(&self) -> Value {
        let (executed, steals, busy) = self.state.dispatch_stats().map_or((0, 0, 0), |d| {
            (
                i64::try_from(d.executed).unwrap_or(i64::MAX),
                i64::try_from(d.stolen).unwrap_or(i64::MAX),
                i64::try_from(d.busy).unwrap_or(i64::MAX),
            )
        });
        let wait = parc_obs::histogram(parc_obs::kinds::MAILBOX_WAIT);
        let snap = self.stats.snapshot();
        let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        Value::List(vec![
            Value::I64(self.node as i64),
            Value::I64(self.state.load()),
            Value::I64(self.state.dispatched()),
            Value::I64(self.state.queue_depth()),
            Value::I64(self.state.max_object_depth()),
            Value::I64(executed),
            Value::I64(steals),
            Value::I64(busy),
            Value::I64(clamp(wait.percentile(50.0))),
            Value::I64(clamp(wait.percentile(99.0))),
            Value::I64(clamp(parc_obs::counter(parc_obs::kinds::FAULT_INJECTED).get())),
            Value::I64(clamp(parc_obs::counter(parc_obs::kinds::OBJECT_FAILED_OVER).get())),
            Value::I64(clamp(snap.async_calls)),
            Value::I64(clamp(snap.sync_calls)),
            Value::I64(clamp(snap.messages_sent)),
            Value::I64(clamp(snap.batches_sent)),
            Value::I64(clamp(snap.calls_in_batches)),
            Value::I64(clamp(parc_obs::counter(parc_obs::kinds::BATCH_SHRINK).get())),
            Value::I64(clamp(parc_obs::counter(parc_obs::kinds::BATCH_GROW).get())),
            Value::I64(clamp(parc_obs::counter(parc_obs::kinds::MIGRATION_COMPLETED).get())),
            Value::I64(parc_obs::gauge(parc_obs::kinds::DIRECTORY_FORWARDS).get()),
            Value::I64(parc_obs::gauge(parc_obs::kinds::RING_EPOCH).get()),
            Value::I64(clamp(parc_obs::counter(parc_obs::kinds::CLAIM_ACQUIRED).get())),
            Value::I64(clamp(parc_obs::counter(parc_obs::kinds::CLAIM_ABORTED).get())),
            Value::I64(clamp(
                parc_obs::histogram(parc_obs::kinds::CLAIM_WAIT).percentile(99.0),
            )),
        ])
    }
}

impl Invokable for TelemetryService {
    fn invoke(&self, method: &str, _args: &[Value]) -> Result<Value, RemotingError> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::TELEMETRY_DISPATCH);
        match method {
            "snapshot" => Ok(self.snapshot_value()),
            "node" => Ok(Value::I64(self.node as i64)),
            _ => Err(RemotingError::MethodNotFound {
                object: TELEMETRY_OBJECT.to_string(),
                method: method.to_string(),
            }),
        }
    }
}

/// One node's telemetry row, as decoded from its `snapshot` reply.
///
/// `alive: false` rows carry only the node index (the probe failed); all
/// other fields are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTelemetry {
    /// Node index.
    pub node: i64,
    /// Whether the probe reached the node.
    pub alive: bool,
    /// Implementation objects hosted on the node.
    pub hosted: i64,
    /// Lifetime method calls dispatched to the node's IOs.
    pub dispatched: i64,
    /// Calls queued-or-running across the node's mailboxes.
    pub queue_depth: i64,
    /// Deepest single-object backlog (head-of-line pressure).
    pub max_object_depth: i64,
    /// Jobs fully executed by the mailbox scheduler.
    pub executed: i64,
    /// Mailboxes stolen between scheduler workers.
    pub steals: i64,
    /// Workers currently inside an invocation.
    pub busy: i64,
    /// Median mailbox wait (enqueue to run), nanoseconds (the
    /// process-wide `dispatch.mailbox_wait` histogram; 0 unless obs is on).
    pub queue_wait_p50_ns: i64,
    /// Tail mailbox wait, nanoseconds (same histogram).
    pub queue_wait_p99_ns: i64,
    /// Chaos faults injected so far (process-wide).
    pub faults_injected: i64,
    /// Objects moved off dead nodes so far (process-wide).
    pub objects_failed_over: i64,
    /// Asynchronous calls issued through the runtime's proxies.
    pub async_calls: i64,
    /// Synchronous calls issued through the runtime's proxies.
    pub sync_calls: i64,
    /// Wire messages sent by the runtime's proxies.
    pub messages_sent: i64,
    /// Aggregate (batched) messages sent.
    pub batches_sent: i64,
    /// Asynchronous calls those aggregates carried (mean batch size is
    /// `calls_in_batches / batches_sent`).
    pub calls_in_batches: i64,
    /// Times the closed-loop batch controller halved its target under
    /// server backpressure (process-wide).
    pub batch_shrinks: i64,
    /// Times the closed-loop batch controller doubled its target with the
    /// remote queues drained (process-wide).
    pub batch_grows: i64,
    /// Live migrations completed so far (process-wide).
    pub migrations: i64,
    /// Forwarding entries currently installed (process-wide).
    pub forwards: i64,
    /// Current object-directory routing epoch (process-wide).
    pub ring_epoch: i64,
    /// Reservation claims granted so far (process-wide).
    pub claims_acquired: i64,
    /// Reservation claims aborted — lease expiry or partial-acquire
    /// rollback (process-wide).
    pub claims_aborted: i64,
    /// Tail wait for a claim grant, nanoseconds (process-wide histogram).
    pub claim_wait_p99_ns: i64,
}

/// Decodes one `snapshot` reply. `None` when the value is not the
/// fixed-layout list the service emits.
pub fn decode_snapshot(value: &Value) -> Option<NodeTelemetry> {
    let items = value.as_list()?;
    if items.len() != SNAPSHOT_FIELDS {
        return None;
    }
    let mut f = [0i64; SNAPSHOT_FIELDS];
    for (slot, item) in f.iter_mut().zip(items) {
        *slot = item.as_i64()?;
    }
    Some(NodeTelemetry {
        node: f[0],
        alive: true,
        hosted: f[1],
        dispatched: f[2],
        queue_depth: f[3],
        max_object_depth: f[4],
        executed: f[5],
        steals: f[6],
        busy: f[7],
        queue_wait_p50_ns: f[8],
        queue_wait_p99_ns: f[9],
        faults_injected: f[10],
        objects_failed_over: f[11],
        async_calls: f[12],
        sync_calls: f[13],
        messages_sent: f[14],
        batches_sent: f[15],
        calls_in_batches: f[16],
        batch_shrinks: f[17],
        batch_grows: f[18],
        migrations: f[19],
        forwards: f[20],
        ring_epoch: f[21],
        claims_acquired: f[22],
        claims_aborted: f[23],
        claim_wait_p99_ns: f[24],
    })
}

/// Poller for the whole cluster: one bounded probe per node per
/// [`ClusterTelemetry::poll`], dead nodes reported as `alive: false`
/// rows instead of errors.
#[derive(Clone)]
pub struct ClusterTelemetry {
    net: InprocNetwork,
    nodes: usize,
    timeout: Duration,
}

impl ClusterTelemetry {
    /// Creates a poller over `nodes` endpoints of `net` with the default
    /// [`POLL_TIMEOUT`].
    pub fn new(net: InprocNetwork, nodes: usize) -> ClusterTelemetry {
        ClusterTelemetry { net, nodes, timeout: POLL_TIMEOUT }
    }

    /// Overrides the per-probe timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> ClusterTelemetry {
        self.timeout = timeout;
        self
    }

    /// Number of nodes polled per round.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Probes every node once and returns one row per node, in index
    /// order. Unreachable nodes yield `alive: false` rows.
    pub fn poll(&self) -> Vec<NodeTelemetry> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::TELEMETRY_POLL);
        (0..self.nodes)
            .map(|node| {
                self.poll_node(node).unwrap_or(NodeTelemetry {
                    node: node as i64,
                    ..NodeTelemetry::default()
                })
            })
            .collect()
    }

    /// Polls one node; `None` when it is unreachable within the timeout.
    pub fn poll_node(&self, node: usize) -> Option<NodeTelemetry> {
        let uri: parc_remoting::ObjectUri =
            format!("inproc://node{node}/{TELEMETRY_OBJECT}").parse().ok()?;
        // Never chaos-wrapped: the dashboard must see through injected
        // faults, not be subject to them (same policy as failure probes).
        let chan = self.net.open_with_timeout(&uri, self.timeout).ok()?;
        let reply = RemoteObject::new(chan, TELEMETRY_OBJECT).call("snapshot", vec![]).ok()?;
        decode_snapshot(&reply)
    }
}

impl std::fmt::Debug for ClusterTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterTelemetry").field("nodes", &self.nodes).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ParcRuntime;
    use parc_remoting::dispatcher::FnInvokable;

    fn noop_class(rt: &ParcRuntime) {
        rt.register_class("Noop", || {
            Arc::new(FnInvokable(|_m: &str, _a: &[Value]| Ok(Value::Null)))
        });
    }

    #[test]
    fn service_snapshot_has_fixed_layout() {
        let state = Arc::new(OmState::new());
        state.object_created();
        let svc = TelemetryService::new(7, Arc::clone(&state), RuntimeStats::new());
        let v = svc.invoke("snapshot", &[]).unwrap();
        let row = decode_snapshot(&v).expect("layout decodes");
        assert_eq!(row.node, 7);
        assert_eq!(row.hosted, 1);
        assert!(row.alive);
    }

    #[test]
    fn unknown_method_rejected() {
        let svc = TelemetryService::new(0, Arc::new(OmState::new()), RuntimeStats::new());
        assert!(matches!(
            svc.invoke("frobnicate", &[]),
            Err(RemotingError::MethodNotFound { .. })
        ));
    }

    #[test]
    fn malformed_snapshot_rejected() {
        assert!(decode_snapshot(&Value::Null).is_none());
        assert!(decode_snapshot(&Value::List(vec![Value::I64(1)])).is_none());
        let mut items = vec![Value::I64(0); SNAPSHOT_FIELDS];
        items[3] = Value::Str("not a number".into());
        assert!(decode_snapshot(&Value::List(items)).is_none());
    }

    #[test]
    fn cluster_poll_reports_every_node() {
        let rt = ParcRuntime::builder().nodes(3).build().unwrap();
        noop_class(&rt);
        let _a = rt.create_on("Noop", 0).unwrap();
        let _b = rt.create_on("Noop", 0).unwrap();
        let _c = rt.create_on("Noop", 2).unwrap();
        let rows = rt.telemetry().poll();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.alive));
        assert_eq!(rows.iter().map(|r| r.hosted).collect::<Vec<_>>(), vec![2, 0, 1]);
        assert_eq!(rows[1].node, 1);
    }

    #[test]
    fn dead_node_rows_report_not_alive() {
        let rt = ParcRuntime::builder().nodes(2).build().unwrap();
        noop_class(&rt);
        assert!(rt.kill_node(0));
        let rows = rt.telemetry().poll();
        assert!(!rows[0].alive, "killed node must probe dead");
        assert!(rows[1].alive);
        assert_eq!(rows[0].node, 0);
    }

    #[test]
    fn migration_plane_rides_along() {
        // Booting any runtime publishes a ring table, so the epoch gauge
        // is live; the counters are process-wide and only grow, so the
        // assertions stay monotone under parallel tests.
        let rt = ParcRuntime::builder().nodes(2).build().unwrap();
        noop_class(&rt);
        let rows = rt.telemetry().poll();
        assert!(rows[0].ring_epoch >= 1, "ring epoch gauge is live");
        assert!(rows[0].migrations >= 0);
        assert!(rows[0].forwards >= 0);
    }

    #[test]
    fn batching_counters_ride_along() {
        let mut builder = ParcRuntime::builder();
        builder.nodes(2).aggregation(4);
        let rt = builder.build().unwrap();
        noop_class(&rt);
        let po = rt.create_on("Noop", 1).unwrap();
        for _ in 0..8 {
            po.post("tick", vec![]).unwrap();
        }
        po.flush().unwrap();
        let rows = rt.telemetry().poll();
        assert!(rows[1].batches_sent >= 2, "saw {}", rows[1].batches_sent);
        assert!(rows[1].calls_in_batches >= 8, "saw {}", rows[1].calls_in_batches);
        assert!(rows[1].batch_shrinks >= 0 && rows[1].batch_grows >= 0);
    }

    #[test]
    fn activity_shows_up_in_snapshots() {
        let rt = ParcRuntime::builder().nodes(2).build().unwrap();
        noop_class(&rt);
        let po = rt.create_on("Noop", 1).unwrap();
        for _ in 0..5 {
            po.call("tick", vec![]).unwrap();
        }
        let rows = rt.telemetry().poll();
        assert!(rows[1].dispatched >= 5, "saw {}", rows[1].dispatched);
        assert!(rows[1].sync_calls >= 5, "runtime counters ride along");
    }
}
