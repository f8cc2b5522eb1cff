//! The live cluster telemetry plane.
//!
//! Every runtime node's OM (the well-known `__om` object, see
//! [`crate::om::OM_OBJECT`]) answers `snapshot` with [`snapshot`]'s
//! fixed-layout list of `I64`s covering the node's OM load counters,
//! mailbox-scheduler stats, queue-wait latency quantiles and process-wide
//! fault counters — everything a cluster dashboard needs, served over the
//! ordinary remoting stack so it works across any transport the node
//! happens to listen on.
//!
//! [`ClusterTelemetry`] is the read side and the one way runtime code asks
//! a node about itself: placement, the failure detector, the rebalancer
//! and `parc-top` all call [`ClusterTelemetry::poll_node`], which waits at
//! most [`POLL_TIMEOUT`] so a dead or saturated node costs one bounded
//! probe, not a hang. [`ClusterTelemetry::poll`] returns one
//! [`NodeTelemetry`] row per node; the `parc-top` binary renders those
//! rows as a refreshing table.

use std::time::Duration;

use parc_remoting::channel::RemoteObject;
use parc_remoting::inproc::InprocNetwork;
use parc_serial::Value;

use crate::om::{OmState, OM_OBJECT};
use crate::nodes::node_uri;
use crate::stats::RuntimeStats;

/// How long one telemetry probe waits for a node before the row is
/// reported dead.
pub const POLL_TIMEOUT: Duration = Duration::from_millis(250);

/// Number of `I64` fields in the `snapshot` list, in order: node, hosted,
/// queue_depth, max_object_depth, executed, steals, busy, queue-wait p50
/// (ns), queue-wait p99 (ns), faults injected, objects failed over, async
/// calls, sync calls, messages sent, batches sent, calls in batches,
/// batch-controller shrinks, batch-controller grows, migrations completed,
/// forwarding entries outstanding, claims acquired, claims aborted,
/// claim-wait p99 (ns).
pub const SNAPSHOT_FIELDS: usize = 23;

/// Encodes `node`'s telemetry row — what its OM answers to `snapshot` —
/// from its OM state and the runtime's shared counters.
pub fn snapshot(node: usize, state: &OmState, stats: &RuntimeStats) -> Value {
    let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    let size = |v: usize| i64::try_from(v).unwrap_or(i64::MAX);
    let depth = state.dispatch_depth();
    let dispatch = depth.stats();
    let wait = parc_obs::histogram(parc_obs::kinds::MAILBOX_WAIT);
    let snap = stats.snapshot();
    Value::List(vec![
        Value::I64(node as i64),
        Value::I64(state.load()),
        Value::I64(state.queue_depth()),
        Value::I64(size(depth.max_object_depth())),
        Value::I64(clamp(dispatch.executed)),
        Value::I64(clamp(dispatch.stolen)),
        Value::I64(size(dispatch.busy)),
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
        Value::I64(clamp(parc_obs::counter(parc_obs::kinds::CLAIM_ACQUIRED).get())),
        Value::I64(clamp(parc_obs::counter(parc_obs::kinds::CLAIM_ABORTED).get())),
        Value::I64(clamp(parc_obs::histogram(parc_obs::kinds::CLAIM_WAIT).percentile(99.0))),
    ])
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
    /// Reservation claims granted so far (process-wide).
    pub claims_acquired: i64,
    /// Reservation claims aborted — lease expiry or partial-acquire
    /// rollback (process-wide).
    pub claims_aborted: i64,
    /// Tail wait for a claim grant, nanoseconds (process-wide histogram).
    pub claim_wait_p99_ns: i64,
}

impl NodeTelemetry {
    /// The placement load: hosted objects plus live mailbox backlog, so a
    /// node whose queues are jammed loses ties even when it hosts fewer
    /// objects. Shared by `LeastLoaded` placement and the rebalancer.
    pub fn load(&self) -> i64 {
        self.hosted.saturating_add(self.queue_depth)
    }
}

/// Decodes one `snapshot` reply. `None` when the value is not the
/// fixed-layout list [`snapshot`] emits.
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
        queue_depth: f[2],
        max_object_depth: f[3],
        executed: f[4],
        steals: f[5],
        busy: f[6],
        queue_wait_p50_ns: f[7],
        queue_wait_p99_ns: f[8],
        faults_injected: f[9],
        objects_failed_over: f[10],
        async_calls: f[11],
        sync_calls: f[12],
        messages_sent: f[13],
        batches_sent: f[14],
        calls_in_batches: f[15],
        batch_shrinks: f[16],
        batch_grows: f[17],
        migrations: f[18],
        forwards: f[19],
        claims_acquired: f[20],
        claims_aborted: f[21],
        claim_wait_p99_ns: f[22],
    })
}

/// Poller for the whole cluster: one bounded probe per node per
/// [`ClusterTelemetry::poll`], dead nodes reported as `alive: false`
/// rows instead of errors.
#[derive(Clone)]
pub struct ClusterTelemetry {
    net: InprocNetwork,
    nodes: usize,
}

impl ClusterTelemetry {
    /// Creates a poller over `nodes` endpoints of `net`; each probe waits
    /// at most [`POLL_TIMEOUT`].
    pub fn new(net: InprocNetwork, nodes: usize) -> ClusterTelemetry {
        ClusterTelemetry { net, nodes }
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

    /// Polls one node's OM; `None` when it is unreachable within
    /// [`POLL_TIMEOUT`] (dead, or every mailbox worker busy).
    pub fn poll_node(&self, node: usize) -> Option<NodeTelemetry> {
        let uri: parc_remoting::ObjectUri = node_uri(node, OM_OBJECT).parse().ok()?;
        // Never chaos-wrapped: placement, failure detection and the
        // dashboard must see through injected faults, not be subject to
        // them.
        let chan = self.net.open_with_timeout(&uri, POLL_TIMEOUT).ok()?;
        let reply = RemoteObject::new(chan, OM_OBJECT).call("snapshot", vec![]).ok()?;
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
    use std::sync::Arc;
    use parc_remoting::dispatcher::FnInvokable;

    fn noop_class(rt: &ParcRuntime) {
        rt.register_class("Noop", || {
            Arc::new(FnInvokable(|_m: &str, _a: &[Value]| Ok(Value::Null)))
        });
    }

    #[test]
    fn service_snapshot_has_fixed_layout() {
        let sched = parc_remoting::MailboxScheduler::with_workers(1);
        let state = OmState::new(sched.depth_handle());
        state.object_created();
        let v = snapshot(7, &state, &RuntimeStats::new());
        let row = decode_snapshot(&v).expect("layout decodes");
        assert_eq!(row.node, 7);
        assert_eq!(row.hosted, 1);
        assert!(row.alive);
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
        // The counters are process-wide and only grow, so the assertions
        // stay monotone under parallel tests.
        let rt = ParcRuntime::builder().nodes(2).build().unwrap();
        noop_class(&rt);
        let rows = rt.telemetry().poll();
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
        assert!(rows[1].executed >= 5, "saw {}", rows[1].executed);
        assert!(rows[1].sync_calls >= 5, "runtime counters ride along");
    }
}
