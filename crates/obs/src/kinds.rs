//! The shared span/event vocabulary.
//!
//! One constant per stage of a remote call and per adaptation decision, so
//! real traces (`parc-obs` ring), simulated traces (`parc_sim::Trace`) and
//! tests all grep for the same strings. `parc-sim` re-exports this module
//! as `parc_sim::kinds`; use the constants instead of string literals when
//! recording either kind of trace.

// ---- client-side call path (remoting) ----

/// A synchronous two-way remote call, client side, end to end.
pub const CALL: &str = "call";
/// A one-way post, client side.
pub const POST: &str = "post";
/// Request/reply encoding through a formatter.
pub const SERIALIZE: &str = "serialize";
/// Request/reply decoding through a formatter.
pub const DESERIALIZE: &str = "deserialize";
/// Handing the encoded frame to the transport (queue push, socket write).
pub const CHANNEL_SEND: &str = "channel.send";
/// Waiting for and reading the reply frame.
pub const CHANNEL_RECV: &str = "channel.recv";
/// One pipelined call on a multiplexed channel, send through demuxed
/// reply (covers the whole in-flight window, not just socket I/O).
pub const CHANNEL_PIPELINE: &str = "channel.pipeline";

// ---- channel metrics (gauge/counter names, not span kinds) ----

/// Gauge: calls currently in flight on multiplexed channels.
pub const INFLIGHT: &str = "channel.inflight";
/// Counter: buffer-pool checkouts served from the pool.
pub const BUFPOOL_HIT: &str = "bufpool.hit";
/// Counter: buffer-pool checkouts that had to allocate.
pub const BUFPOOL_MISS: &str = "bufpool.miss";
/// Counter/event: a mux caller reading its own reply found the socket
/// readable while it polled, before parking in `read` (`polls=..`).
pub const SPIN_HIT: &str = "channel.spin_hit";
/// Counter/event: the polling window ran out and the caller parked in
/// `read` (`polls=..`).
pub const SPIN_MISS: &str = "channel.spin_miss";
/// Counter/event: a mux caller done with the connection's read half
/// handed it to another caller still waiting for a reply.
pub const LEADER_HANDOFF: &str = "channel.leader_handoff";

// ---- server-side dispatch path ----

/// Server-side handling of one frame: decode, route, invoke.
pub const DISPATCH: &str = "dispatch";
/// Encoding and sending the reply frame.
pub const REPLY: &str = "reply";
/// Histogram-only, and no server records it: [`MAILBOX_WAIT`] covers
/// the time a call waits for a dispatch worker on every transport. The
/// name stays because the `callpath` benchmark still reads it.
pub const QUEUE_WAIT: &str = "queue.wait";
/// Histogram-only: time a task spent queued in a [`ThreadPool`] before a
/// worker ran it.
pub const POOL_WAIT: &str = "pool.wait";

// ---- mailbox dispatch (per-object executors) ----

/// Histogram-only: time an invocation sat in its object's mailbox before
/// a dispatch worker began running it.
pub const MAILBOX_WAIT: &str = "dispatch.mailbox_wait";
/// Gauge: invocations enqueued in mailboxes and not yet completed.
pub const MAILBOX_DEPTH: &str = "dispatch.depth";
/// Counter: mailboxes a dispatch worker stole from a sibling's run queue.
pub const MAILBOX_STEAL: &str = "dispatch.steal";
/// Gauge: dispatch workers currently inside an invocation.
pub const MAILBOX_BUSY: &str = "dispatch.busy";

// ---- SCOOPP runtime (parc-core) ----

/// A proxy-object synchronous call (wraps the remoting `call`).
pub const PO_CALL: &str = "po.call";
/// A proxy-object asynchronous call on the local fast path.
pub const PO_LOCAL: &str = "po.local";
/// Shipping an aggregation buffer as one message.
pub const BATCH_FLUSH: &str = "batch.flush";
/// Creating an implementation object (local or via a remote factory).
pub const FACTORY_CREATE: &str = "factory.create";
/// One call served by a node's object manager.
pub const OM_DISPATCH: &str = "om.dispatch";
/// Histogram of measured per-call service time feeding the grain adapter.
pub const ADAPT_SERVICE: &str = "adapt.service";

// ---- adaptation-decision events ----

/// Event: the recommended aggregation factor changed
/// (`old=.. new=.. ewma_us=.. overhead_us=..`).
pub const AGG_SIZE_CHANGED: &str = "agg_size_changed";
/// Event: a new object was agglomerated locally (`object=.. reason=..`).
pub const AGGLOMERATE: &str = "agglomerate";
/// Event: an aggregation buffer was shipped (`calls=.. bytes=..`).
pub const BATCH_FLUSHED: &str = "batch_flushed";
/// Counter/event: the closed-loop batch controller halved its target
/// under server backpressure (`old=.. new=.. depth=..`).
pub const BATCH_SHRINK: &str = "batch.shrink";
/// Counter/event: the closed-loop batch controller doubled its target
/// with the remote queues drained (`old=.. new=.. depth=..`).
pub const BATCH_GROW: &str = "batch.grow";
/// Counter/event: an aggregation buffer was shipped because its oldest
/// call hit the max-linger deadline, not because it filled
/// (`calls=.. waited_us=..`).
pub const BATCH_LINGER: &str = "batch.linger_flush";

// ---- fault injection & recovery ----

/// Counter/event: a chaos fault was injected into a channel
/// (`kind=.. index=..`).
pub const FAULT_INJECTED: &str = "fault.injected";
/// Counter/event: a call or post was transparently retried after a
/// retryable failure (`attempt=..`).
pub const CALL_RETRIED: &str = "call.retried";
/// Counter/event: a broken TCP client connection was re-established and
/// its correlation slot table re-registered.
pub const CONN_RECONNECTED: &str = "conn.reconnected";
/// Counter/event: the runtime failure detector declared a node dead
/// (`node=..`).
pub const NODE_FAILED: &str = "node.failed";
/// Counter/event: a parallel object was re-created on a surviving node
/// (or degraded to local execution) after its home node died.
pub const OBJECT_FAILED_OVER: &str = "object.failed_over";
/// Histogram: nanoseconds from failure detection to a usable replacement
/// target (reconnect or failover completion).
pub const RECOVERY_LATENCY: &str = "recovery.latency";

// ---- multi-object reservations (claim/release) ----

/// Counter/event: a claim was granted on an object (`object=..`).
pub const CLAIM_ACQUIRED: &str = "claim.acquired";
/// Counter/event: a claim or reservation aborted — lease lapsed or a
/// partial acquisition was rolled back (`object=..`).
pub const CLAIM_ABORTED: &str = "claim.aborted";
/// Counter/event: a claim was released by its holder.
pub const CLAIM_RELEASED: &str = "claim.released";
/// Histogram: nanoseconds a claim request waited for the object to
/// become unclaimed before its grant.
pub const CLAIM_WAIT: &str = "claim.wait";

// ---- object directory, migration & rebalancing ----

/// Span: one load-probe sweep refreshing the `LeastLoaded` placement
/// cache (the only placement path that still performs RPCs).
pub const PLACEMENT_PROBE: &str = "placement.probe";
/// Gauge: current epoch of the published ring routing table.
pub const RING_EPOCH: &str = "ring.epoch";
/// Counter/event: a live migration began (`uri=.. from=.. to=..`).
pub const MIGRATION_STARTED: &str = "migration.started";
/// Counter/event: a live migration installed the object at its new home
/// (`uri=.. from=.. to=..`).
pub const MIGRATION_COMPLETED: &str = "migration.completed";
/// Counter/event: a live migration aborted with the object intact at the
/// source (`uri=.. reason=..`).
pub const MIGRATION_ABORTED: &str = "migration.aborted";
/// Histogram: nanoseconds from migration start to directory flip.
pub const MIGRATION_LATENCY: &str = "migration.latency";
/// Span: one end-to-end `migrate(uri, dst)` — quiesce, snapshot,
/// re-create, install forwarder, flip epoch.
pub const MIGRATION_MOVE: &str = "migration.move";
/// Counter: calls relayed through a migrated object's forwarding entry.
pub const DIRECTORY_FORWARD: &str = "directory.forward";
/// Gauge: forwarding entries currently installed (migrated objects whose
/// old name is still routable).
pub const DIRECTORY_FORWARDS: &str = "directory.forwards";
/// Counter/event: one rebalancer round examined the cluster
/// (`migrated=.. hot=..`).
pub const REBALANCE_ROUND: &str = "rebalance.round";

// ---- observability plane ----

/// Counter: ring records lost to overwrite (truncated-trace detector).
pub const RING_DROPPED: &str = "ring.dropped";
/// Event: the flight recorder wrote a post-mortem dump
/// (`reason=.. seq=..`).
pub const FLIGHT_DUMP: &str = "flight.dump";
/// One call served by a node's `/telemetry` well-known object.
pub const TELEMETRY_DISPATCH: &str = "telemetry.dispatch";
/// One cluster-wide poll by a `ClusterTelemetry` aggregator.
pub const TELEMETRY_POLL: &str = "telemetry.poll";

// ---- baseline stacks ----

/// One RMI stub call (marshal → dispatch → unmarshal).
pub const RMI_CALL: &str = "rmi.call";
/// MPI buffered send.
pub const MPI_SEND: &str = "mpi.send";
/// MPI matched receive.
pub const MPI_RECV: &str = "mpi.recv";
/// `MPI_Pack` of a typed slice into the contiguous buffer.
pub const MPI_PACK: &str = "mpi.pack";
/// `MPI_Unpack` of a typed slice out of the contiguous buffer.
pub const MPI_UNPACK: &str = "mpi.unpack";

// ---- simulation vocabulary (parc-sim Trace) ----
//
// The simulator's deterministic traces use the same strings so a grep for
// e.g. `dispatch` matches both real and simulated runs. `SEND`/`RECV` are
// the virtual-wire hops (distinct from the real channel.* spans).

/// Simulated message enters a link.
pub const SEND: &str = "send";
/// Simulated message leaves a link.
pub const RECV: &str = "recv";
/// Simulated periodic event.
pub const TICK: &str = "tick";
/// Simulated external arrival.
pub const INJECT: &str = "inject";
/// Simulated same-node shortcut (no link crossed).
pub const LOOPBACK: &str = "loopback";

#[cfg(test)]
mod tests {
    #[test]
    fn vocabulary_is_distinct() {
        let all = [
            super::CALL,
            super::POST,
            super::SERIALIZE,
            super::DESERIALIZE,
            super::CHANNEL_SEND,
            super::CHANNEL_RECV,
            super::CHANNEL_PIPELINE,
            super::INFLIGHT,
            super::BUFPOOL_HIT,
            super::BUFPOOL_MISS,
            super::SPIN_HIT,
            super::SPIN_MISS,
            super::LEADER_HANDOFF,
            super::DISPATCH,
            super::REPLY,
            super::QUEUE_WAIT,
            super::POOL_WAIT,
            super::MAILBOX_WAIT,
            super::MAILBOX_DEPTH,
            super::MAILBOX_STEAL,
            super::MAILBOX_BUSY,
            super::PO_CALL,
            super::PO_LOCAL,
            super::BATCH_FLUSH,
            super::FACTORY_CREATE,
            super::OM_DISPATCH,
            super::ADAPT_SERVICE,
            super::AGG_SIZE_CHANGED,
            super::AGGLOMERATE,
            super::BATCH_FLUSHED,
            super::BATCH_SHRINK,
            super::BATCH_GROW,
            super::BATCH_LINGER,
            super::FAULT_INJECTED,
            super::CALL_RETRIED,
            super::CONN_RECONNECTED,
            super::NODE_FAILED,
            super::OBJECT_FAILED_OVER,
            super::RECOVERY_LATENCY,
            super::CLAIM_ACQUIRED,
            super::CLAIM_ABORTED,
            super::CLAIM_RELEASED,
            super::CLAIM_WAIT,
            super::PLACEMENT_PROBE,
            super::RING_EPOCH,
            super::MIGRATION_STARTED,
            super::MIGRATION_COMPLETED,
            super::MIGRATION_ABORTED,
            super::MIGRATION_LATENCY,
            super::MIGRATION_MOVE,
            super::DIRECTORY_FORWARD,
            super::DIRECTORY_FORWARDS,
            super::REBALANCE_ROUND,
            super::RING_DROPPED,
            super::FLIGHT_DUMP,
            super::TELEMETRY_DISPATCH,
            super::TELEMETRY_POLL,
            super::RMI_CALL,
            super::MPI_SEND,
            super::MPI_RECV,
            super::MPI_PACK,
            super::MPI_UNPACK,
            super::SEND,
            super::RECV,
            super::TICK,
            super::INJECT,
            super::LOOPBACK,
        ];
        let mut set = std::collections::BTreeSet::new();
        for k in all {
            assert!(set.insert(k), "duplicate kind {k}");
        }
    }
}
