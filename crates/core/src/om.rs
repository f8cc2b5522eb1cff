//! The object manager (OM) — one per processing node.
//!
//! §3.2: *"The application entry code creates one instance of the OM on
//! each processing node. The OM controls the grain-size adaptation by
//! instructing PO objects to perform method call aggregation and/or object
//! agglomeration"*, and cooperates on placement and load balancing. Here
//! the OM is a remoting-published service (`__om`) answering one method,
//! `snapshot`: the node's [`crate::NodeTelemetry`] row (hosted objects,
//! mailbox backlog, scheduler counters, …). Placement, the failure
//! detector, the rebalancer and `parc-top` all ask it through
//! [`crate::ClusterTelemetry::poll_node`]; grain-size instructions flow
//! through the shared [`crate::GrainAdapter`].

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use parc_remoting::{DispatchDepth, Invokable, RemotingError};
use parc_serial::Value;

use crate::stats::RuntimeStats;

/// The well-known name every node publishes its OM under.
pub const OM_OBJECT: &str = "__om";

/// Node-local object-manager state (shared with the published service).
pub struct OmState {
    /// Number of implementation objects hosted on the node.
    hosted: AtomicI64,
    /// Live view into the node endpoint's mailbox scheduler.
    depth: DispatchDepth,
}

impl OmState {
    /// Creates state with no hosted objects over the node's mailbox
    /// scheduler, so placement and adaptation observe real dispatch
    /// backpressure, not just hosted-object counts.
    pub fn new(depth: DispatchDepth) -> OmState {
        OmState { hosted: AtomicI64::new(0), depth }
    }

    /// Calls queued-or-running across all of the node's mailboxes right
    /// now.
    pub fn queue_depth(&self) -> i64 {
        i64::try_from(self.depth.pending()).unwrap_or(i64::MAX)
    }

    /// The node's mailbox scheduler: backlog and counters.
    pub fn dispatch_depth(&self) -> &DispatchDepth {
        &self.depth
    }

    /// Records an IO creation on this node.
    pub fn object_created(&self) {
        self.hosted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an IO destruction.
    pub fn object_destroyed(&self) {
        self.hosted.fetch_sub(1, Ordering::Relaxed);
    }

    /// Implementation objects hosted on the node.
    pub fn load(&self) -> i64 {
        self.hosted.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for OmState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OmState")
            .field("hosted", &self.load())
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

/// The published OM service: answers `snapshot` with the node's telemetry
/// row, the one question peers ask a node about itself (Fig. 3, calls *c*).
pub struct OmService {
    node: usize,
    state: Arc<OmState>,
    stats: RuntimeStats,
}

impl OmService {
    /// Creates the service for `node` over its OM state and the runtime's
    /// shared counters.
    pub fn new(node: usize, state: Arc<OmState>, stats: RuntimeStats) -> OmService {
        OmService { node, state, stats }
    }
}

impl Invokable for OmService {
    fn invoke(&self, method: &str, _args: &[Value]) -> Result<Value, RemotingError> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::OM_DISPATCH);
        match method {
            "snapshot" => Ok(crate::telemetry::snapshot(self.node, &self.state, &self.stats)),
            _ => Err(RemotingError::MethodNotFound {
                object: OM_OBJECT.to_string(),
                method: method.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parc_remoting::MailboxScheduler;

    #[test]
    fn load_tracks_creations_and_destructions() {
        let sched = MailboxScheduler::with_workers(1);
        let state = OmState::new(sched.depth_handle());
        state.object_created();
        state.object_created();
        state.object_destroyed();
        assert_eq!(state.load(), 1);
    }

    #[test]
    fn unknown_method_rejected() {
        let sched = MailboxScheduler::with_workers(1);
        let state = Arc::new(OmState::new(sched.depth_handle()));
        let om = OmService::new(0, state, RuntimeStats::new());
        assert!(matches!(
            om.invoke("frobnicate", &[]),
            Err(RemotingError::MethodNotFound { .. })
        ));
    }

    #[test]
    fn queue_depth_reflects_the_scheduler() {
        let sched = MailboxScheduler::with_workers(1);
        let state = Arc::new(OmState::new(sched.depth_handle()));
        assert_eq!(state.queue_depth(), 0, "idle scheduler");
        let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
        sched.enqueue("hot", move || {
            let _ = hold_rx.recv();
        });
        sched.enqueue("hot", || {});
        let om = OmService::new(0, Arc::clone(&state), RuntimeStats::new());
        // At least the queued (not yet running) job is visible.
        let row = crate::telemetry::decode_snapshot(&om.invoke("snapshot", &[]).unwrap())
            .expect("layout decodes");
        assert!(row.queue_depth >= 1, "saw {}", row.queue_depth);
        assert!(row.max_object_depth >= 1, "saw {}", row.max_object_depth);
        hold_tx.send(()).unwrap();
        drop(sched);
        assert_eq!(state.queue_depth(), 0, "drained scheduler reports empty");
    }
}
