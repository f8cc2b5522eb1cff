//! The runtime's node table: boot, liveness and failover.
//!
//! [`Nodes`] holds what the runtime knows about its nodes: the network,
//! each node's endpoint and OM state, the class registry, the counters,
//! the object location index, the failure detector's flags and leases,
//! and the rescue endpoint. The runtime and every distributed
//! [`crate::Po`] share it, so a proxy fails over without the runtime
//! handle.
//!
//! [`Nodes::create`] is the one way to create an object on a node, and
//! the one place that indexes it: every distributed object the runtime
//! created is indexed at its current node. Failover drops the dead
//! home's entry; migration relocates it.
//!
//! One rule decides that a node is dead, whoever asks: an answered poll
//! renews the node's lease, a missed poll marks it dead once that lease
//! has lapsed. The periodic detector applies it to every alive node, and
//! failover applies it to the one node a call failed against before it
//! moves an object off that node.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_remoting::channel::{ChannelProvider, RemoteObject};
use parc_remoting::inproc::{InprocEndpoint, InprocNetwork};
use parc_remoting::LeaseManager;
use parc_sync::Mutex;

use crate::directory::ObjectDirectory;
use crate::error::ParcError;
use crate::factory::{create_on_node, ClassRegistry, FactoryService, FACTORY_OBJECT};
use crate::om::{OmService, OmState, OM_OBJECT};
use crate::po::Target;
use crate::stats::RuntimeStats;
use crate::telemetry::{ClusterTelemetry, NodeTelemetry};

/// The endpoint name of runtime node `node`: `node{node}`.
pub(crate) fn node_name(node: usize) -> String {
    format!("node{node}")
}

/// The URI of `object` hosted on runtime node `node`.
pub(crate) fn node_uri(node: usize, object: &str) -> String {
    format!("inproc://{}/{object}", node_name(node))
}

/// The runtime node an endpoint name (a URI authority) names, if any —
/// the inverse of [`node_name`].
pub(crate) fn node_of(authority: &str) -> Option<usize> {
    authority.strip_prefix("node")?.parse().ok()
}

/// Boots one node: an endpoint named [`node_name`] publishing the per-node OM
/// and factory — the paper's boot code, shared between the builder and the
/// rescue endpoint.
///
/// Mailbox dispatch: each IO keeps the serial-per-grain semantics of the
/// ParC++ SO message loop (§3.2) — its calls run one at a time, in arrival
/// order — while *distinct* IOs on the node execute in parallel on the
/// stealing workers.
fn boot_node(
    net: &InprocNetwork,
    registry: &ClassRegistry,
    node: usize,
    stats: &RuntimeStats,
    claim_ttl: Duration,
) -> Result<(InprocEndpoint, Arc<OmState>), ParcError> {
    let ep = net.create_endpoint(node_name(node))?;
    let depth = ep.dispatch_depth().expect("inproc endpoints dispatch through a mailbox scheduler");
    let om_state = Arc::new(OmState::new(depth));
    // Per-node claim table: every IO the factory creates is claimable,
    // and its claim leases expire against this node's clock.
    let claims = Arc::new(parc_remoting::ClaimTable::with_ttl(claim_ttl));
    ep.objects().register_singleton(
        OM_OBJECT,
        Arc::new(OmService::new(node, Arc::clone(&om_state), stats.clone())),
    );
    ep.objects().register_singleton(
        FACTORY_OBJECT,
        Arc::new(FactoryService::new(
            node,
            registry.clone(),
            ep.objects().clone(),
            Arc::clone(&om_state),
            net.clone(),
            claims,
        )),
    );
    Ok((ep, om_state))
}

/// The runtime's nodes (see the module docs).
pub(crate) struct Nodes {
    pub(crate) net: InprocNetwork,
    pub(crate) registry: ClassRegistry,
    /// The runtime's shared counters, reported by every node's OM (the
    /// rescue endpoint's included).
    pub(crate) stats: RuntimeStats,
    /// The location index of every distributed object created here.
    pub(crate) directory: Arc<ObjectDirectory>,
    /// Every node's endpoint handle. Dropping a handle removes its
    /// endpoint from the network, so the table keeps them; `kill` and
    /// `stop_all` stop endpoints by name.
    endpoints: Vec<InprocEndpoint>,
    pub(crate) om_states: Vec<Arc<OmState>>,
    alive: Vec<AtomicBool>,
    /// Liveness leases keyed by endpoint name (`node{i}`), renewed by
    /// successful probes — the failure detector's grace mechanism.
    leases: LeaseManager,
    epoch: Instant,
    /// Lazily-booted extra endpoint (`node{N}`) used when a distributed
    /// target is required (skeletons wire stages by URI) but every real
    /// node is dead.
    rescue: Mutex<Option<InprocEndpoint>>,
    /// Claim-lease TTL handed to the rescue endpoint, matching the TTL
    /// the real nodes were booted with.
    claim_ttl: Duration,
}

impl Nodes {
    /// Boots `count` nodes on a fresh network, each granted a liveness
    /// lease of `lease_ttl`.
    pub(crate) fn boot(
        count: usize,
        claim_ttl: Duration,
        lease_ttl: Duration,
    ) -> Result<Nodes, ParcError> {
        let net = InprocNetwork::new();
        let registry = ClassRegistry::new();
        // Created before the nodes boot: every node's OM reports the
        // runtime's counters in its telemetry row.
        let stats = RuntimeStats::new();
        let mut endpoints = Vec::with_capacity(count);
        let mut om_states = Vec::with_capacity(count);
        for node in 0..count {
            let (ep, om_state) = boot_node(&net, &registry, node, &stats, claim_ttl)?;
            endpoints.push(ep);
            om_states.push(om_state);
        }
        let ttl_nanos = u64::try_from(lease_ttl.as_nanos()).unwrap_or(u64::MAX);
        let nodes = Nodes {
            net,
            registry,
            stats,
            directory: Arc::new(ObjectDirectory::new()),
            endpoints,
            om_states,
            alive: (0..count).map(|_| AtomicBool::new(true)).collect(),
            leases: LeaseManager::new(ttl_nanos),
            epoch: Instant::now(),
            rescue: Mutex::new(None),
            claim_ttl,
        };
        for node in 0..count {
            nodes.leases.grant(node_name(node), nodes.now());
        }
        Ok(nodes)
    }

    /// Number of real nodes (dead ones included; the rescue node is not
    /// a member).
    pub(crate) fn count(&self) -> usize {
        self.alive.len()
    }

    /// A poller over every real node's OM.
    pub(crate) fn telemetry(&self) -> ClusterTelemetry {
        ClusterTelemetry::new(self.net.clone(), self.count())
    }

    /// `Ok` when `node` is a real node of this runtime.
    pub(crate) fn check_node(&self, node: usize) -> Result<(), ParcError> {
        if node < self.count() {
            return Ok(());
        }
        Err(ParcError::Config {
            detail: format!("node {node} outside runtime of {} nodes", self.count()),
        })
    }

    // ---- liveness -------------------------------------------------------

    /// Injected-time source for the lease manager: nanoseconds since boot.
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Liveness of a *real* node (the rescue node is not a member).
    pub(crate) fn is_alive(&self, node: usize) -> bool {
        self.alive.get(node).is_some_and(|a| a.load(Ordering::Relaxed))
    }

    /// Indices of the real nodes currently considered alive.
    pub(crate) fn alive_nodes(&self) -> Vec<usize> {
        (0..self.count()).filter(|&n| self.is_alive(n)).collect()
    }

    /// Marks `node` dead. Returns `true` on the alive→dead transition.
    pub(crate) fn mark_dead(&self, node: usize) -> bool {
        let Some(flag) = self.alive.get(node) else { return false };
        let transitioned = flag.swap(false, Ordering::Relaxed);
        if transitioned {
            self.leases.cancel(&node_name(node));
            parc_obs::counter(parc_obs::kinds::NODE_FAILED).incr();
            parc_obs::event(parc_obs::kinds::NODE_FAILED, || format!("node={}", node_name(node)));
            // Post-mortem flight recorder: with PARC_OBS_DUMP_DIR set,
            // freeze the ring and event log at the moment of death.
            parc_obs::flight_dump("node.failed");
        }
        transitioned
    }

    /// Marks `node` dead and stops its endpoint. Returns `true` on the
    /// alive→dead transition.
    pub(crate) fn kill(&self, node: usize) -> bool {
        let transitioned = self.mark_dead(node);
        self.net.stop_endpoint(&node_name(node));
        transitioned
    }

    /// Polls each alive node's OM once: `None` for a node that did not
    /// answer within [`crate::telemetry::POLL_TIMEOUT`]. The one sweep
    /// the failure detector, `LeastLoaded` placement and the rebalancer
    /// share.
    pub(crate) fn poll_alive(&self) -> Vec<(usize, Option<NodeTelemetry>)> {
        let telemetry = self.telemetry();
        self.alive_nodes().into_iter().map(|node| (node, telemetry.poll_node(node))).collect()
    }

    /// The failure detector's rule for one poll of `node`: an answered
    /// poll renews its lease, a missed one marks it dead once the lease
    /// has lapsed. Returns `true` on the alive→dead transition.
    fn judge_poll(&self, node: usize, answered: bool) -> bool {
        let name = node_name(node);
        let now = self.now();
        if answered {
            self.leases.renew(&name, now);
            return false;
        }
        self.leases.remaining(&name, now).unwrap_or(0) == 0 && self.mark_dead(node)
    }

    /// One round of the lease-based failure detector: applies
    /// [`Nodes::judge_poll`] to every alive node. Returns the newly-dead
    /// nodes.
    pub(crate) fn detect_failures(&self) -> Vec<usize> {
        self.poll_alive()
            .into_iter()
            .filter(|(node, row)| self.judge_poll(*node, row.is_some()))
            .map(|(node, _)| node)
            .collect()
    }

    /// Whether `node` is dead: already marked so, or it misses one poll
    /// after its lease has lapsed. Failover asks this before it moves an
    /// object off `node`, so a single failed call (a dropped reply, a
    /// timeout) cannot bury a node that still answers.
    pub(crate) fn confirm_dead(&self, node: usize) -> bool {
        if self.is_alive(node) {
            let answered = self.telemetry().poll_node(node).is_some();
            self.judge_poll(node, answered);
        }
        !self.is_alive(node)
    }

    /// Stops every endpoint, the rescue endpoint included, exactly as
    /// `kill` stops one. Merely dropping an endpoint handle keeps it
    /// serving the channels still open to it, and objects that hold
    /// channels to sibling nodes (pipeline stages, farm workers) keep
    /// those channels alive in a cycle — the scheduler threads of every
    /// node would outlive the runtime. Stopping empties each endpoint's
    /// serving state, which breaks the cycle.
    pub(crate) fn stop_all(&self) {
        for ep in self.endpoints.iter().chain(self.rescue.lock().as_ref()) {
            self.net.stop_endpoint(ep.name());
        }
    }

    // ---- creation and failover -------------------------------------------

    /// Creates an object of `class` on `node` through its factory and
    /// indexes it in the directory — the one way the runtime creates an
    /// object on a node.
    pub(crate) fn create(&self, class: &str, node: usize) -> Result<Target, ParcError> {
        if self.registry.get(class).is_none() {
            return Err(ParcError::UnknownClass { class: class.to_string() });
        }
        let (io_name, remote) = create_on_node(&self.net, node, class, None)?;
        self.directory.register(node_uri(node, &io_name), node);
        Ok(Target::Remote { remote, node, io_name })
    }

    /// Boots the rescue endpoint on first use and creates `class` on it.
    /// It runs under the index one past the real nodes.
    pub(crate) fn create_rescue(&self, class: &str) -> Result<Target, ParcError> {
        let node = self.count();
        {
            let mut rescue = self.rescue.lock();
            if rescue.is_none() {
                let (ep, _om_state) =
                    boot_node(&self.net, &self.registry, node, &self.stats, self.claim_ttl)?;
                *rescue = Some(ep);
            }
        }
        self.create(class, node)
    }

    /// Opens a remote target to an *existing* object from its URI — the
    /// proxy-repoint path taken when a reply carries a `Moved` marker
    /// after live migration.
    pub(crate) fn open(&self, uri: &str) -> Result<Target, ParcError> {
        let parsed: parc_remoting::ObjectUri = uri.parse()?;
        let node = node_of(parsed.authority()).ok_or(ParcError::Config {
            detail: format!("uri authority {:?} is not a runtime node", parsed.authority()),
        })?;
        let chan = self.net.open(&parsed)?;
        let remote = RemoteObject::new(chan, parsed.object());
        Ok(Target::Remote { remote, node, io_name: parsed.object().to_string() })
    }

    /// Picks a new home for the object `io_name` of `class` once
    /// `failed_node` is confirmed dead ([`Nodes::confirm_dead`]): the next
    /// surviving node whose factory answers, or — with none — a fresh
    /// local instance, degrading to local synchronous execution. A
    /// survivor whose create fails is skipped and asked
    /// [`Nodes::confirm_dead`], so only the lease rule buries it, not one
    /// dropped create. The dead home's index entry is dropped first. Each
    /// node is tried at most once and `Target::Local` never fails over,
    /// so recovery terminates.
    pub(crate) fn replace_target(
        &self,
        class: &str,
        failed_node: usize,
        io_name: &str,
    ) -> Result<Target, ParcError> {
        self.directory.unregister(&node_uri(failed_node, io_name));
        // Looked up first: a proxy built from a bare URI has no class to
        // re-create, and must not fail every survivor's factory in turn.
        let factory = self
            .registry
            .get(class)
            .ok_or_else(|| ParcError::UnknownClass { class: class.to_string() })?;
        let n = self.count();
        for offset in 1..=n {
            let node = (failed_node + offset) % n;
            if !self.is_alive(node) {
                continue;
            }
            match self.create(class, node) {
                Ok(target) => return Ok(target),
                Err(_) => {
                    self.confirm_dead(node);
                }
            }
        }
        Ok(Target::Local(factory()))
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use parc_serial::Value;

    use crate::config::GrainConfig;
    use crate::runtime::tests::{counter_class, runtime};
    use crate::runtime::ParcRuntime;

    #[test]
    fn kill_node_removes_it_from_placement() {
        let rt = runtime(3, GrainConfig::default());
        assert!(rt.kill_node(1));
        assert!(!rt.kill_node(1), "second kill is a no-op");
        assert!(!rt.node_is_alive(1));
        assert_eq!(rt.alive_nodes(), vec![0, 2]);
        let nodes: Vec<Option<usize>> =
            (0..4).map(|_| rt.create("Counter").unwrap().node()).collect();
        assert_eq!(nodes, vec![Some(0), Some(2), Some(0), Some(2)]);
    }

    #[test]
    fn proxy_fails_over_to_surviving_node() {
        let rt = runtime(2, GrainConfig::default());
        let c = rt.create_on("Counter", 0).unwrap();
        c.call("bump", vec![Value::I32(5)]).unwrap();
        assert!(rt.kill_node(0));
        // The next call transparently re-creates the object on node 1. The
        // replacement starts from the constructor, so earlier state is
        // gone — the documented trade-off.
        c.call("bump", vec![Value::I32(2)]).unwrap();
        assert_eq!(c.node(), Some(1));
        assert_eq!(c.call("total", vec![]).unwrap(), Value::I64(2));
    }

    #[test]
    fn buffered_posts_survive_a_kill_via_failover() {
        let rt = runtime(2, GrainConfig { aggregation_factor: 4, ..GrainConfig::default() });
        let c = rt.create_on("Counter", 0).unwrap();
        for _ in 0..3 {
            c.post("bump", vec![Value::I32(1)]).unwrap();
        }
        assert_eq!(c.pending(), 3);
        assert!(rt.kill_node(0));
        // The flush fails against the dead node, reclaims the batch, and
        // re-ships it to the failed-over replacement on node 1.
        c.flush().unwrap();
        assert_eq!(c.node(), Some(1));
        assert_eq!(c.call("total", vec![]).unwrap(), Value::I64(3));
    }

    #[test]
    fn last_node_death_degrades_to_local_execution() {
        let rt = runtime(1, GrainConfig::default());
        let c = rt.create("Counter").unwrap();
        c.call("bump", vec![Value::I32(9)]).unwrap();
        assert!(rt.kill_node(0));
        // No survivors: the proxy degrades to local synchronous execution.
        c.call("bump", vec![Value::I32(4)]).unwrap();
        assert!(c.is_local());
        assert_eq!(c.node(), None);
        assert_eq!(c.call("total", vec![]).unwrap(), Value::I64(4));
    }

    #[test]
    fn create_spread_uses_rescue_endpoint_when_all_dead() {
        let rt = runtime(2, GrainConfig::default());
        rt.kill_node(0);
        rt.kill_node(1);
        let c = rt.create_spread("Counter", 0).unwrap();
        assert!(!c.is_local(), "skeleton stages need a URI-bearing target");
        assert_eq!(c.node(), Some(2), "rescue endpoint runs one past the real nodes");
        let uri = c.uri().expect("rescue objects carry URIs");
        c.call("bump", vec![Value::I32(6)]).unwrap();
        let alias = rt.proxy_from_uri(&uri).unwrap();
        assert_eq!(alias.call("total", vec![]).unwrap(), Value::I64(6));
    }

    #[test]
    fn create_spread_skips_dead_nodes() {
        let rt = runtime(3, GrainConfig::default());
        rt.kill_node(1);
        let nodes: Vec<Option<usize>> = (0..4)
            .map(|i| rt.create_spread("Counter", i).unwrap().node())
            .collect();
        assert_eq!(nodes, vec![Some(0), Some(2), Some(0), Some(2)]);
    }

    #[test]
    fn detect_failures_declares_stopped_endpoints_dead() {
        let rt = runtime(3, GrainConfig::default());
        assert_eq!(rt.detect_failures(), Vec::<usize>::new(), "healthy cluster");
        // Stop the endpoint behind the runtime's back — a crash, not an
        // administrative kill.
        assert!(rt.network().stop_endpoint("node1"));
        assert_eq!(rt.detect_failures(), vec![1]);
        assert!(!rt.node_is_alive(1));
        assert_eq!(rt.alive_nodes(), vec![0, 2]);
    }

    #[test]
    fn lease_grace_tolerates_transient_probe_failures() {
        let mut b = ParcRuntime::builder();
        b.nodes(2).node_lease_ttl(Duration::from_secs(3600));
        let rt = b.build().unwrap();
        counter_class(&rt);
        assert!(rt.network().stop_endpoint("node1"));
        // The probe fails but the lease has an hour left: not dead yet.
        assert_eq!(rt.detect_failures(), Vec::<usize>::new());
        assert!(rt.node_is_alive(1));
    }

    #[test]
    fn mark_node_dead_is_soft() {
        let rt = runtime(2, GrainConfig::default());
        let c = rt.create_on("Counter", 0).unwrap();
        c.call("bump", vec![Value::I32(7)]).unwrap();
        assert!(rt.mark_node_dead(0));
        // Placement avoids the node, but the endpoint still runs: the
        // existing proxy keeps its state and keeps working.
        assert_eq!(rt.alive_nodes(), vec![1]);
        assert_eq!(c.call("total", vec![]).unwrap(), Value::I64(7));
        assert_eq!(rt.create("Counter").unwrap().node(), Some(1));
    }

    #[test]
    fn failing_over_a_uri_proxy_marks_no_survivor_dead() {
        let rt = runtime(3, GrainConfig::default());
        let c = rt.create_on("Counter", 0).unwrap();
        let alias = rt.proxy_from_uri(&c.uri().unwrap()).unwrap();
        assert!(rt.network().stop_endpoint("node0"));
        // A URI proxy has no class to re-create: its call fails, and only
        // the node that died is marked dead.
        assert!(alias.call("total", vec![]).is_err());
        assert_eq!(rt.alive_nodes(), vec![1, 2]);
    }
}
