//! The ParC# runtime: nodes, boot code, creation flow (Fig. 5).
//!
//! A [`ParcRuntime`] boots `n` nodes (in-process endpoints), publishing on
//! each the object manager (`__om`) and the remote factory (`__factory`) —
//! the paper's per-node boot code. [`ParcRuntime::create`] then implements
//! the Fig. 5 constructor: either *agglomerate* (create the IO locally,
//! notify the OM) or contact an OM-chosen node's factory to create the IO
//! remotely, wrapping the result in a [`Po`].
//!
//! The runtime is also fault-aware. Each node carries a liveness lease
//! (reusing the remoting [`LeaseManager`]); [`ParcRuntime::detect_failures`]
//! probes the OMs and marks nodes whose lease lapsed as dead,
//! [`ParcRuntime::kill_node`] kills one deliberately (tests, chaos runs).
//! Dead nodes drop out of every placement policy, proxies created through
//! the runtime re-create their objects on survivors via [`FailoverState`],
//! and when *no* node survives the runtime degrades to local synchronous
//! execution so skeleton programs still complete.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_remoting::channel::{ChannelProvider, RemoteObject};
use parc_remoting::inproc::{InprocEndpoint, InprocNetwork};
use parc_remoting::LeaseManager;
use parc_serial::Value;
use parc_sync::Mutex;

use crate::adapt::GrainAdapter;
use crate::config::{GrainConfig, Placement};
use crate::dag::DependenceGraph;
use crate::directory::{ObjectDirectory, RingConfig};
use crate::error::ParcError;
use crate::factory::{ClassRegistry, FactoryService, FACTORY_OBJECT, MIGRATE_METHOD};
use crate::om::{OmService, OmState, OM_OBJECT};
use crate::po::{Po, Target};
use crate::stats::RuntimeStats;
use crate::telemetry::{ClusterTelemetry, TelemetryService};

/// How long a liveness probe waits for a node's OM before counting the
/// probe as failed.
const PROBE_TIMEOUT: Duration = Duration::from_millis(250);

/// Default TTL of the `LeastLoaded` probe cache: one load sweep serves
/// every `create()` within this window instead of 2×N RPCs per create.
const DEFAULT_PROBE_TTL: Duration = Duration::from_millis(25);

/// Builder for [`ParcRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    nodes: usize,
    grain: GrainConfig,
    placement: Placement,
    placement_explicit: bool,
    node_lease_ttl: Duration,
    node_lease_ttl_explicit: bool,
    claim_ttl: Option<Duration>,
    probe_ttl: Option<Duration>,
    ring: RingConfig,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder {
            nodes: 1,
            grain: GrainConfig::default(),
            placement: Placement::default(),
            placement_explicit: false,
            node_lease_ttl: Duration::ZERO,
            node_lease_ttl_explicit: false,
            claim_ttl: None,
            probe_ttl: None,
            ring: RingConfig::default(),
        }
    }
}

impl RuntimeBuilder {
    /// Number of processing nodes (≥ 1).
    pub fn nodes(&mut self, n: usize) -> &mut Self {
        self.nodes = n;
        self
    }

    /// Grain-size configuration.
    pub fn grain(&mut self, grain: GrainConfig) -> &mut Self {
        self.grain = grain;
        self
    }

    /// Static aggregation factor shorthand (`maxCalls`).
    pub fn aggregation(&mut self, factor: usize) -> &mut Self {
        self.grain.aggregation_factor = factor;
        self
    }

    /// Placement policy. An explicit choice here wins over the
    /// `PARC_PLACEMENT` environment variable; without one the variable
    /// (`ring`, `leastloaded`, `rr`) overrides the
    /// round-robin default.
    pub fn placement(&mut self, placement: Placement) -> &mut Self {
        self.placement = placement;
        self.placement_explicit = true;
        self
    }

    /// TTL of the `LeastLoaded` probe cache. `Duration::ZERO` disables
    /// caching (every create performs the full load scan — the paper's
    /// original behaviour, kept for benchmarking). Defaults to
    /// `PARC_PROBE_TTL_MS` or 25 ms.
    pub fn probe_ttl(&mut self, ttl: Duration) -> &mut Self {
        self.probe_ttl = Some(ttl);
        self
    }

    /// Ring configuration for [`Placement::Ring`] (seed, virtual nodes,
    /// bucket table size).
    pub fn ring(&mut self, ring: RingConfig) -> &mut Self {
        self.ring = ring;
        self
    }

    /// Grace period for the node failure detector. A node whose liveness
    /// probe fails is only declared dead once its lease (renewed by every
    /// successful probe) has lapsed. The default of zero makes
    /// [`ParcRuntime::detect_failures`] act on the first failed probe —
    /// deterministic for tests; chaos runs set a TTL so injected transient
    /// faults do not kill healthy nodes. An explicit setting here wins
    /// over the shared `PARC_LEASE_TTL_MS` environment knob
    /// ([`parc_remoting::lease::LEASE_TTL_ENV`]).
    pub fn node_lease_ttl(&mut self, ttl: Duration) -> &mut Self {
        self.node_lease_ttl = ttl;
        self.node_lease_ttl_explicit = true;
        self
    }

    /// TTL of the leases carried by multi-object reservation claims
    /// ([`crate::txn`]). A claim whose holder stops renewing — client
    /// death, node kill mid-reservation — lapses after this long and the
    /// object's mailbox slot is reclaimed. Defaults to the shared
    /// `PARC_LEASE_TTL_MS` knob, else one second.
    pub fn claim_lease_ttl(&mut self, ttl: Duration) -> &mut Self {
        self.claim_ttl = Some(ttl);
        self
    }

    /// Boots the runtime.
    ///
    /// # Errors
    ///
    /// [`ParcError::Config`] for invalid settings; remoting failures while
    /// booting nodes.
    pub fn build(&self) -> Result<ParcRuntime, ParcError> {
        if self.nodes == 0 {
            return Err(ParcError::Config { detail: "runtime needs at least one node".into() });
        }
        self.grain.validate()?;
        let placement = if self.placement_explicit {
            self.placement
        } else {
            Placement::from_env().unwrap_or(self.placement)
        };
        let probe_ttl = self.probe_ttl.unwrap_or_else(|| {
            std::env::var("PARC_PROBE_TTL_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .map_or(DEFAULT_PROBE_TTL, Duration::from_millis)
        });
        let claim_ttl = self.claim_ttl.unwrap_or_else(parc_remoting::lease::claim_ttl);
        // One env knob serves both lease domains: without an explicit
        // builder setting, PARC_LEASE_TTL_MS also becomes the node
        // liveness grace period.
        let node_lease_ttl = if self.node_lease_ttl_explicit {
            self.node_lease_ttl
        } else {
            parc_remoting::lease::ttl_from_env().unwrap_or(self.node_lease_ttl)
        };
        let net = InprocNetwork::new();
        let registry = ClassRegistry::new();
        // Created before the nodes boot: every node's telemetry service
        // shares the runtime's counters.
        let stats = RuntimeStats::new();
        let directory = Arc::new(ObjectDirectory::new(self.nodes, self.ring));
        let mut endpoints = Vec::with_capacity(self.nodes);
        let mut om_states = Vec::with_capacity(self.nodes);
        for node in 0..self.nodes {
            let (ep, om_state) = boot_node(&net, &registry, node, &stats, claim_ttl)?;
            endpoints.push(Some(ep));
            om_states.push(om_state);
        }
        let ttl_nanos = u64::try_from(node_lease_ttl.as_nanos()).unwrap_or(u64::MAX);
        let failover = Arc::new(FailoverState {
            net: net.clone(),
            registry: registry.clone(),
            alive: (0..self.nodes).map(|_| AtomicBool::new(true)).collect(),
            leases: LeaseManager::new(ttl_nanos),
            epoch: Instant::now(),
            rescue: Mutex::new(None),
            stats: stats.clone(),
            directory: Arc::clone(&directory),
            claim_ttl,
        });
        for node in 0..self.nodes {
            failover.leases.grant(format!("node{node}"), failover.now());
        }
        Ok(ParcRuntime {
            net,
            endpoints: Mutex::new(endpoints),
            registry,
            om_states,
            failover,
            grain: self.grain,
            placement,
            rr_counter: AtomicUsize::new(0),
            rng: Mutex::new(parc_sim_free::SplitMix64::new(0x5eed)),
            next_object_id: AtomicU64::new(1),
            created: AtomicU64::new(0),
            adapter: Arc::new(GrainAdapter::mono_default()),
            stats,
            dag: Arc::new(DependenceGraph::new()),
            directory,
            probe_ttl,
            probe_cache: Mutex::new(None),
        })
    }
}

/// Boots one node: an endpoint named `node{i}` publishing the per-node OM
/// and factory — the paper's boot code, shared between the builder and the
/// failover rescue path.
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
    let ep = net.create_endpoint(format!("node{node}"))?;
    let om_state = Arc::new(OmState::new());
    if let Some(depth) = ep.dispatch_depth() {
        om_state.attach_dispatch_depth(depth);
    }
    // Per-node claim table: every IO the factory creates is claimable,
    // and its claim leases expire against this node's clock.
    let claims = Arc::new(parc_remoting::ClaimTable::with_ttl(claim_ttl));
    ep.objects()
        .register_singleton(OM_OBJECT, Arc::new(OmService::new(node, Arc::clone(&om_state))));
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
    // The telemetry plane: every node answers `snapshot` on the
    // well-known `__telemetry` object (stats snapshot, dispatch depth,
    // queue-wait quantiles, fault counters).
    ep.objects().register_singleton(
        parc_remoting::TELEMETRY_OBJECT,
        Arc::new(TelemetryService::new(node, Arc::clone(&om_state), stats.clone())),
    );
    Ok((ep, om_state))
}

/// Tiny local PRNG so `parc-core` does not depend on `parc-sim` for three
/// lines of arithmetic (the workspace carries no external randomness
/// crate; every consumer seeds a SplitMix64 explicitly).
mod parc_sim_free {
    #[derive(Debug)]
    pub struct SplitMix64 {
        state: u64,
    }

    impl SplitMix64 {
        pub fn new(seed: u64) -> SplitMix64 {
            SplitMix64 { state: seed }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// Shared fault-recovery state, handed to every distributed [`Po`] so a
/// proxy can move its implementation object off a dead node without going
/// back through the runtime handle (which the caller may not hold, e.g.
/// inside skeleton worker threads).
pub(crate) struct FailoverState {
    net: InprocNetwork,
    registry: ClassRegistry,
    alive: Vec<AtomicBool>,
    /// Liveness leases keyed by endpoint name (`node{i}`), renewed by
    /// successful probes — the failure detector's grace mechanism.
    leases: LeaseManager,
    epoch: Instant,
    /// Lazily-booted extra endpoint (`node{N}`) used when a distributed
    /// target is required (skeletons wire stages by URI) but every real
    /// node is dead.
    rescue: Mutex<Option<InprocEndpoint>>,
    /// The runtime's shared counters, so the rescue endpoint's telemetry
    /// service reports the same numbers as the real nodes'.
    stats: RuntimeStats,
    /// The sharded object directory: ring routing plus the location index.
    /// Failover keeps it honest — a dead node must stop receiving keys.
    directory: Arc<ObjectDirectory>,
    /// Claim-lease TTL handed to rescue-booted nodes, matching the TTL
    /// the real nodes were booted with.
    claim_ttl: Duration,
}

impl FailoverState {
    /// Injected-time source for the lease manager: nanoseconds since boot.
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The index the rescue endpoint runs under — one past the real nodes.
    fn rescue_node(&self) -> usize {
        self.alive.len()
    }

    /// Liveness of a *real* node (the rescue node is not a member).
    fn is_alive(&self, node: usize) -> bool {
        self.alive.get(node).is_some_and(|a| a.load(Ordering::Relaxed))
    }

    /// Indices of the real nodes currently considered alive.
    fn alive_nodes(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&n| self.is_alive(n)).collect()
    }

    /// Marks `node` dead. Returns `true` on the alive→dead transition.
    fn mark_dead(&self, node: usize) -> bool {
        let Some(flag) = self.alive.get(node) else { return false };
        let transitioned = flag.swap(false, Ordering::Relaxed);
        if transitioned {
            self.directory.set_alive(node, false);
            self.leases.cancel(&format!("node{node}"));
            parc_obs::counter(parc_obs::kinds::NODE_FAILED).incr();
            parc_obs::event(parc_obs::kinds::NODE_FAILED, || format!("node=node{node}"));
            // Post-mortem flight recorder: with PARC_OBS_DUMP_DIR set,
            // freeze the ring and event log at the moment of death.
            parc_obs::flight_dump("node.failed");
        }
        transitioned
    }

    /// Creates an IO of `class` on `node` through its factory and returns
    /// the remote target, exactly as `create_on` does.
    fn remote_target(&self, class: &str, node: usize) -> Result<Target, ParcError> {
        if self.registry.get(class).is_none() {
            return Err(ParcError::UnknownClass { class: class.to_string() });
        }
        let uri: parc_remoting::ObjectUri =
            format!("inproc://node{node}/{FACTORY_OBJECT}").parse()?;
        let chan = self.net.open(&uri)?;
        let factory = RemoteObject::new(Arc::clone(&chan), FACTORY_OBJECT);
        let io_name = factory
            .call("create", vec![Value::Str(class.to_string())])?
            .as_str()
            .ok_or(ParcError::Skeleton { detail: "factory returned a non-string".into() })?
            .to_string();
        let remote = RemoteObject::new(chan, io_name.clone());
        Ok(Target::Remote { remote, node, io_name })
    }

    /// Opens a remote target to an *existing* object from its URI — the
    /// proxy-repoint path taken when a reply carries a `Moved` marker
    /// after live migration.
    pub(crate) fn target_from_uri(&self, uri: &str) -> Result<Target, ParcError> {
        let parsed: parc_remoting::ObjectUri = uri.parse()?;
        let node: usize = parsed
            .authority()
            .strip_prefix("node")
            .and_then(|s| s.parse().ok())
            .ok_or(ParcError::Config {
                detail: format!("uri authority {:?} is not a runtime node", parsed.authority()),
            })?;
        let chan = self.net.open(&parsed)?;
        let remote = RemoteObject::new(chan, parsed.object());
        Ok(Target::Remote { remote, node, io_name: parsed.object().to_string() })
    }

    /// Boots the rescue endpoint on first use and creates `class` on it.
    fn rescue_target(&self, class: &str) -> Result<Target, ParcError> {
        {
            let mut rescue = self.rescue.lock();
            if rescue.is_none() {
                let (ep, _om_state) = boot_node(
                    &self.net,
                    &self.registry,
                    self.rescue_node(),
                    &self.stats,
                    self.claim_ttl,
                )?;
                *rescue = Some(ep);
            }
        }
        self.remote_target(class, self.rescue_node())
    }

    /// Picks a new home for an object of `class` after `failed_node` died:
    /// the next surviving node (nodes whose factory also fails are marked
    /// dead and skipped), or — with no survivors — a fresh local instance,
    /// degrading to local synchronous execution. The alive set only
    /// shrinks and `Target::Local` never fails over, so recovery
    /// terminates.
    pub(crate) fn replace_target(
        &self,
        class: &str,
        failed_node: usize,
    ) -> Result<Target, ParcError> {
        self.mark_dead(failed_node);
        let n = self.alive.len();
        for offset in 1..=n {
            let node = (failed_node + offset) % n.max(1);
            if !self.is_alive(node) {
                continue;
            }
            match self.remote_target(class, node) {
                Ok(target) => return Ok(target),
                Err(_) => {
                    self.mark_dead(node);
                }
            }
        }
        let factory = self
            .registry
            .get(class)
            .ok_or_else(|| ParcError::UnknownClass { class: class.to_string() })?;
        Ok(Target::Local(factory()))
    }
}

/// The booted runtime.
pub struct ParcRuntime {
    net: InprocNetwork,
    // Endpoints stay alive for the runtime's lifetime — until `kill_node`
    // takes one down.
    endpoints: Mutex<Vec<Option<InprocEndpoint>>>,
    registry: ClassRegistry,
    om_states: Vec<Arc<OmState>>,
    failover: Arc<FailoverState>,
    grain: GrainConfig,
    placement: Placement,
    rr_counter: AtomicUsize,
    rng: Mutex<parc_sim_free::SplitMix64>,
    next_object_id: AtomicU64,
    created: AtomicU64,
    adapter: Arc<GrainAdapter>,
    stats: RuntimeStats,
    dag: Arc<DependenceGraph>,
    directory: Arc<ObjectDirectory>,
    probe_ttl: Duration,
    probe_cache: Mutex<Option<ProbeCache>>,
}

/// One round of least-loaded probe results, reused until `at + ttl` so a
/// burst of creations costs one probe sweep instead of `2·N` RPCs each.
struct ProbeCache {
    at: Instant,
    /// `(node, load)` for every node alive at probe time.
    loads: Vec<(usize, i64)>,
}

impl ParcRuntime {
    /// Starts building a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Number of processing nodes the runtime booted with (dead nodes
    /// included — see [`ParcRuntime::alive_nodes`]).
    pub fn nodes(&self) -> usize {
        self.om_states.len()
    }

    /// The in-process network carrying this runtime (for advanced wiring,
    /// e.g. IOs holding references to other parallel objects).
    pub fn network(&self) -> &InprocNetwork {
        &self.net
    }

    /// Shared runtime counters.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// A poller over every node's `__telemetry` object — the read side of
    /// the live telemetry plane (`parc-top` renders its rows).
    pub fn telemetry(&self) -> ClusterTelemetry {
        ClusterTelemetry::new(self.net.clone(), self.nodes())
    }

    /// The grain-size adapter.
    pub fn adapter(&self) -> &Arc<GrainAdapter> {
        &self.adapter
    }

    /// The application dependence graph.
    pub fn dag(&self) -> &Arc<DependenceGraph> {
        &self.dag
    }

    /// The grain configuration the runtime was booted with.
    pub fn grain(&self) -> GrainConfig {
        self.grain
    }

    /// Registers a parallel-object class; `factory` runs on the node where
    /// each instance is created.
    pub fn register_class(
        &self,
        class: impl Into<String>,
        factory: impl Fn() -> Arc<dyn parc_remoting::Invokable> + Send + Sync + 'static,
    ) {
        self.registry.register(class, factory);
    }

    /// Current load (hosted IOs) of each node.
    pub fn node_loads(&self) -> Vec<i64> {
        self.om_states.iter().map(|s| s.load()).collect()
    }

    /// Calls queued-or-running on each node's dispatch scheduler — the
    /// live backpressure signal behind [`crate::config::Placement::LeastLoaded`].
    pub fn node_queue_depths(&self) -> Vec<i64> {
        self.om_states.iter().map(|s| s.queue_depth()).collect()
    }

    /// Whether `node` is currently considered alive by the failure
    /// detector.
    pub fn node_is_alive(&self, node: usize) -> bool {
        self.failover.is_alive(node)
    }

    /// Indices of the nodes currently considered alive.
    pub fn alive_nodes(&self) -> Vec<usize> {
        self.failover.alive_nodes()
    }

    /// Kills `node`: marks it dead for placement and failover, stops its
    /// endpoint (in-flight and future calls against it fail with transport
    /// errors), and drops the endpoint handle. Returns `true` on the
    /// alive→dead transition. Existing proxies recover on their next call
    /// by re-creating their object on a survivor (state is lost — the
    /// replacement starts from the class constructor).
    pub fn kill_node(&self, node: usize) -> bool {
        let transitioned = self.failover.mark_dead(node);
        self.net.stop_endpoint(&format!("node{node}"));
        if let Some(slot) = self.endpoints.lock().get_mut(node) {
            slot.take();
        }
        transitioned
    }

    /// Marks `node` dead without stopping its endpoint — the soft-failure
    /// form used when an operator (or the failure detector) declares a
    /// node lost while its process may still limp along.
    pub fn mark_node_dead(&self, node: usize) -> bool {
        self.failover.mark_dead(node)
    }

    /// Runs one round of the lease-based failure detector: probes every
    /// alive node's OM, renews the liveness lease of responsive nodes, and
    /// marks nodes whose lease lapsed as dead. Returns the newly-dead
    /// nodes. With the default zero [`RuntimeBuilder::node_lease_ttl`] a
    /// single failed probe is fatal; a longer TTL tolerates transient
    /// (e.g. chaos-injected) probe failures until the lease runs out.
    pub fn detect_failures(&self) -> Vec<usize> {
        let mut newly_dead = Vec::new();
        for node in 0..self.nodes() {
            if !self.failover.is_alive(node) {
                continue;
            }
            let name = format!("node{node}");
            let probe = (|| -> Result<(), ParcError> {
                let uri: parc_remoting::ObjectUri =
                    format!("inproc://node{node}/{OM_OBJECT}").parse()?;
                let chan = self.net.open_with_timeout(&uri, PROBE_TIMEOUT)?;
                RemoteObject::new(chan, OM_OBJECT).call("node", vec![])?;
                Ok(())
            })();
            let now = self.failover.now();
            match probe {
                Ok(()) => {
                    self.failover.leases.renew(&name, now);
                }
                Err(_) => {
                    if self.failover.leases.remaining(&name, now).unwrap_or(0) == 0
                        && self.failover.mark_dead(node)
                    {
                        newly_dead.push(node);
                    }
                }
            }
        }
        newly_dead
    }

    fn should_agglomerate(&self) -> bool {
        if self.grain.adaptive {
            return self.adapter.should_agglomerate();
        }
        if self.grain.agglomeration_ratio <= 0.0 {
            false
        } else if self.grain.agglomeration_ratio >= 1.0 {
            true
        } else {
            self.rng.lock().next_f64() < self.grain.agglomeration_ratio
        }
    }

    /// Picks a hosting node among the alive ones, or `None` when every
    /// node is dead. With all nodes alive each policy behaves exactly as
    /// before fault-awareness (round-robin cycles 0,1,2,…).
    fn place(&self, class: &str) -> Option<usize> {
        let nodes = self.nodes();
        match self.placement {
            Placement::RoundRobin => {
                for _ in 0..nodes {
                    let n = self.rr_counter.fetch_add(1, Ordering::Relaxed) % nodes;
                    if self.failover.is_alive(n) {
                        return Some(n);
                    }
                }
                None
            }
            Placement::LeastLoaded => {
                // Ask every OM for its load, as the cooperating OMs of
                // Fig. 3 do (calls c), and take the least loaded. Load is
                // hosted objects plus live mailbox backlog, so a node
                // whose queues are jammed loses ties even when it hosts
                // fewer objects. Probe results are cached for a short TTL
                // so a burst of creations costs one sweep, not 2·N RPCs
                // each; the chosen node's cached load is bumped so
                // back-to-back creations within one TTL still spread.
                let mut cache = self.probe_cache.lock();
                let stale = cache
                    .as_ref()
                    .is_none_or(|c| self.probe_ttl.is_zero() || c.at.elapsed() >= self.probe_ttl);
                if stale {
                    *cache = Some(self.probe_loads());
                }
                let loads = &mut cache.as_mut()?.loads;
                let (slot, _) = loads
                    .iter()
                    .enumerate()
                    .filter(|(_, (node, _))| self.failover.is_alive(*node))
                    .min_by_key(|(_, (_, load))| *load)?;
                loads[slot].1 = loads[slot].1.saturating_add(1);
                Some(loads[slot].0)
            }
            Placement::Ring => {
                // O(1): hash a fresh placement key through the directory's
                // consistent-hash ring. No RPCs — load feedback arrives out
                // of band as ring weight updates from the rebalancer.
                let key =
                    format!("{class}#{}", self.rr_counter.fetch_add(1, Ordering::Relaxed));
                self.directory.resolve(&key).map(|(node, _epoch)| node)
            }
        }
    }

    /// One full probe sweep over the alive nodes (the uncached
    /// least-loaded scan), under a `placement.probe` span.
    fn probe_loads(&self) -> ProbeCache {
        let _span = parc_obs::Span::enter(parc_obs::kinds::PLACEMENT_PROBE);
        let mut loads = Vec::new();
        for node in self.failover.alive_nodes() {
            let ask = |method: &str| {
                self.om_remote(node)
                    .and_then(|om| om.call(method, vec![]).map_err(ParcError::from))
                    .ok()
                    .and_then(|v| v.as_i64())
            };
            let load = ask("load")
                .map(|l| l.saturating_add(ask("queue_depth").unwrap_or(0)))
                .unwrap_or(i64::MAX);
            loads.push((node, load));
        }
        ProbeCache { at: Instant::now(), loads }
    }

    fn om_remote(&self, node: usize) -> Result<RemoteObject, ParcError> {
        let uri: parc_remoting::ObjectUri =
            format!("inproc://node{node}/{OM_OBJECT}").parse()?;
        let chan = self.net.open(&uri)?;
        Ok(RemoteObject::new(chan, OM_OBJECT))
    }

    /// Creates a parallel object, letting the runtime decide between
    /// agglomeration (local) and distribution (remote) — the generated
    /// constructor of Fig. 5. When every node is dead, creation degrades
    /// to local execution instead of failing.
    ///
    /// # Errors
    ///
    /// [`ParcError::UnknownClass`]; remoting failures.
    pub fn create(&self, class: &str) -> Result<Po, ParcError> {
        if self.should_agglomerate() {
            parc_obs::event(parc_obs::kinds::AGGLOMERATE, || {
                let reason =
                    if self.grain.adaptive { "adaptive-ewma" } else { "static-ratio" };
                format!("object={class} reason={reason}")
            });
            return self.create_local(class);
        }
        match self.place(class) {
            Some(node) => self.create_on(class, node),
            None => {
                parc_obs::event(parc_obs::kinds::AGGLOMERATE, || {
                    format!("object={class} reason=degraded-no-live-nodes")
                });
                self.create_local(class)
            }
        }
    }

    /// Forces local (agglomerated) creation.
    ///
    /// # Errors
    ///
    /// [`ParcError::UnknownClass`].
    pub fn create_local(&self, class: &str) -> Result<Po, ParcError> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::FACTORY_CREATE);
        let factory = self
            .registry
            .get(class)
            .ok_or_else(|| ParcError::UnknownClass { class: class.to_string() })?;
        let io = factory();
        let id = self.new_object_id(class);
        self.stats.record_local_creation();
        self.created.fetch_add(1, Ordering::Relaxed);
        Ok(Po::new(
            id,
            class.to_string(),
            Target::Local(io),
            &self.grain,
            Arc::clone(&self.adapter),
            self.stats.clone(),
            None,
        ))
    }

    /// Forces distributed creation on a specific node.
    ///
    /// # Errors
    ///
    /// [`ParcError::UnknownClass`] (surfaced as a remote fault), bad node
    /// index, or remoting failures.
    pub fn create_on(&self, class: &str, node: usize) -> Result<Po, ParcError> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::FACTORY_CREATE);
        if node >= self.nodes() {
            return Err(ParcError::Config {
                detail: format!("node {node} outside runtime of {} nodes", self.nodes()),
            });
        }
        let target = self.failover.remote_target(class, node)?;
        Ok(self.wrap_distributed(class, target))
    }

    /// Creates an object on the alive node chosen by `ordinal` (the
    /// skeleton spread: stage/worker *i* of a [`crate::Farm`] or
    /// [`crate::Pipeline`]). Dead nodes are skipped; when *no* node is
    /// alive the object is created on the lazily-booted rescue endpoint so
    /// it still carries a URI (skeletons wire themselves by URI).
    ///
    /// # Errors
    ///
    /// [`ParcError::UnknownClass`]; remoting failures.
    pub fn create_spread(&self, class: &str, ordinal: usize) -> Result<Po, ParcError> {
        let alive = self.failover.alive_nodes();
        match alive.as_slice() {
            [] => {
                let _span = parc_obs::Span::enter(parc_obs::kinds::FACTORY_CREATE);
                let target = self.failover.rescue_target(class)?;
                Ok(self.wrap_distributed(class, target))
            }
            nodes => self.create_on(class, nodes[ordinal % nodes.len()]),
        }
    }

    fn wrap_distributed(&self, class: &str, target: Target) -> Po {
        let id = self.new_object_id(class);
        self.stats.record_remote_creation();
        self.created.fetch_add(1, Ordering::Relaxed);
        if let Target::Remote { node, io_name, .. } = &target {
            self.directory.register(format!("inproc://node{node}/{io_name}"), class, *node);
        }
        Po::new(
            id,
            class.to_string(),
            target,
            &self.grain,
            Arc::clone(&self.adapter),
            self.stats.clone(),
            Some(Arc::clone(&self.failover)),
        )
    }

    /// Builds a proxy to an already-created parallel object from its URI
    /// (how a reference received as a method argument becomes callable).
    ///
    /// # Errors
    ///
    /// URI parse or channel failures.
    pub fn proxy_from_uri(&self, uri: &str) -> Result<Po, ParcError> {
        let parsed: parc_remoting::ObjectUri = uri.parse()?;
        let node: usize = parsed
            .authority()
            .strip_prefix("node")
            .and_then(|s| s.parse().ok())
            .ok_or(ParcError::Config {
                detail: format!("uri authority {:?} is not a runtime node", parsed.authority()),
            })?;
        let chan = self.net.open(&parsed)?;
        let remote = RemoteObject::new(chan, parsed.object());
        let id = self.new_object_id("(proxy)");
        Ok(Po::new(
            id,
            "(proxy)".to_string(),
            Target::Remote { remote, node, io_name: parsed.object().to_string() },
            &self.grain,
            Arc::clone(&self.adapter),
            self.stats.clone(),
            Some(Arc::clone(&self.failover)),
        ))
    }

    /// The sharded object directory: consistent-hash routing table plus
    /// the live location index (which object lives on which node).
    pub fn directory(&self) -> &Arc<ObjectDirectory> {
        &self.directory
    }

    /// Live-migrates `po`'s implementation object to node `dst` and
    /// repoints the proxy at its new home. Callers still holding older
    /// proxies keep working through the forwarding entry left at the old
    /// address and repoint themselves on their next synchronous call.
    ///
    /// # Errors
    ///
    /// [`ParcError::Config`] for a local (agglomerated) object, a bad node
    /// index, or a dead destination; remoting failures — all of which
    /// leave the object intact at the source.
    pub fn migrate(&self, po: &Po, dst: usize) -> Result<String, ParcError> {
        let uri = po.uri().ok_or(ParcError::Config {
            detail: "cannot migrate a local (agglomerated) object".into(),
        })?;
        let new_uri = self.migrate_uri(&uri, dst)?;
        if let Ok(target) = self.failover.target_from_uri(&new_uri) {
            po.rewire(target);
        }
        Ok(new_uri)
    }

    /// Live-migrates the object at `uri` to node `dst` and returns its new
    /// URI. The move travels through the object's own mailbox (the one
    /// in-flight-call guarantee is the quiesce point), so per-object FIFO
    /// order is preserved: calls queued behind the migration drain through
    /// the forwarding entry in arrival order.
    ///
    /// # Errors
    ///
    /// Bad or dead destination node; remoting failures. A failed migration
    /// aborts cleanly with the object still serving at the source.
    pub fn migrate_uri(&self, uri: &str, dst: usize) -> Result<String, ParcError> {
        if dst >= self.nodes() {
            return Err(ParcError::Config {
                detail: format!("node {dst} outside runtime of {} nodes", self.nodes()),
            });
        }
        if !self.failover.is_alive(dst) {
            return Err(ParcError::Config { detail: format!("node {dst} is dead") });
        }
        parc_obs::counter(parc_obs::kinds::MIGRATION_STARTED).incr();
        let started = Instant::now();
        let result = (|| -> Result<String, ParcError> {
            let _span = parc_obs::Span::enter(parc_obs::kinds::MIGRATION_MOVE);
            let parsed: parc_remoting::ObjectUri = uri.parse()?;
            let chan = self.net.open(&parsed)?;
            let remote = RemoteObject::new(chan, parsed.object());
            remote
                .call(MIGRATE_METHOD, vec![Value::Str(format!("node{dst}"))])?
                .as_str()
                .map(str::to_string)
                .ok_or(ParcError::Skeleton { detail: "migration returned a non-string".into() })
        })();
        match result {
            Ok(new_uri) => {
                self.directory.relocate(uri, new_uri.clone(), dst);
                self.directory.bump_epoch();
                let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                parc_obs::histogram(parc_obs::kinds::MIGRATION_LATENCY).record(micros);
                // `event` would bump this counter a second time when
                // recording is on; the bench, telemetry snapshot and
                // verify gate all read it as an exact migration count,
                // so increment once and let the migration.move span
                // carry the trace record.
                parc_obs::counter(parc_obs::kinds::MIGRATION_COMPLETED).incr();
                Ok(new_uri)
            }
            Err(e) => {
                parc_obs::counter(parc_obs::kinds::MIGRATION_ABORTED).incr();
                Err(e)
            }
        }
    }

    /// Runs one rebalancer round: polls every node's telemetry, refreshes
    /// the ring weights from observed load, and migrates up to
    /// [`RebalanceConfig::max_migrations_per_round`] objects off the
    /// hottest node when it exceeds `high_ratio ×` the mean load. Returns
    /// how many objects moved. Failed migrations abort cleanly and count
    /// as zero.
    pub fn rebalance_once(&self, cfg: &RebalanceConfig) -> usize {
        let _span = parc_obs::Span::enter(parc_obs::kinds::REBALANCE_ROUND);
        let telemetry = self.telemetry();
        let mut loads: Vec<(usize, i64)> = Vec::new();
        for node in self.failover.alive_nodes() {
            if let Some(t) = telemetry.poll_node(node) {
                loads.push((node, t.hosted.saturating_add(t.queue_depth)));
            }
        }
        if loads.len() < 2 {
            return 0;
        }
        // Load feedback for ring placement: weight ∝ 1 / (1 + load), so
        // new objects drift away from hot nodes even between migrations.
        let mut weights = vec![0.0; self.nodes()];
        for &(node, load) in &loads {
            weights[node] = 1.0 / (1.0 + load.max(0) as f64);
        }
        self.directory.set_weights(&weights);
        let total: i64 = loads.iter().map(|&(_, l)| l.max(0)).sum();
        let mean = total as f64 / loads.len() as f64;
        let &(hot, hot_load) = loads.iter().max_by_key(|&&(_, l)| l).unwrap();
        let &(cold, _) = loads.iter().min_by_key(|&&(_, l)| l).unwrap();
        if hot == cold
            || (hot_load as f64) <= cfg.high_ratio * mean.max(1.0)
            || hot_load < cfg.min_load
        {
            return 0;
        }
        let mut moved = 0;
        let mut projected = hot_load;
        for (uri, _class) in self.directory.objects_on(hot) {
            if moved >= cfg.max_migrations_per_round
                || (projected as f64) <= cfg.low_ratio * mean.max(1.0)
            {
                break;
            }
            if self.migrate_uri(&uri, cold).is_ok() {
                moved += 1;
                projected -= 1;
            }
        }
        moved
    }

    /// Spawns the background rebalancer thread; it runs
    /// [`ParcRuntime::rebalance_once`] every [`RebalanceConfig::interval`]
    /// until the returned handle is stopped or dropped.
    pub fn start_rebalancer(self: &Arc<Self>, cfg: RebalanceConfig) -> RebalancerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let rt = Arc::clone(self);
        let thread = std::thread::Builder::new()
            .name("parc-rebalancer".into())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    rt.rebalance_once(&cfg);
                    let mut waited = Duration::ZERO;
                    // Sleep in short slices so stop() returns promptly.
                    while waited < cfg.interval && !flag.load(Ordering::Relaxed) {
                        let slice = (cfg.interval - waited).min(Duration::from_millis(10));
                        std::thread::sleep(slice);
                        waited += slice;
                    }
                }
            })
            .expect("spawn rebalancer thread");
        RebalancerHandle { stop, thread: Some(thread) }
    }

    /// Records that `holder` received/holds a reference to `held`
    /// (dependence-graph bookkeeping for §3.1).
    pub fn record_reference(&self, holder: &Po, held: &Po) {
        self.dag.add_reference(holder.id(), held.id());
    }

    /// Total parallel objects created so far.
    pub fn objects_created(&self) -> u64 {
        self.created.load(Ordering::Relaxed)
    }

    fn new_object_id(&self, class: &str) -> u64 {
        let id = self.next_object_id.fetch_add(1, Ordering::Relaxed);
        self.dag.add_object(id, class);
        id
    }
}

/// Tuning knobs for the load-driven rebalancer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Delay between rounds of the background thread.
    pub interval: Duration,
    /// A node is *hot* when its load exceeds `high_ratio ×` the mean.
    pub high_ratio: f64,
    /// Migration stops once the hot node's projected load drops under
    /// `low_ratio ×` the mean — the hysteresis band that prevents
    /// objects ping-ponging between nodes.
    pub low_ratio: f64,
    /// Migration-rate cap: at most this many objects move per round.
    pub max_migrations_per_round: usize,
    /// Nodes under this absolute load are never drained, however skewed
    /// the ratios look at tiny populations.
    pub min_load: i64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            interval: Duration::from_millis(200),
            high_ratio: 1.5,
            low_ratio: 1.1,
            max_migrations_per_round: 2,
            min_load: 2,
        }
    }
}

impl RebalanceConfig {
    /// Reads the `PARC_REBALANCE_*` environment knobs
    /// (`INTERVAL_MS`, `HIGH`, `LOW`, `CAP`, `MIN_LOAD`), falling back to
    /// the defaults for unset or unparseable values.
    pub fn from_env() -> RebalanceConfig {
        fn get<T: std::str::FromStr>(name: &str) -> Option<T> {
            std::env::var(name).ok().and_then(|v| v.parse().ok())
        }
        let d = RebalanceConfig::default();
        RebalanceConfig {
            interval: get("PARC_REBALANCE_INTERVAL_MS")
                .map_or(d.interval, Duration::from_millis),
            high_ratio: get("PARC_REBALANCE_HIGH").unwrap_or(d.high_ratio),
            low_ratio: get("PARC_REBALANCE_LOW").unwrap_or(d.low_ratio),
            max_migrations_per_round: get("PARC_REBALANCE_CAP")
                .unwrap_or(d.max_migrations_per_round),
            min_load: get("PARC_REBALANCE_MIN_LOAD").unwrap_or(d.min_load),
        }
    }
}

/// Handle to the background rebalancer thread; stops and joins it on
/// [`RebalancerHandle::stop`] or drop.
pub struct RebalancerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RebalancerHandle {
    /// Signals the thread to stop and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for RebalancerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Drop for ParcRuntime {
    /// Stops every endpoint the runtime still owns, exactly as
    /// [`ParcRuntime::kill_node`] stops one. Merely dropping an
    /// [`InprocEndpoint`] leaves its pump waiting for the last sender to
    /// go, and objects that hold channels to sibling nodes (pipeline
    /// stages, farm workers) keep those senders alive in a cycle — the
    /// pump and scheduler threads of every node would outlive the runtime.
    fn drop(&mut self) {
        for ep in self.endpoints.get_mut().iter().flatten() {
            self.net.stop_endpoint(ep.name());
        }
        if let Some(rescue) = self.failover.rescue.lock().as_ref() {
            self.net.stop_endpoint(rescue.name());
        }
    }
}

impl std::fmt::Debug for ParcRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParcRuntime")
            .field("nodes", &self.nodes())
            .field("alive", &self.alive_nodes())
            .field("placement", &self.placement)
            .field("grain", &self.grain)
            .field("objects_created", &self.objects_created())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parc_remoting::dispatcher::FnInvokable;
    use parc_remoting::RemotingError;
    use std::sync::atomic::AtomicI64;

    fn counter_class(runtime: &ParcRuntime) {
        runtime.register_class("Counter", || {
            let hits = AtomicI64::new(0);
            Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
                "bump" => {
                    hits.fetch_add(
                        i64::from(args.first().and_then(Value::as_i32).unwrap_or(1)),
                        Ordering::SeqCst,
                    );
                    Ok(Value::Null)
                }
                "total" => Ok(Value::I64(hits.load(Ordering::SeqCst))),
                _ => Err(RemotingError::MethodNotFound {
                    object: "Counter".into(),
                    method: method.into(),
                }),
            }))
        });
    }

    fn runtime(nodes: usize, grain: GrainConfig) -> ParcRuntime {
        let mut b = ParcRuntime::builder();
        b.nodes(nodes).grain(grain);
        let rt = b.build().unwrap();
        counter_class(&rt);
        rt
    }

    #[test]
    fn remote_sync_calls_roundtrip() {
        let rt = runtime(2, GrainConfig::default());
        let c = rt.create("Counter").unwrap();
        assert!(!c.is_local());
        c.call("bump", vec![Value::I32(5)]).unwrap();
        assert_eq!(c.call("total", vec![]).unwrap(), Value::I64(5));
    }

    #[test]
    fn aggregation_batches_async_calls() {
        let rt = runtime(1, GrainConfig { aggregation_factor: 8, ..GrainConfig::default() });
        let c = rt.create("Counter").unwrap();
        for _ in 0..7 {
            c.post("bump", vec![Value::I32(1)]).unwrap();
        }
        assert_eq!(c.pending(), 7, "below maxCalls nothing ships");
        c.post("bump", vec![Value::I32(1)]).unwrap();
        assert_eq!(c.pending(), 0, "hitting maxCalls ships the batch");
        // The synchronous call flushes leftovers and observes all bumps.
        for _ in 0..3 {
            c.post("bump", vec![Value::I32(1)]).unwrap();
        }
        assert_eq!(c.call("total", vec![]).unwrap(), Value::I64(11));
        let snap = rt.stats().snapshot();
        assert_eq!(snap.batches_sent, 2);
        assert_eq!(snap.calls_in_batches, 8 + 3);
    }

    #[test]
    fn sync_call_preserves_program_order() {
        let rt = runtime(1, GrainConfig { aggregation_factor: 100, ..GrainConfig::default() });
        let c = rt.create("Counter").unwrap();
        c.post("bump", vec![Value::I32(40)]).unwrap();
        c.post("bump", vec![Value::I32(2)]).unwrap();
        // Without the flush-before-call rule this would read 0.
        assert_eq!(c.call("total", vec![]).unwrap(), Value::I64(42));
    }

    #[test]
    fn aggregation_factor_one_sends_plain_posts() {
        let rt = runtime(1, GrainConfig::default());
        let c = rt.create("Counter").unwrap();
        c.post("bump", vec![Value::I32(1)]).unwrap();
        c.post("bump", vec![Value::I32(1)]).unwrap();
        assert_eq!(c.call("total", vec![]).unwrap(), Value::I64(2));
        let snap = rt.stats().snapshot();
        assert_eq!(snap.batches_sent, 0, "factor 1 never batches");
        assert_eq!(snap.messages_sent, 3);
    }

    #[test]
    fn round_robin_spreads_objects() {
        let rt = runtime(3, GrainConfig::default());
        let nodes: Vec<Option<usize>> =
            (0..6).map(|_| rt.create("Counter").unwrap().node()).collect();
        assert_eq!(
            nodes,
            vec![Some(0), Some(1), Some(2), Some(0), Some(1), Some(2)]
        );
        assert_eq!(rt.node_loads(), vec![2, 2, 2]);
    }

    #[test]
    fn least_loaded_fills_gaps() {
        let mut b = ParcRuntime::builder();
        b.nodes(3).placement(Placement::LeastLoaded);
        let rt = b.build().unwrap();
        counter_class(&rt);
        // Pre-load node 0 and node 1 via explicit placement.
        let _a = rt.create_on("Counter", 0).unwrap();
        let _b = rt.create_on("Counter", 0).unwrap();
        let _c = rt.create_on("Counter", 1).unwrap();
        let d = rt.create("Counter").unwrap();
        assert_eq!(d.node(), Some(2), "least-loaded node wins");
    }

    #[test]
    fn full_agglomeration_keeps_everything_local() {
        let rt = runtime(4, GrainConfig { agglomeration_ratio: 1.0, ..GrainConfig::default() });
        let c = rt.create("Counter").unwrap();
        assert!(c.is_local());
        let snap = rt.stats().snapshot();
        assert_eq!(snap.local_creations, 1);
        assert_eq!(snap.remote_creations, 0);
        assert_eq!(rt.node_loads(), vec![0; 4]);
        // Behaviour is unchanged.
        c.post("bump", vec![Value::I32(2)]).unwrap();
        assert_eq!(c.call("total", vec![]).unwrap(), Value::I64(2));
    }

    #[test]
    fn unknown_class_fails_fast_everywhere() {
        let rt = runtime(1, GrainConfig::default());
        assert!(matches!(
            rt.create("Ghost"),
            Err(ParcError::UnknownClass { .. })
        ));
        assert!(matches!(
            rt.create_local("Ghost"),
            Err(ParcError::UnknownClass { .. })
        ));
        assert!(matches!(
            rt.create_on("Ghost", 0),
            Err(ParcError::UnknownClass { .. })
        ));
    }

    #[test]
    fn create_on_bad_node_is_config_error() {
        let rt = runtime(2, GrainConfig::default());
        assert!(matches!(
            rt.create_on("Counter", 9),
            Err(ParcError::Config { .. })
        ));
    }

    #[test]
    fn proxy_from_uri_reaches_the_same_io() {
        let rt = runtime(2, GrainConfig::default());
        let original = rt.create("Counter").unwrap();
        original.call("bump", vec![Value::I32(3)]).unwrap();
        let uri = original.uri().unwrap();
        let alias = rt.proxy_from_uri(&uri).unwrap();
        assert_eq!(alias.call("total", vec![]).unwrap(), Value::I64(3));
        assert_eq!(alias.node(), original.node());
    }

    #[test]
    fn reference_recording_builds_the_dag() {
        let rt = runtime(2, GrainConfig::default());
        let a = rt.create("Counter").unwrap();
        let b = rt.create("Counter").unwrap();
        rt.record_reference(&a, &b);
        assert!(rt.dag().is_dag());
        rt.record_reference(&b, &a);
        assert!(!rt.dag().is_dag(), "reference cycle detected per §3.1");
    }

    #[test]
    fn dropping_a_po_flushes_its_buffer() {
        let rt = runtime(1, GrainConfig { aggregation_factor: 100, ..GrainConfig::default() });
        let observer = rt.create("Counter").unwrap();
        let uri = observer.uri().unwrap();
        {
            let writer = rt.proxy_from_uri(&uri).unwrap();
            writer.post("bump", vec![Value::I32(9)]).unwrap();
            assert_eq!(writer.pending(), 1);
        } // drop flushes
        // One-way delivery is asynchronous; poll until visible.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if observer.call("total", vec![]).unwrap() == Value::I64(9) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "drop-flush never arrived");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn adaptive_runtime_agglomerates_fine_grains() {
        let rt = runtime(
            2,
            GrainConfig { adaptive: true, ..GrainConfig::default() },
        );
        // Teach the adapter that calls are microscopic.
        for _ in 0..20 {
            rt.adapter().observe_call(Duration::from_nanos(50));
        }
        let po = rt.create("Counter").unwrap();
        assert!(po.is_local(), "adaptive runtime must remove excess parallelism");
        assert!(po.effective_aggregation() > 1);
    }

    #[test]
    fn zero_nodes_is_config_error() {
        let mut b = ParcRuntime::builder();
        b.nodes(0);
        assert!(matches!(b.build(), Err(ParcError::Config { .. })));
    }

    // ---- fault tolerance ----------------------------------------------

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
    fn create_with_all_nodes_dead_falls_back_to_local() {
        let rt = runtime(2, GrainConfig::default());
        rt.kill_node(0);
        rt.kill_node(1);
        let c = rt.create("Counter").unwrap();
        assert!(c.is_local(), "no live node → degraded local creation");
        c.post("bump", vec![Value::I32(3)]).unwrap();
        assert_eq!(c.call("total", vec![]).unwrap(), Value::I64(3));
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

    // ---- sharded directory, ring placement & migration -----------------

    /// A class with `__snapshot`/`__restore`, so migration carries state.
    fn cell_class(runtime: &ParcRuntime) {
        runtime.register_class("Cell", || {
            let v = AtomicI64::new(0);
            Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
                "set" | crate::factory::RESTORE_METHOD => {
                    v.store(
                        args.first().and_then(Value::as_i64).unwrap_or(0),
                        Ordering::SeqCst,
                    );
                    Ok(Value::Null)
                }
                "get" | crate::factory::SNAPSHOT_METHOD => {
                    Ok(Value::I64(v.load(Ordering::SeqCst)))
                }
                _ => Err(RemotingError::MethodNotFound {
                    object: "Cell".into(),
                    method: method.into(),
                }),
            }))
        });
    }

    fn total_messages(rt: &ParcRuntime) -> u64 {
        (0..rt.nodes())
            .filter_map(|n| rt.network().messages_received(&format!("node{n}")))
            .sum()
    }

    #[test]
    fn ring_placement_spreads_and_skips_dead_nodes() {
        let mut b = ParcRuntime::builder();
        b.nodes(4).placement(Placement::Ring);
        let rt = b.build().unwrap();
        counter_class(&rt);
        let nodes: Vec<usize> =
            (0..40).map(|_| rt.create("Counter").unwrap().node().unwrap()).collect();
        for n in 0..4 {
            assert!(nodes.contains(&n), "node {n} never chosen by the ring");
        }
        rt.mark_node_dead(2);
        for _ in 0..20 {
            assert_ne!(rt.create("Counter").unwrap().node(), Some(2));
        }
    }

    #[test]
    fn ring_placement_is_deterministic() {
        let run = || {
            let mut b = ParcRuntime::builder();
            b.nodes(4).placement(Placement::Ring);
            let rt = b.build().unwrap();
            counter_class(&rt);
            (0..20)
                .map(|_| rt.create("Counter").unwrap().node().unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same seed and sequence, same placement");
    }

    #[test]
    fn ring_create_performs_zero_placement_rpcs() {
        let mut b = ParcRuntime::builder();
        b.nodes(4).placement(Placement::Ring);
        let rt = b.build().unwrap();
        counter_class(&rt);
        let before = total_messages(&rt);
        for _ in 0..10 {
            rt.create("Counter").unwrap();
        }
        // Exactly one factory call per create — placement itself costs
        // zero messages.
        assert_eq!(total_messages(&rt) - before, 10);
    }

    #[test]
    fn probe_cache_amortizes_least_loaded_scans() {
        let mut b = ParcRuntime::builder();
        b.nodes(3)
            .placement(Placement::LeastLoaded)
            .probe_ttl(Duration::from_secs(3600));
        let rt = b.build().unwrap();
        counter_class(&rt);
        // First create pays the sweep: 2 probe RPCs per node + 1 create.
        rt.create("Counter").unwrap();
        let after_first = total_messages(&rt);
        rt.create("Counter").unwrap();
        assert_eq!(
            total_messages(&rt) - after_first,
            1,
            "cached probes: the second create ships only the factory call"
        );
    }

    #[test]
    fn zero_probe_ttl_scans_every_create() {
        let mut b = ParcRuntime::builder();
        b.nodes(3).placement(Placement::LeastLoaded).probe_ttl(Duration::ZERO);
        let rt = b.build().unwrap();
        counter_class(&rt);
        rt.create("Counter").unwrap();
        let after_first = total_messages(&rt);
        rt.create("Counter").unwrap();
        assert_eq!(
            total_messages(&rt) - after_first,
            2 * 3 + 1,
            "TTL zero keeps the paper's original full scan per create"
        );
    }

    #[test]
    fn cached_probe_loads_still_spread_a_burst() {
        let mut b = ParcRuntime::builder();
        b.nodes(3)
            .placement(Placement::LeastLoaded)
            .probe_ttl(Duration::from_secs(3600));
        let rt = b.build().unwrap();
        counter_class(&rt);
        for _ in 0..6 {
            rt.create("Counter").unwrap();
        }
        // The local +1 bump on the cached loads spreads the burst evenly
        // even though only one real sweep happened.
        assert_eq!(rt.node_loads(), vec![2, 2, 2]);
    }

    #[test]
    fn migrate_preserves_state_and_repoints_the_proxy() {
        let rt = runtime(2, GrainConfig::default());
        cell_class(&rt);
        let cell = rt.create_on("Cell", 0).unwrap();
        cell.call("set", vec![Value::I64(42)]).unwrap();
        let old_uri = cell.uri().unwrap();
        let new_uri = rt.migrate(&cell, 1).unwrap();
        assert_ne!(old_uri, new_uri);
        assert_eq!(cell.node(), Some(1), "proxy repointed at the new home");
        assert_eq!(cell.call("get", vec![]).unwrap(), Value::I64(42));
        assert_eq!(
            rt.directory().location(&new_uri).map(|p| p.node),
            Some(1),
            "directory index follows the move"
        );
    }

    #[test]
    fn stale_proxies_follow_the_forwarding_entry() {
        let rt = runtime(2, GrainConfig::default());
        cell_class(&rt);
        let cell = rt.create_on("Cell", 0).unwrap();
        cell.call("set", vec![Value::I64(7)]).unwrap();
        // A second proxy that does not learn about the migration up front.
        let stale = rt.proxy_from_uri(&cell.uri().unwrap()).unwrap();
        rt.migrate(&cell, 1).unwrap();
        // The stale proxy's call relays through the forwarder, returns the
        // right answer, and carries the Moved marker that repoints it.
        assert_eq!(stale.call("get", vec![]).unwrap(), Value::I64(7));
        assert_eq!(stale.node(), Some(1), "Moved reply repointed the stale proxy");
        // Subsequent calls go direct.
        assert_eq!(stale.call("get", vec![]).unwrap(), Value::I64(7));
    }

    #[test]
    fn migrate_same_node_is_identity() {
        let rt = runtime(2, GrainConfig::default());
        cell_class(&rt);
        let cell = rt.create_on("Cell", 0).unwrap();
        cell.call("set", vec![Value::I64(5)]).unwrap();
        let uri = cell.uri().unwrap();
        assert_eq!(rt.migrate(&cell, 0).unwrap(), uri);
        assert_eq!(cell.call("get", vec![]).unwrap(), Value::I64(5));
    }

    #[test]
    fn migrate_to_dead_or_bad_node_leaves_object_intact() {
        let rt = runtime(3, GrainConfig::default());
        cell_class(&rt);
        let cell = rt.create_on("Cell", 0).unwrap();
        cell.call("set", vec![Value::I64(9)]).unwrap();
        rt.kill_node(2);
        assert!(matches!(rt.migrate(&cell, 2), Err(ParcError::Config { .. })));
        assert!(matches!(rt.migrate(&cell, 7), Err(ParcError::Config { .. })));
        assert_eq!(cell.node(), Some(0), "failed migration leaves the proxy alone");
        assert_eq!(cell.call("get", vec![]).unwrap(), Value::I64(9));
    }

    #[test]
    fn rebalance_moves_objects_off_the_hot_node() {
        let rt = runtime(2, GrainConfig::default());
        // Skew: everything on node 0.
        let pos: Vec<Po> = (0..6).map(|_| rt.create_on("Counter", 0).unwrap()).collect();
        assert_eq!(rt.node_loads(), vec![6, 0]);
        let cfg = RebalanceConfig {
            max_migrations_per_round: 2,
            ..RebalanceConfig::default()
        };
        let moved = rt.rebalance_once(&cfg);
        assert_eq!(moved, 2, "rate cap respected");
        assert_eq!(rt.node_loads(), vec![4, 2]);
        // Every proxy still answers (through forwarders where needed).
        for po in &pos {
            po.call("total", vec![]).unwrap();
        }
        // A balanced cluster is left alone.
        let rt2 = runtime(2, GrainConfig::default());
        let _a = rt2.create_on("Counter", 0).unwrap();
        let _b = rt2.create_on("Counter", 1).unwrap();
        assert_eq!(rt2.rebalance_once(&cfg), 0, "inside the hysteresis band");
    }

    #[test]
    fn rebalancer_thread_starts_and_stops() {
        let rt = Arc::new({
            let mut b = ParcRuntime::builder();
            b.nodes(2);
            b.build().unwrap()
        });
        counter_class(&rt);
        for _ in 0..6 {
            rt.create_on("Counter", 0).unwrap();
        }
        let handle = rt.start_rebalancer(RebalanceConfig {
            interval: Duration::from_millis(5),
            ..RebalanceConfig::default()
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.node_loads()[1] == 0 {
            assert!(Instant::now() < deadline, "rebalancer never moved anything");
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.stop();
    }
}
