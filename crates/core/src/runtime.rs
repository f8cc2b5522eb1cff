//! The ParC# runtime: the builder, creation and placement (Fig. 5).
//!
//! A [`ParcRuntime`] boots `n` nodes (see `nodes.rs`), each publishing the
//! object manager (`__om`) and the remote factory (`__factory`) — the
//! paper's per-node boot code.
//! [`ParcRuntime::create`] then implements the Fig. 5 constructor: either
//! *agglomerate* (create the IO locally) or have an OM-chosen node's
//! factory create the IO remotely, wrapping the result in a [`Po`].
//!
//! The runtime keeps only client policy: the grain, the placement policy
//! and its counters, the adapter and the `LeastLoaded` probe cache. Node
//! liveness, failover and the rescue endpoint live in the node table it
//! shares with every distributed proxy; migration and the rebalancer are
//! in `rebalance.rs`. When *no* node survives, creation and calls degrade
//! to local synchronous execution so skeleton programs still complete.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_remoting::inproc::InprocNetwork;
use parc_sync::Mutex;

use crate::adapt::GrainAdapter;
use crate::config::{GrainConfig, Placement};
use crate::directory::ObjectDirectory;
use crate::error::ParcError;
use crate::nodes::Nodes;
use crate::po::{Po, Target};
use crate::stats::RuntimeStats;
use crate::telemetry::ClusterTelemetry;

pub use crate::rebalance::{RebalanceConfig, RebalancerHandle};

/// Default TTL of the `LeastLoaded` probe cache: one load sweep serves
/// every `create()` within this window instead of N RPCs per create.
const DEFAULT_PROBE_TTL: Duration = Duration::from_millis(25);

/// Seed of the agglomeration coin's SplitMix64 stream.
const AGGLOMERATION_SEED: u64 = 0x5eed;

/// SplitMix64 finalizer: the k-th agglomeration draw is
/// `mix64(AGGLOMERATION_SEED + k·γ)`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builder for [`ParcRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    nodes: usize,
    grain: GrainConfig,
    placement: Placement,
    node_lease_ttl: Duration,
    claim_ttl: Duration,
    /// TTL of the `LeastLoaded` probe cache; zero probes on every create.
    probe_ttl: Duration,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder {
            nodes: 1,
            grain: GrainConfig::default(),
            placement: Placement::default(),
            node_lease_ttl: Duration::ZERO,
            claim_ttl: parc_remoting::lease::DEFAULT_CLAIM_TTL,
            probe_ttl: DEFAULT_PROBE_TTL,
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

    /// Placement policy (round-robin by default).
    pub fn placement(&mut self, placement: Placement) -> &mut Self {
        self.placement = placement;
        self
    }

    /// Grace period for the node failure detector. A node whose liveness
    /// probe fails is only declared dead once its lease (renewed by every
    /// successful probe) has lapsed. The default of zero makes
    /// [`ParcRuntime::detect_failures`] act on the first failed probe —
    /// deterministic for tests; chaos runs set a TTL so injected transient
    /// faults do not kill healthy nodes.
    pub fn node_lease_ttl(&mut self, ttl: Duration) -> &mut Self {
        self.node_lease_ttl = ttl;
        self
    }

    /// TTL of the leases carried by multi-object reservation claims
    /// ([`crate::txn`]). A claim whose holder stops renewing — client
    /// death, node kill mid-reservation — lapses after this long and the
    /// object's mailbox slot is reclaimed. Defaults to
    /// [`parc_remoting::lease::DEFAULT_CLAIM_TTL`].
    pub fn claim_lease_ttl(&mut self, ttl: Duration) -> &mut Self {
        self.claim_ttl = ttl;
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
        let nodes = Nodes::boot(self.nodes, self.claim_ttl, self.node_lease_ttl)?;
        Ok(ParcRuntime {
            nodes: Arc::new(nodes),
            grain: self.grain,
            placement: self.placement,
            rr_counter: AtomicUsize::new(0),
            draws: AtomicU64::new(0),
            next_object_id: AtomicU64::new(1),
            adapter: Arc::new(GrainAdapter::mono_default()),
            probe_ttl: self.probe_ttl,
            probe_cache: Mutex::new(None),
        })
    }
}

/// The booted runtime.
pub struct ParcRuntime {
    /// The node table; every distributed proxy holds it as its failover handle.
    pub(crate) nodes: Arc<Nodes>,
    grain: GrainConfig,
    placement: Placement,
    rr_counter: AtomicUsize,
    /// Agglomeration coin flips drawn so far: draw `k` is `mix64(seed +
    /// k·γ)`, the k-th output of a SplitMix64 stream at [`AGGLOMERATION_SEED`].
    draws: AtomicU64,
    next_object_id: AtomicU64,
    adapter: Arc<GrainAdapter>,
    probe_ttl: Duration,
    probe_cache: Mutex<Option<ProbeCache>>,
}

/// One round of least-loaded probe results, reused until `at + ttl` so a
/// burst of creations costs one probe sweep instead of `N` RPCs each.
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
        self.nodes.count()
    }

    /// The in-process network carrying this runtime (for advanced wiring,
    /// e.g. IOs holding references to other parallel objects).
    pub fn network(&self) -> &InprocNetwork {
        &self.nodes.net
    }

    /// Shared runtime counters.
    pub fn stats(&self) -> &RuntimeStats {
        &self.nodes.stats
    }

    /// A poller over every node's OM — the read side of the live telemetry
    /// plane and the one way the runtime asks a node about itself
    /// (`parc-top` renders its rows).
    pub fn telemetry(&self) -> ClusterTelemetry {
        self.nodes.telemetry()
    }

    /// The grain-size adapter.
    pub fn adapter(&self) -> &Arc<GrainAdapter> {
        &self.adapter
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
        self.nodes.registry.register(class, factory);
    }

    /// Current load (hosted IOs) of each node.
    pub fn node_loads(&self) -> Vec<i64> {
        self.nodes.om_states.iter().map(|s| s.load()).collect()
    }

    /// Calls queued-or-running on each node's dispatch scheduler — the
    /// live backpressure signal behind [`crate::config::Placement::LeastLoaded`].
    pub fn node_queue_depths(&self) -> Vec<i64> {
        self.nodes.om_states.iter().map(|s| s.queue_depth()).collect()
    }

    /// Whether `node` is currently considered alive by the failure
    /// detector.
    pub fn node_is_alive(&self, node: usize) -> bool {
        self.nodes.is_alive(node)
    }

    /// Indices of the nodes currently considered alive.
    pub fn alive_nodes(&self) -> Vec<usize> {
        self.nodes.alive_nodes()
    }

    /// Kills `node`: marks it dead for placement and failover, stops its
    /// endpoint (in-flight and future calls against it fail with transport
    /// errors). Returns `true` on the alive→dead transition. Existing proxies recover on their next call
    /// by re-creating their object on a survivor (state is lost — the
    /// replacement starts from the class constructor).
    pub fn kill_node(&self, node: usize) -> bool {
        self.nodes.kill(node)
    }

    /// Marks `node` dead without stopping its endpoint — the soft-failure
    /// form used when an operator (or the failure detector) declares a
    /// node lost while its process may still limp along.
    pub fn mark_node_dead(&self, node: usize) -> bool {
        self.nodes.mark_dead(node)
    }

    /// Runs one round of the lease-based failure detector: polls every
    /// alive node's OM, renews the liveness lease of responsive nodes, and
    /// marks nodes whose lease lapsed as dead. Returns the newly-dead
    /// nodes. With the default zero [`RuntimeBuilder::node_lease_ttl`] a
    /// single failed probe is fatal; a longer TTL tolerates transient
    /// (e.g. chaos-injected) probe failures until the lease runs out.
    pub fn detect_failures(&self) -> Vec<usize> {
        self.nodes.detect_failures()
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
            let k = self.draws.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let draw = mix64(AGGLOMERATION_SEED.wrapping_add(k));
            ((draw >> 11) as f64 / (1u64 << 53) as f64) < self.grain.agglomeration_ratio
        }
    }

    /// Picks a hosting node among the alive ones, or `None` when every
    /// node is dead. With all nodes alive each policy behaves exactly as
    /// before fault-awareness (round-robin cycles 0,1,2,…).
    fn place(&self) -> Option<usize> {
        let nodes = self.nodes();
        match self.placement {
            Placement::RoundRobin => {
                for _ in 0..nodes {
                    let n = self.rr_counter.fetch_add(1, Ordering::Relaxed) % nodes;
                    if self.nodes.is_alive(n) {
                        return Some(n);
                    }
                }
                None
            }
            Placement::LeastLoaded => {
                // Ask every OM for its load, as the cooperating OMs of
                // Fig. 3 do (calls c), and take the least loaded
                // ([`crate::NodeTelemetry::load`]). Probe results are
                // cached for a short TTL so a burst of creations costs one
                // sweep, not N RPCs each; the chosen node's cached load is
                // bumped so back-to-back creations within one TTL still
                // spread.
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
                    .filter(|(_, (node, _))| self.nodes.is_alive(*node))
                    .min_by_key(|(_, (_, load))| *load)?;
                loads[slot].1 = loads[slot].1.saturating_add(1);
                Some(loads[slot].0)
            }
        }
    }

    /// One full probe sweep over the alive nodes (the uncached
    /// least-loaded scan), under a `placement.probe` span: a node that
    /// does not answer its bounded poll ranks last.
    fn probe_loads(&self) -> ProbeCache {
        let _span = parc_obs::Span::enter(parc_obs::kinds::PLACEMENT_PROBE);
        let loads = self
            .nodes
            .poll_alive()
            .into_iter()
            .map(|(node, row)| (node, row.map_or(i64::MAX, |t| t.load())))
            .collect();
        ProbeCache { at: Instant::now(), loads }
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
        match self.place() {
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
            .nodes
            .registry
            .get(class)
            .ok_or_else(|| ParcError::UnknownClass { class: class.to_string() })?;
        Ok(self.created_po(class, Target::Local(factory())))
    }

    /// Forces distributed creation on a specific node.
    ///
    /// # Errors
    ///
    /// [`ParcError::UnknownClass`] (surfaced as a remote fault), bad node
    /// index, or remoting failures.
    pub fn create_on(&self, class: &str, node: usize) -> Result<Po, ParcError> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::FACTORY_CREATE);
        self.nodes.check_node(node)?;
        let target = self.nodes.create(class, node)?;
        Ok(self.created_po(class, target))
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
        let alive = self.nodes.alive_nodes();
        match alive.as_slice() {
            [] => {
                let _span = parc_obs::Span::enter(parc_obs::kinds::FACTORY_CREATE);
                let target = self.nodes.create_rescue(class)?;
                Ok(self.created_po(class, target))
            }
            nodes => self.create_on(class, nodes[ordinal % nodes.len()]),
        }
    }

    /// Counts one creation and wraps its target in a proxy.
    fn created_po(&self, class: &str, target: Target) -> Po {
        match target {
            Target::Local(_) => self.stats().record_local_creation(),
            Target::Remote { .. } => self.stats().record_remote_creation(),
        }
        self.po(class, target)
    }

    /// Builds the proxy around `target`. A distributed target gets the
    /// node table as its failover handle.
    fn po(&self, class: &str, target: Target) -> Po {
        let failover = matches!(target, Target::Remote { .. }).then(|| Arc::clone(&self.nodes));
        Po::new(
            self.next_object_id.fetch_add(1, Ordering::Relaxed),
            class.to_string(),
            target,
            &self.grain,
            Arc::clone(&self.adapter),
            self.stats().clone(),
            failover,
        )
    }

    /// Builds a proxy to an already-created parallel object from its URI
    /// (how a reference received as a method argument becomes callable).
    ///
    /// # Errors
    ///
    /// URI parse or channel failures.
    pub fn proxy_from_uri(&self, uri: &str) -> Result<Po, ParcError> {
        Ok(self.po("(proxy)", self.nodes.open(uri)?))
    }

    /// The object location index: which node each distributed object
    /// the runtime created lives on.
    pub fn directory(&self) -> &Arc<ObjectDirectory> {
        &self.nodes.directory
    }

    /// Total parallel objects created so far.
    pub fn objects_created(&self) -> u64 {
        let stats = self.stats().snapshot();
        stats.local_creations + stats.remote_creations
    }
}

impl Drop for ParcRuntime {
    /// Stops every endpoint the runtime owns (see `Nodes::stop_all`).
    fn drop(&mut self) {
        self.nodes.stop_all();
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
pub(crate) mod tests {
    use super::*;
    use parc_remoting::dispatcher::FnInvokable;
    use parc_remoting::RemotingError;
    use parc_serial::Value;
    use std::sync::atomic::AtomicI64;

    pub(crate) fn counter_class(runtime: &ParcRuntime) {
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

    pub(crate) fn runtime(nodes: usize, grain: GrainConfig) -> ParcRuntime {
        let mut b = ParcRuntime::builder();
        b.nodes(nodes).grain(grain);
        let rt = b.build().unwrap();
        counter_class(&rt);
        rt
    }

    fn total_messages(rt: &ParcRuntime) -> u64 {
        (0..rt.nodes())
            .filter_map(|n| rt.network().messages_received(&format!("node{n}")))
            .sum()
    }

    /// A `nodes`-node runtime placing by `placement`, probe cache TTL `probe_ttl`.
    fn placed(nodes: usize, placement: Placement, probe_ttl: Duration) -> ParcRuntime {
        let mut b = ParcRuntime::builder();
        b.nodes(nodes).placement(placement);
        b.probe_ttl = probe_ttl;
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
        let rt = placed(3, Placement::LeastLoaded, DEFAULT_PROBE_TTL);
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
    fn probe_cache_amortizes_least_loaded_scans() {
        let rt = placed(3, Placement::LeastLoaded, Duration::from_secs(3600));
        // First create pays the sweep: 1 probe RPC per node + 1 create.
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
        let rt = placed(3, Placement::LeastLoaded, Duration::ZERO);
        rt.create("Counter").unwrap();
        let after_first = total_messages(&rt);
        rt.create("Counter").unwrap();
        assert_eq!(
            total_messages(&rt) - after_first,
            3 + 1,
            "TTL zero keeps the paper's original full scan per create"
        );
    }

    #[test]
    fn cached_probe_loads_still_spread_a_burst() {
        let rt = placed(3, Placement::LeastLoaded, Duration::from_secs(3600));
        for _ in 0..6 {
            rt.create("Counter").unwrap();
        }
        // The local +1 bump on the cached loads spreads the burst evenly
        // even though only one real sweep happened.
        assert_eq!(rt.node_loads(), vec![2, 2, 2]);
    }
}
