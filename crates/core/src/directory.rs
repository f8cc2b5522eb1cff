//! The sharded object directory: O(1) placement over a consistent-hash
//! ring with virtual nodes, epoch-versioned routing tables, and the
//! object-location index the rebalancer works from.
//!
//! The paper's OMs answer "where should this object live?" with live load
//! RPCs on every create. The directory replaces that scan with a local
//! lookup: a seeded hash ring (virtual nodes per real node, scaled by a
//! load weight) is quantized into a power-of-two bucket table, so
//! [`ObjectDirectory::resolve`] is one hash plus one array index — no
//! locks, no allocation, no RPC.
//!
//! ## Epoch-versioned, lock-free publication
//!
//! The routing table is immutable after construction. Writers (alive-set
//! changes, weight updates from the rebalancer) build a *new* table under
//! a writer lock and publish it with one atomic pointer store; readers
//! load the pointer with `Acquire` and index into the frozen table.
//! Readers therefore never block on placement updates. Retired tables are
//! kept alive until the directory drops — publication is rare (node
//! deaths, hysteresis-filtered weight changes), each table is ~20 KB, and
//! never freeing mid-flight tables makes the raw pointer dereference
//! sound without reader registration.
//!
//! Every published table carries an *epoch*. A table built at epoch `e`
//! assigns zero virtual nodes to any node dead at `e`, so resolution
//! through that table can never route to a node that was dead when the
//! table was published — the property `tests/directory_properties.rs`
//! pins.
//!
//! The directory itself holds no per-object routing state for placement
//! (placement is pure hashing), which is what makes resolution
//! bounded-memory at any object count. The separate *location index*
//! ([`ObjectDirectory::register`]) tracks only objects actually created
//! through the runtime, so the rebalancer can enumerate migration
//! candidates per node.

use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, Ordering};

use parc_sync::Mutex;

/// Configuration of the hash ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingConfig {
    /// Hash seed: equal seeds give equal rings (deterministic placement).
    pub seed: u64,
    /// Virtual nodes per unit of weight. More vnodes → smoother key
    /// distribution and smaller remap fractions, at a slightly larger
    /// (still fixed-size) table build.
    pub vnodes: usize,
    /// The bucket table holds `1 << bucket_bits` entries; resolution
    /// indexes it with the top `bucket_bits` bits of the key hash.
    pub bucket_bits: u32,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig { seed: 0x7061_7263, vnodes: 64, bucket_bits: 12 }
    }
}

/// One immutable published routing table.
struct RingTable {
    epoch: u64,
    /// Bucket → owning node. Empty when no node is placeable.
    buckets: Vec<u32>,
    bucket_bits: u32,
}

/// Writer-side state the next table is built from.
struct DirState {
    alive: Vec<bool>,
    weights: Vec<f64>,
    epoch: u64,
}

/// An entry in the location index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedObject {
    /// Class name (migration re-creates by class).
    pub class: String,
    /// Node currently hosting the object.
    pub node: usize,
}

/// The sharded object directory. See the module docs for the protocol.
pub struct ObjectDirectory {
    cfg: RingConfig,
    current: AtomicPtr<RingTable>,
    /// Every table ever published, freed together on drop (see module
    /// docs for why retired tables are never freed mid-flight).
    retired: Mutex<Vec<*mut RingTable>>,
    state: Mutex<DirState>,
    placed: Mutex<HashMap<String, PlacedObject>>,
}

// The raw table pointers are only written under the `state` lock and only
// freed on drop; readers dereference tables that are kept alive for the
// directory's whole lifetime, so sharing across threads is sound.
unsafe impl Send for ObjectDirectory {}
unsafe impl Sync for ObjectDirectory {}

impl ObjectDirectory {
    /// Builds a directory over `nodes` nodes, all alive at weight 1, and
    /// publishes the epoch-1 table.
    pub fn new(nodes: usize, cfg: RingConfig) -> ObjectDirectory {
        let dir = ObjectDirectory {
            cfg,
            current: AtomicPtr::new(std::ptr::null_mut()),
            retired: Mutex::new(Vec::new()),
            state: Mutex::new(DirState {
                alive: vec![true; nodes],
                weights: vec![1.0; nodes],
                epoch: 0,
            }),
            placed: Mutex::new(HashMap::new()),
        };
        {
            let mut state = dir.state.lock();
            dir.publish(&mut state);
        }
        dir
    }

    /// Number of nodes the ring was built over.
    pub fn nodes(&self) -> usize {
        self.state.lock().alive.len()
    }

    /// Epoch of the currently-published table.
    pub fn epoch(&self) -> u64 {
        self.table().epoch
    }

    /// Resolves a placement key to `(node, epoch)` through the published
    /// table — one hash, one array index, no locks. `None` when no node
    /// is placeable (all dead or zero-weight).
    pub fn resolve(&self, key: &str) -> Option<(usize, u64)> {
        let table = self.table();
        if table.buckets.is_empty() {
            return None;
        }
        let h = hash_key(self.cfg.seed, key);
        let idx = (h >> (64 - table.bucket_bits)) as usize;
        Some((table.buckets[idx] as usize, table.epoch))
    }

    /// Marks `node` alive or dead and publishes a new table when the flag
    /// changed. Returns the epoch of the table now in effect.
    pub fn set_alive(&self, node: usize, alive: bool) -> u64 {
        let mut state = self.state.lock();
        match state.alive.get(node) {
            Some(&current) if current != alive => {
                state.alive[node] = alive;
                self.publish(&mut state)
            }
            _ => state.epoch,
        }
    }

    /// Replaces every node weight at once (the rebalancer's periodic
    /// update). To keep epochs rare — retired tables live until drop —
    /// the table is only republished when some weight moved by more than
    /// 10% (relative) since the published table. Returns `true` when a
    /// new table was published.
    pub fn set_weights(&self, weights: &[f64]) -> bool {
        let mut state = self.state.lock();
        if weights.len() != state.weights.len() {
            return false;
        }
        let material = state
            .weights
            .iter()
            .zip(weights)
            .any(|(&old, &new)| (new - old).abs() > 0.1 * old.abs().max(0.1));
        if !material {
            return false;
        }
        state.weights = weights.to_vec();
        self.publish(&mut state);
        true
    }

    /// Current weight of `node`.
    pub fn weight(&self, node: usize) -> f64 {
        self.state.lock().weights.get(node).copied().unwrap_or(0.0)
    }

    /// Publishes a new table with no membership change — the directory
    /// "epoch flip" a completed migration performs so stale routing
    /// decisions are observably older than the move. Returns the new
    /// epoch.
    pub fn bump_epoch(&self) -> u64 {
        let mut state = self.state.lock();
        self.publish(&mut state)
    }

    // ---- location index ------------------------------------------------

    /// Records that `uri` (class `class`) lives on `node`.
    pub fn register(&self, uri: impl Into<String>, class: impl Into<String>, node: usize) {
        self.placed
            .lock()
            .insert(uri.into(), PlacedObject { class: class.into(), node });
    }

    /// Moves `uri`'s index entry to `new_uri` on `node` (post-migration).
    pub fn relocate(&self, uri: &str, new_uri: impl Into<String>, node: usize) {
        let mut placed = self.placed.lock();
        if let Some(mut entry) = placed.remove(uri) {
            entry.node = node;
            placed.insert(new_uri.into(), entry);
        }
    }

    /// Drops `uri` from the index.
    pub fn unregister(&self, uri: &str) {
        self.placed.lock().remove(uri);
    }

    /// Current location of `uri`, if indexed.
    pub fn location(&self, uri: &str) -> Option<PlacedObject> {
        self.placed.lock().get(uri).cloned()
    }

    /// Indexed objects hosted on `node`, sorted by URI so rebalancing
    /// rounds are deterministic for a given cluster state.
    pub fn objects_on(&self, node: usize) -> Vec<(String, String)> {
        let placed = self.placed.lock();
        let mut objects: Vec<(String, String)> = placed
            .iter()
            .filter(|(_, entry)| entry.node == node)
            .map(|(uri, entry)| (uri.clone(), entry.class.clone()))
            .collect();
        objects.sort();
        objects
    }

    /// Number of indexed objects.
    pub fn placed_count(&self) -> usize {
        self.placed.lock().len()
    }

    // ---- internals -----------------------------------------------------

    fn table(&self) -> &RingTable {
        // Published tables are never freed before drop, so the loaded
        // pointer is always valid; `new` publishes before returning, so
        // it is never null.
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    /// Builds and publishes the table for the current state. Caller holds
    /// the state lock.
    fn publish(&self, state: &mut DirState) -> u64 {
        state.epoch += 1;
        let table = Box::new(build_table(&self.cfg, &state.alive, &state.weights, state.epoch));
        let ptr = Box::into_raw(table);
        self.current.store(ptr, Ordering::Release);
        self.retired.lock().push(ptr);
        parc_obs::gauge(parc_obs::kinds::RING_EPOCH).set(state.epoch as i64);
        state.epoch
    }
}

impl Drop for ObjectDirectory {
    fn drop(&mut self) {
        self.current.store(std::ptr::null_mut(), Ordering::Release);
        for ptr in self.retired.lock().drain(..) {
            // Each pointer was published exactly once via Box::into_raw.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

impl std::fmt::Debug for ObjectDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectDirectory")
            .field("nodes", &self.nodes())
            .field("epoch", &self.epoch())
            .field("placed", &self.placed_count())
            .finish()
    }
}

/// Builds the immutable bucket table: virtual-node points on the ring
/// (count scaled by weight; zero for dead or zero-weight nodes), then a
/// successor lookup quantized into `1 << bucket_bits` buckets.
fn build_table(cfg: &RingConfig, alive: &[bool], weights: &[f64], epoch: u64) -> RingTable {
    let mut points: Vec<(u64, u32)> = Vec::new();
    for (node, (&is_alive, &weight)) in alive.iter().zip(weights).enumerate() {
        if !is_alive || weight <= 0.0 {
            continue;
        }
        // At least one vnode for any placeable node, at most 4× the base
        // count so one hot node cannot blow the table build up.
        let count = ((cfg.vnodes as f64 * weight).round() as usize)
            .clamp(1, cfg.vnodes.saturating_mul(4).max(1));
        for replica in 0..count {
            points.push((vnode_hash(cfg.seed, node, replica), node as u32));
        }
    }
    points.sort_unstable();
    let bucket_count = 1usize << cfg.bucket_bits;
    let mut buckets = Vec::new();
    if !points.is_empty() {
        buckets.reserve(bucket_count);
        for b in 0..bucket_count {
            let key = (b as u64) << (64 - cfg.bucket_bits);
            // Successor on the ring: first point at or after the bucket's
            // lower bound, wrapping to the first point.
            let owner = match points.binary_search_by(|&(h, _)| h.cmp(&key)) {
                Ok(i) => points[i].1,
                Err(i) if i < points.len() => points[i].1,
                Err(_) => points[0].1,
            };
            buckets.push(owner);
        }
    }
    RingTable { epoch, buckets, bucket_bits: cfg.bucket_bits }
}

/// SplitMix64 finalizer — the workspace's standard seeded mixer.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Position of virtual node `replica` of `node` on the seeded ring.
fn vnode_hash(seed: u64, node: usize, replica: usize) -> u64 {
    mix64(seed ^ ((node as u64) << 32) ^ mix64(replica as u64 ^ 0xda7a))
}

/// Hashes a placement key onto the ring: seeded FNV-1a over the bytes,
/// then a SplitMix64 finalize so short keys still spread over the top
/// bits (which index the bucket table).
pub fn hash_key(seed: u64, key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for byte in key.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    mix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_is_deterministic_for_a_seed() {
        let a = ObjectDirectory::new(5, RingConfig::default());
        let b = ObjectDirectory::new(5, RingConfig::default());
        for i in 0..200 {
            let key = format!("obj-{i}");
            assert_eq!(a.resolve(&key), b.resolve(&key), "{key}");
        }
    }

    #[test]
    fn different_seeds_give_different_rings() {
        let a = ObjectDirectory::new(8, RingConfig::default());
        let b = ObjectDirectory::new(8, RingConfig { seed: 99, ..RingConfig::default() });
        let differing = (0..200)
            .filter(|i| {
                let key = format!("obj-{i}");
                a.resolve(&key).map(|(n, _)| n) != b.resolve(&key).map(|(n, _)| n)
            })
            .count();
        assert!(differing > 0, "seed must matter");
    }

    #[test]
    fn dead_nodes_receive_no_keys() {
        let dir = ObjectDirectory::new(4, RingConfig::default());
        let e0 = dir.epoch();
        let e1 = dir.set_alive(2, false);
        assert!(e1 > e0, "membership change bumps the epoch");
        for i in 0..500 {
            let (node, epoch) = dir.resolve(&format!("k{i}")).unwrap();
            assert_ne!(node, 2, "key k{i} routed to a dead node");
            assert_eq!(epoch, e1);
        }
        // Revival re-admits the node.
        dir.set_alive(2, true);
        let hits = (0..500)
            .filter(|i| dir.resolve(&format!("k{i}")).unwrap().0 == 2)
            .count();
        assert!(hits > 0, "revived node must own keys again");
    }

    #[test]
    fn all_dead_resolves_to_none_and_recovers() {
        let dir = ObjectDirectory::new(2, RingConfig::default());
        dir.set_alive(0, false);
        dir.set_alive(1, false);
        assert_eq!(dir.resolve("x"), None);
        dir.set_alive(0, true);
        assert_eq!(dir.resolve("x").map(|(n, _)| n), Some(0));
    }

    #[test]
    fn keys_spread_over_all_nodes() {
        let dir = ObjectDirectory::new(4, RingConfig::default());
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[dir.resolve(&format!("key-{i}")).unwrap().0] += 1;
        }
        for (node, &count) in counts.iter().enumerate() {
            assert!(
                count > 400 && count < 2500,
                "node {node} owns {count}/4000 keys — ring badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn weight_updates_shift_share_with_hysteresis() {
        let dir = ObjectDirectory::new(3, RingConfig::default());
        let share = |dir: &ObjectDirectory, node: usize| {
            (0..3000)
                .filter(|i| dir.resolve(&format!("k{i}")).unwrap().0 == node)
                .count()
        };
        let before = share(&dir, 0);
        // A sub-hysteresis nudge publishes nothing.
        assert!(!dir.set_weights(&[1.05, 1.0, 1.0]));
        // Halving node 0's weight publishes and shrinks its share.
        assert!(dir.set_weights(&[0.4, 1.0, 1.0]));
        let after = share(&dir, 0);
        assert!(
            after < before,
            "halving the weight must shrink the share ({before} -> {after})"
        );
        assert!(after > 0, "a positive-weight node keeps some keys");
    }

    #[test]
    fn zero_weight_removes_a_node_from_the_ring() {
        let dir = ObjectDirectory::new(3, RingConfig::default());
        assert!(dir.set_weights(&[0.0, 1.0, 1.0]));
        for i in 0..500 {
            assert_ne!(dir.resolve(&format!("k{i}")).unwrap().0, 0);
        }
    }

    #[test]
    fn bump_epoch_changes_epoch_not_routing() {
        let dir = ObjectDirectory::new(3, RingConfig::default());
        let before: Vec<usize> =
            (0..100).map(|i| dir.resolve(&format!("k{i}")).unwrap().0).collect();
        let e = dir.bump_epoch();
        assert_eq!(dir.epoch(), e);
        let after: Vec<usize> =
            (0..100).map(|i| dir.resolve(&format!("k{i}")).unwrap().0).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn location_index_tracks_moves() {
        let dir = ObjectDirectory::new(3, RingConfig::default());
        dir.register("inproc://node0/io-0-1", "Counter", 0);
        dir.register("inproc://node0/io-0-2", "Counter", 0);
        dir.register("inproc://node1/io-1-1", "Worker", 1);
        assert_eq!(dir.placed_count(), 3);
        assert_eq!(dir.objects_on(0).len(), 2);
        dir.relocate("inproc://node0/io-0-1", "inproc://node2/io-2-9", 2);
        assert_eq!(dir.objects_on(0).len(), 1);
        assert_eq!(
            dir.location("inproc://node2/io-2-9"),
            Some(PlacedObject { class: "Counter".into(), node: 2 })
        );
        assert_eq!(dir.location("inproc://node0/io-0-1"), None);
        dir.unregister("inproc://node1/io-1-1");
        assert_eq!(dir.placed_count(), 2);
    }

    #[test]
    fn concurrent_readers_survive_republishing() {
        use std::sync::Arc;
        let dir = Arc::new(ObjectDirectory::new(4, RingConfig::default()));
        let mut handles = Vec::new();
        for t in 0..4 {
            let dir = Arc::clone(&dir);
            handles.push(std::thread::spawn(move || {
                for i in 0..3000 {
                    if let Some((node, _)) = dir.resolve(&format!("t{t}-k{i}")) {
                        assert!(node < 4);
                    }
                }
            }));
        }
        for round in 0..60 {
            dir.set_alive(round % 4, round % 2 == 0);
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
