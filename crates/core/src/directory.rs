//! The object location index: which node each distributed object the
//! runtime created lives on.
//!
//! `Nodes::create` registers every object it creates at its node,
//! failover drops the dead home's entry, and a completed migration
//! relocates the entry to the object's new URI. The rebalancer enumerates
//! the index per node to pick migration candidates. Placement does not
//! read it: round-robin and `LeastLoaded` choose a node by themselves.

use std::collections::HashMap;

use parc_sync::Mutex;

/// The `uri → node` location index. See the module docs.
#[derive(Debug)]
pub struct ObjectDirectory {
    placed: Mutex<HashMap<String, usize>>,
}

impl Default for ObjectDirectory {
    fn default() -> Self {
        ObjectDirectory::new()
    }
}

impl ObjectDirectory {
    /// An empty index.
    pub fn new() -> ObjectDirectory {
        ObjectDirectory { placed: Mutex::new(HashMap::new()) }
    }

    /// Records that `uri` lives on `node`.
    pub fn register(&self, uri: impl Into<String>, node: usize) {
        self.placed.lock().insert(uri.into(), node);
    }

    /// Moves `uri`'s entry to `new_uri` on `node` (post-migration).
    pub fn relocate(&self, uri: &str, new_uri: impl Into<String>, node: usize) {
        let mut placed = self.placed.lock();
        if placed.remove(uri).is_some() {
            placed.insert(new_uri.into(), node);
        }
    }

    /// Drops `uri` from the index.
    pub fn unregister(&self, uri: &str) {
        self.placed.lock().remove(uri);
    }

    /// The node `uri` lives on, if indexed.
    pub fn location(&self, uri: &str) -> Option<usize> {
        self.placed.lock().get(uri).copied()
    }

    /// URIs of the indexed objects hosted on `node`, sorted so rebalancing
    /// rounds are deterministic for a given cluster state.
    pub fn objects_on(&self, node: usize) -> Vec<String> {
        let placed = self.placed.lock();
        let mut objects: Vec<String> =
            placed.iter().filter(|&(_, &at)| at == node).map(|(uri, _)| uri.clone()).collect();
        objects.sort();
        objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_index_tracks_moves() {
        let dir = ObjectDirectory::new();
        dir.register("inproc://node0/io-0-1", 0);
        dir.register("inproc://node0/io-0-2", 0);
        dir.register("inproc://node1/io-1-1", 1);
        assert_eq!(dir.objects_on(0).len(), 2);
        dir.relocate("inproc://node0/io-0-1", "inproc://node2/io-2-9", 2);
        assert_eq!(dir.objects_on(0), vec!["inproc://node0/io-0-2".to_string()]);
        assert_eq!(dir.location("inproc://node2/io-2-9"), Some(2));
        assert_eq!(dir.location("inproc://node0/io-0-1"), None);
        dir.unregister("inproc://node1/io-1-1");
        assert!(dir.objects_on(1).is_empty());
    }
}
