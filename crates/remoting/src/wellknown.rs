//! Well-known object publication — the `RemotingConfiguration` analogue.
//!
//! The paper contrasts C# remoting with Java RMI precisely here (§2): in
//! addition to publishing explicitly instantiated objects, .NET can register
//! an object *factory* in one of two modes:
//!
//! 1. **singleton** — all remote calls are executed by the same instance
//!    (created lazily on first call);
//! 2. **singlecall** — each remote call may be executed by a different
//!    instance (no state is kept between calls).
//!
//! [`ObjectTable`] supports both plus explicit instance registration, and is
//! shared by every server channel on an endpoint.

use std::collections::HashMap;
use std::sync::Arc;

use parc_sync::RwLock;

use crate::dispatcher::Invokable;
use crate::error::RemotingError;

/// Publication mode for a well-known service type (.NET
/// `WellKnownObjectMode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WellKnownObjectMode {
    /// One shared instance serves every call.
    Singleton,
    /// A fresh instance serves each call; state never persists.
    SingleCall,
}

type Factory = Arc<dyn Fn() -> Arc<dyn Invokable> + Send + Sync>;

enum Entry {
    /// An explicitly registered (or lazily created singleton) instance.
    Instance(Arc<dyn Invokable>),
    /// A factory still waiting for its first singleton call.
    LazySingleton(Factory),
    /// A factory invoked per call.
    PerCall(Factory),
}

/// Registry of published server objects for one endpoint.
///
/// Cloning is cheap (it is an `Arc` handle); all clones observe the same
/// registrations.
#[derive(Clone, Default)]
pub struct ObjectTable {
    entries: Arc<RwLock<HashMap<String, Entry>>>,
}

impl ObjectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ObjectTable::default()
    }

    /// Publishes an explicitly instantiated object (the Java-RMI-style
    /// `rebind` path, also available in .NET via `RemotingServices.Marshal`).
    pub fn register_singleton(&self, name: impl Into<String>, object: Arc<dyn Invokable>) {
        self.entries.write().insert(name.into(), Entry::Instance(object));
    }

    /// Publishes a well-known service type backed by `factory`, in the
    /// given mode — `RemotingConfiguration.RegisterWellKnownServiceType`.
    pub fn register_well_known(
        &self,
        name: impl Into<String>,
        mode: WellKnownObjectMode,
        factory: impl Fn() -> Arc<dyn Invokable> + Send + Sync + 'static,
    ) {
        let factory: Factory = Arc::new(factory);
        let entry = match mode {
            WellKnownObjectMode::Singleton => Entry::LazySingleton(factory),
            WellKnownObjectMode::SingleCall => Entry::PerCall(factory),
        };
        self.entries.write().insert(name.into(), entry);
    }

    /// Removes a published object (used by lease expiry and tests).
    /// Returns `true` if something was removed.
    pub fn unregister(&self, name: &str) -> bool {
        self.entries.write().remove(name).is_some()
    }

    /// True if `name` is currently published.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.read().contains_key(name)
    }

    /// Names of all published objects (sorted, for deterministic output).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Resolves the object that should serve the next call on `name`.
    ///
    /// For `Singleton` factories, the first resolution creates the instance
    /// and caches it; for `SingleCall`, every resolution creates a fresh
    /// instance.
    ///
    /// # Errors
    ///
    /// [`RemotingError::ObjectNotFound`] when nothing is published as
    /// `name`.
    pub fn resolve(&self, name: &str) -> Result<Arc<dyn Invokable>, RemotingError> {
        // Fast path: read lock.
        {
            let entries = self.entries.read();
            match entries.get(name) {
                Some(Entry::Instance(obj)) => return Ok(Arc::clone(obj)),
                Some(Entry::PerCall(factory)) => return Ok(factory()),
                Some(Entry::LazySingleton(_)) => {}
                None => return Err(RemotingError::ObjectNotFound { object: name.to_string() }),
            }
        }
        // Slow path: promote the lazy singleton under the write lock.
        let mut entries = self.entries.write();
        match entries.get(name) {
            Some(Entry::LazySingleton(factory)) => {
                let obj = factory();
                entries.insert(name.to_string(), Entry::Instance(Arc::clone(&obj)));
                Ok(obj)
            }
            Some(Entry::Instance(obj)) => Ok(Arc::clone(obj)),
            Some(Entry::PerCall(factory)) => Ok(factory()),
            None => Err(RemotingError::ObjectNotFound { object: name.to_string() }),
        }
    }
}

impl std::fmt::Debug for ObjectTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectTable").field("names", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use parc_serial::Value;

    /// Counts instance creations and invocations.
    struct Probe {
        instance: usize,
        calls: Arc<AtomicUsize>,
    }

    impl Invokable for Probe {
        fn invoke(&self, _method: &str, _args: &[Value]) -> Result<Value, RemotingError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            Ok(Value::I32(self.instance as i32))
        }
    }

    fn probe_factory() -> (Arc<AtomicUsize>, Arc<AtomicUsize>, impl Fn() -> Arc<dyn Invokable>) {
        let created = Arc::new(AtomicUsize::new(0));
        let calls = Arc::new(AtomicUsize::new(0));
        let created2 = Arc::clone(&created);
        let calls2 = Arc::clone(&calls);
        let factory = move || -> Arc<dyn Invokable> {
            let instance = created2.fetch_add(1, Ordering::SeqCst);
            Arc::new(Probe { instance, calls: Arc::clone(&calls2) })
        };
        (created, calls, factory)
    }

    #[test]
    fn singleton_factory_creates_exactly_once() {
        let (created, _, factory) = probe_factory();
        let table = ObjectTable::new();
        table.register_well_known("S", WellKnownObjectMode::Singleton, factory);
        assert_eq!(created.load(Ordering::SeqCst), 0, "lazy until first call");
        let a = table.resolve("S").unwrap();
        let b = table.resolve("S").unwrap();
        assert_eq!(created.load(Ordering::SeqCst), 1);
        assert_eq!(a.invoke("m", &[]).unwrap(), b.invoke("m", &[]).unwrap());
    }

    #[test]
    fn singlecall_factory_creates_per_resolution() {
        let (created, _, factory) = probe_factory();
        let table = ObjectTable::new();
        table.register_well_known("SC", WellKnownObjectMode::SingleCall, factory);
        let a = table.resolve("SC").unwrap().invoke("m", &[]).unwrap();
        let b = table.resolve("SC").unwrap().invoke("m", &[]).unwrap();
        assert_eq!(created.load(Ordering::SeqCst), 2);
        assert_ne!(a, b, "each call sees a distinct instance");
    }

    #[test]
    fn missing_object_is_not_found() {
        let table = ObjectTable::new();
        assert!(matches!(
            table.resolve("ghost"),
            Err(RemotingError::ObjectNotFound { .. })
        ));
    }

    #[test]
    fn unregister_removes() {
        let (_, _, factory) = probe_factory();
        let table = ObjectTable::new();
        table.register_well_known("X", WellKnownObjectMode::Singleton, factory);
        assert!(table.contains("X"));
        assert!(table.unregister("X"));
        assert!(!table.contains("X"));
        assert!(!table.unregister("X"));
        assert!(table.resolve("X").is_err());
    }

    #[test]
    fn names_are_sorted() {
        let table = ObjectTable::new();
        for n in ["zeta", "alpha", "mid"] {
            let (_, _, factory) = probe_factory();
            table.register_well_known(n, WellKnownObjectMode::SingleCall, factory);
        }
        assert_eq!(table.names(), vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn clones_share_registrations() {
        let table = ObjectTable::new();
        let clone = table.clone();
        let (_, _, factory) = probe_factory();
        clone.register_well_known("shared", WellKnownObjectMode::Singleton, factory);
        assert!(table.contains("shared"));
    }

    #[test]
    fn concurrent_singleton_resolution_is_single_instance() {
        let (created, _, factory) = probe_factory();
        let table = ObjectTable::new();
        table.register_well_known("S", WellKnownObjectMode::Singleton, factory);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = table.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        t.resolve("S").unwrap();
                    }
                });
            }
        });
        assert_eq!(created.load(Ordering::SeqCst), 1);
    }
}
