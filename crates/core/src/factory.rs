//! Remote object factories — Fig. 6's generated `RemoteFactory`.
//!
//! §3.2: *"On the C# prototype this functionality was separated from the
//! OM code since object factories can be automatically registered in the
//! boot code of each node."* Each node publishes one factory service
//! (`__factory`); a `create(class)` call instantiates an implementation
//! object from the shared class registry, wraps it in the batch adapter,
//! registers it in the node's object table under a fresh name, and returns
//! that name to the caller (which builds the PO around it).
//!
//! The wrapper each IO is registered behind (`MigratableHost`) is also
//! the server half of **live migration**. A two-way `__migrate(dst)` call
//! — sent through the object's ordinary channel, so the mailbox
//! scheduler's one-in-flight-call-per-object guarantee quiesces the
//! object for free — snapshots the IO (`__snapshot`, optional), re-creates
//! it on the destination factory (`create_with_state`), and swaps the old
//! registration for a [`Forwarder`]. Calls already queued behind
//! `__migrate` resolve the object table at dispatch time, so they hit the
//! forwarder and relay to the new home in their original order (the
//! forwarder relays strictly two-way). See DESIGN.md §13.
//!
//! Both sides ask a factory through one function, `create_on_node`:
//! the runtime's node table to create (placement, the rescue endpoint,
//! failover), and `MigratableHost` to re-create with state. The handle
//! it returns rides the factory's channel, so a migration opens no second
//! channel and has nothing to undo once the copy exists.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parc_remoting::channel::RemoteObject;
use parc_remoting::inproc::InprocNetwork;
use parc_remoting::reserve::{ClaimGate, ClaimTable};
use parc_remoting::{ChannelProvider, Forwarder, Invokable, ObjectTable, RemotingError};
use parc_serial::Value;
use parc_sync::RwLock;

use crate::batch::BatchDispatcher;
use crate::om::OmState;
use crate::nodes::{node_of, node_uri};

/// Method a migratable IO implements to export its state (any [`Value`]).
/// IOs without it migrate stateless — the re-created instance starts from
/// the class constructor.
pub const SNAPSHOT_METHOD: &str = "__snapshot";
/// Method a migratable IO implements to import a previously exported
/// state value before serving its first call on the new node.
pub const RESTORE_METHOD: &str = "__restore";
/// The migration trigger, served by the `MigratableHost` wrapper (IOs
/// never see it). Argument: destination endpoint name (`node{i}`).
/// Returns the object's new URI.
pub const MIGRATE_METHOD: &str = "__migrate";

/// The well-known name every node publishes its factory under.
pub const FACTORY_OBJECT: &str = "__factory";

/// A constructor for one parallel-object class.
pub type ClassFactory = Arc<dyn Fn() -> Arc<dyn Invokable> + Send + Sync>;

/// The runtime-wide class registry, shared by every node's factory.
#[derive(Clone, Default)]
pub struct ClassRegistry {
    classes: Arc<RwLock<HashMap<String, ClassFactory>>>,
}

impl ClassRegistry {
    /// Creates an empty registry.
    pub fn new() -> ClassRegistry {
        ClassRegistry::default()
    }

    /// Registers (or replaces) a class constructor.
    pub fn register(
        &self,
        class: impl Into<String>,
        factory: impl Fn() -> Arc<dyn Invokable> + Send + Sync + 'static,
    ) {
        self.classes.write().insert(class.into(), Arc::new(factory));
    }

    /// Looks a constructor up.
    pub fn get(&self, class: &str) -> Option<ClassFactory> {
        self.classes.read().get(class).cloned()
    }

    /// Registered class names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.classes.read().keys().cloned().collect();
        names.sort();
        names
    }
}

impl std::fmt::Debug for ClassRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassRegistry").field("classes", &self.names()).finish()
    }
}

/// Creates an object of `class` on runtime node `node` through the node's
/// factory: `create`, or `create_with_state` when migration hands over a
/// snapshot. Returns the new object's name and a handle to it over the
/// factory's own channel. The one place either call is sent from.
pub(crate) fn create_on_node(
    net: &InprocNetwork,
    node: usize,
    class: &str,
    state: Option<Value>,
) -> Result<(String, RemoteObject), RemotingError> {
    let uri: parc_remoting::ObjectUri = node_uri(node, FACTORY_OBJECT).parse()?;
    let chan = net.open(&uri)?;
    let factory = RemoteObject::new(Arc::clone(&chan), FACTORY_OBJECT);
    let class = Value::Str(class.to_string());
    let reply = match state {
        None => factory.call("create", vec![class])?,
        Some(state) => factory.call("create_with_state", vec![class, state])?,
    };
    let name = reply
        .as_str()
        .ok_or_else(|| RemotingError::ServerFault {
            detail: "factory returned a non-string".into(),
        })?
        .to_string();
    Ok((name.clone(), RemoteObject::new(chan, name)))
}

static NEXT_IO_ID: AtomicU64 = AtomicU64::new(1);

/// The wrapper every created IO is registered behind: the server half of
/// live migration. A two-way [`MIGRATE_METHOD`] call snapshots the IO,
/// re-creates it on the destination and swaps this registration for a
/// [`Forwarder`]. Because `__migrate` travels through the object's own
/// mailbox, nothing else runs on the object while it executes — the
/// mailbox's one-in-flight-call guarantee is the quiesce step.
struct MigratableHost {
    name: String,
    class: String,
    node: usize,
    objects: ObjectTable,
    om: Arc<OmState>,
    net: InprocNetwork,
    inner: BatchDispatcher,
}

impl MigratableHost {
    /// Serves one `__migrate(dst_endpoint)` call. On any failure the
    /// object stays registered and serving at the source — callers observe
    /// a clean abort, never a half-moved object.
    fn migrate(&self, dst: &str) -> Result<Value, RemotingError> {
        let dst = node_of(dst).ok_or_else(|| RemotingError::ServerFault {
            detail: format!("migration destination {dst:?} is not a runtime node"),
        })?;
        if dst == self.node {
            // Already home — idempotent no-op.
            return Ok(Value::Str(node_uri(self.node, &self.name)));
        }
        // 1. Snapshot. IOs that expose no __snapshot migrate stateless.
        let state = match self.inner.invoke(SNAPSHOT_METHOD, &[]) {
            Ok(state) => Some(state),
            Err(RemotingError::MethodNotFound { .. }) => None,
            Err(e) => return Err(e),
        };
        // 2. Re-create (and restore) on the destination factory. The relay
        //    handle rides the factory's channel, so once the copy exists
        //    nothing is left that can fail.
        let (new_name, target) = create_on_node(&self.net, dst, &self.class, state)?;
        let new_uri = node_uri(dst, &new_name);
        // 3. Swap this registration for the forwarding entry. From this
        //    dispatch on, calls queued behind __migrate resolve the
        //    forwarder and relay in arrival order.
        self.objects
            .register_singleton(&self.name, Arc::new(Forwarder::new(target, new_uri.clone())));
        self.om.object_destroyed();
        parc_obs::gauge(parc_obs::kinds::DIRECTORY_FORWARDS).adjust(1);
        Ok(Value::Str(new_uri))
    }
}

impl Invokable for MigratableHost {
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, RemotingError> {
        if method == MIGRATE_METHOD {
            let dst = args.first().and_then(Value::as_str).ok_or_else(|| {
                RemotingError::BadArguments {
                    method: MIGRATE_METHOD.into(),
                    detail: "expected a destination endpoint string".into(),
                }
            })?;
            return self.migrate(dst);
        }
        self.inner.invoke(method, args)
    }
}

/// The per-node factory service.
pub struct FactoryService {
    node: usize,
    registry: ClassRegistry,
    objects: ObjectTable,
    om: Arc<OmState>,
    net: InprocNetwork,
    claims: Arc<ClaimTable>,
}

impl FactoryService {
    /// Creates the factory for `node`, registering IOs into `objects`.
    /// `net` lets created hosts reach destination factories during
    /// migration; `claims` is the node's claim table — every created IO
    /// is registered behind a [`ClaimGate`] so it supports multi-object
    /// reservations out of the box.
    pub fn new(
        node: usize,
        registry: ClassRegistry,
        objects: ObjectTable,
        om: Arc<OmState>,
        net: InprocNetwork,
        claims: Arc<ClaimTable>,
    ) -> FactoryService {
        FactoryService { node, registry, objects, om, net, claims }
    }

    /// Instantiates `class`, optionally restoring `state` into it first
    /// (the migration path), then registers it behind a fresh
    /// [`MigratableHost`].
    fn create(&self, class: &str, state: Option<Value>) -> Result<String, RemotingError> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::FACTORY_CREATE);
        let factory = self.registry.get(class).ok_or_else(|| RemotingError::ObjectNotFound {
            object: format!("class {class}"),
        })?;
        let io = factory();
        if let Some(state) = state {
            // Restore before the object becomes reachable: a failed
            // restore aborts the creation, nothing was registered.
            io.invoke(RESTORE_METHOD, &[state])?;
        }
        let name = format!("io-{}-{}", self.node, NEXT_IO_ID.fetch_add(1, Ordering::Relaxed));
        let host: Arc<dyn Invokable> = Arc::new(MigratableHost {
            name: name.clone(),
            class: class.to_string(),
            node: self.node,
            objects: self.objects.clone(),
            om: Arc::clone(&self.om),
            net: self.net.clone(),
            inner: BatchDispatcher::new(io),
        });
        // The gate makes every IO claimable (`__claim`/`__release`).
        // While claimed, foreign calls — `__migrate` included, so a
        // migration can never split an in-progress reservation — park in
        // the object's mailbox slot; the holder's calls flow through the
        // claim alias straight to the host.
        self.objects.register_singleton(
            &name,
            Arc::new(ClaimGate::new(name.clone(), self.objects.clone(), Arc::clone(&self.claims), host)),
        );
        self.om.object_created();
        Ok(name)
    }
}

impl Invokable for FactoryService {
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, RemotingError> {
        match method {
            "create" | "create_with_state" => {
                let class = args.first().and_then(Value::as_str).ok_or_else(|| {
                    RemotingError::BadArguments {
                        method: method.into(),
                        detail: "expected a class name string".into(),
                    }
                })?;
                // No state, or a Null one (a stateless migration): the
                // fresh instance keeps its constructor state.
                let state = args.get(1).filter(|state| **state != Value::Null).cloned();
                self.create(class, state).map(Value::Str)
            }
            _ => Err(RemotingError::MethodNotFound {
                object: FACTORY_OBJECT.to_string(),
                method: method.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{encode_flat_call, FLAT_BATCH_METHOD};
    use parc_remoting::dispatcher::FnInvokable;
    use parc_remoting::MailboxScheduler;
    use parc_serial::BinaryFormatter;

    /// OM state over a fresh one-worker scheduler (the factory only
    /// touches its hosted-object count).
    fn om_state() -> Arc<OmState> {
        Arc::new(OmState::new(MailboxScheduler::with_workers(1).depth_handle()))
    }

    fn service() -> (FactoryService, ObjectTable, Arc<OmState>) {
        let registry = ClassRegistry::new();
        registry.register("Echo", || {
            Arc::new(FnInvokable(|_: &str, args: &[Value]| {
                Ok(args.first().cloned().unwrap_or(Value::Null))
            }))
        });
        let objects = ObjectTable::new();
        let om = om_state();
        let svc = FactoryService::new(
            0,
            registry,
            objects.clone(),
            Arc::clone(&om),
            InprocNetwork::new(),
            Arc::new(ClaimTable::new()),
        );
        (svc, objects, om)
    }

    #[test]
    fn create_registers_a_fresh_io() {
        let (svc, objects, om) = service();
        let name = svc.invoke("create", &[Value::Str("Echo".into())]).unwrap();
        let name = name.as_str().unwrap().to_string();
        assert!(objects.contains(&name));
        assert_eq!(om.load(), 1);
        // The IO answers calls.
        let io = objects.resolve(&name).unwrap();
        assert_eq!(io.invoke("echo", &[Value::I32(5)]).unwrap(), Value::I32(5));
    }

    #[test]
    fn created_ios_understand_batches() {
        let (svc, objects, _) = service();
        let name = svc.invoke("create", &[Value::Str("Echo".into())]).unwrap();
        let io = objects.resolve(name.as_str().unwrap()).unwrap();
        let mut batch = Vec::new();
        encode_flat_call(&BinaryFormatter::new(), &mut batch, "echo", &[Value::I32(1)]).unwrap();
        assert_eq!(io.invoke(FLAT_BATCH_METHOD, &[Value::Bytes(batch)]).unwrap(), Value::Null);
    }

    #[test]
    fn names_are_unique_per_creation() {
        let (svc, _, om) = service();
        let a = svc.invoke("create", &[Value::Str("Echo".into())]).unwrap();
        let b = svc.invoke("create", &[Value::Str("Echo".into())]).unwrap();
        assert_ne!(a, b);
        assert_eq!(om.load(), 2);
    }

    #[test]
    fn unknown_class_is_an_error() {
        let (svc, _, _) = service();
        assert!(svc.invoke("create", &[Value::Str("Ghost".into())]).is_err());
        assert!(svc.invoke("create", &[Value::I32(1)]).is_err());
        assert!(svc.invoke("create", &[]).is_err());
    }

    #[test]
    fn create_with_state_restores_before_registering() {
        let (svc, objects, _) = service();
        // "Echo" echoes its first argument; a __restore call is just
        // another method here, so use a stateful class instead.
        let registry = ClassRegistry::new();
        registry.register("Cell", || {
            let cell = parc_sync::Mutex::new(Value::Null);
            Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
                RESTORE_METHOD => {
                    *cell.lock() = args.first().cloned().unwrap_or(Value::Null);
                    Ok(Value::Null)
                }
                "get" => Ok(cell.lock().clone()),
                _ => Err(RemotingError::MethodNotFound {
                    object: "Cell".into(),
                    method: method.into(),
                }),
            }))
        });
        let svc2 = FactoryService::new(
            1,
            registry,
            objects.clone(),
            om_state(),
            InprocNetwork::new(),
            Arc::new(ClaimTable::new()),
        );
        let name = svc2
            .invoke(
                "create_with_state",
                &[Value::Str("Cell".into()), Value::I64(42)],
            )
            .unwrap();
        let io = objects.resolve(name.as_str().unwrap()).unwrap();
        assert_eq!(io.invoke("get", &[]).unwrap(), Value::I64(42));
        // Null state means "stateless": no __restore is attempted, which
        // is why Echo (no __restore) still creates fine.
        assert!(svc
            .invoke("create_with_state", &[Value::Str("Echo".into()), Value::Null])
            .is_ok());
    }

    #[test]
    fn failed_restore_aborts_creation() {
        let registry = ClassRegistry::new();
        registry.register("NoRestore", || {
            Arc::new(FnInvokable(|method: &str, _: &[Value]| {
                Err(RemotingError::MethodNotFound { object: "NoRestore".into(), method: method.into() })
            }))
        });
        let objects = ObjectTable::new();
        let om = om_state();
        let svc = FactoryService::new(
            0,
            registry,
            objects.clone(),
            Arc::clone(&om),
            InprocNetwork::new(),
            Arc::new(ClaimTable::new()),
        );
        assert!(svc
            .invoke("create_with_state", &[Value::Str("NoRestore".into()), Value::I64(1)])
            .is_err());
        assert_eq!(om.load(), 0, "aborted restore must not register the object");
    }

    #[test]
    fn registry_lists_classes() {
        let registry = ClassRegistry::new();
        registry.register("B", || -> Arc<dyn Invokable> {
            Arc::new(FnInvokable(|_: &str, _: &[Value]| Ok(Value::Null)))
        });
        registry.register("A", || -> Arc<dyn Invokable> {
            Arc::new(FnInvokable(|_: &str, _: &[Value]| Ok(Value::Null)))
        });
        assert_eq!(registry.names(), vec!["A", "B"]);
        assert!(registry.get("A").is_some());
        assert!(registry.get("C").is_none());
    }
}
