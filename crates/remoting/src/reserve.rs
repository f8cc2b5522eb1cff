//! Multi-object reservations: the claim/release engine.
//!
//! PR 4's per-object mailboxes give serial-per-grain dispatch, but a
//! compound operation spanning several objects (a transfer between two
//! accounts, a cross-shard rebalance) still interleaves with other
//! clients between its calls. This module turns the mailbox layer's
//! one-in-flight guarantee into a mutual-exclusion primitive:
//!
//! * A client sends `__claim(claim_id)` to an object (through its normal
//!   mailbox). The [`ClaimGate`] wrapping the object registers the claim
//!   and publishes a private **alias object** named
//!   `__claim.{claim_id}.{object}`; the reply carries the alias name and
//!   *is* the grant acknowledgement — no polling, so chaos traces stay
//!   deterministic.
//! * While claimed, every *foreign* invocation of the object parks
//!   inside the gate — occupying the object's one-in-flight mailbox
//!   slot, exactly like `__migrate`'s quiesce — until the holder
//!   releases or its lease lapses. The holder's own calls flow through
//!   the alias, which the [`MailboxScheduler`](crate::mailbox) routes on
//!   a dedicated claim-plane lane so releases can never be starved by
//!   the very workers they would unblock.
//! * Every claim carries a lease ([`LeaseManager`], TTL
//!   [`crate::lease::DEFAULT_CLAIM_TTL`] unless the runtime sets one).
//!   Holder calls renew it; a holder that dies (client crash, node kill,
//!   dropped `Reservation`) simply stops renewing, the lease lapses, the alias is unregistered and the
//!   mailbox slot serves the next caller. No orphaned locks.
//! * `__claim` is **idempotent per claim id**: a retry whose original
//!   grant succeeded (reply lost to chaos) returns the same alias.
//!
//! Deadlock freedom is the *client's* obligation: acquire claims in
//! global canonical URI order (see `parc_core::txn`), which imposes a
//! total order on resources and makes wait cycles impossible.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_serial::Value;
use parc_sync::{Condvar, Mutex};

use crate::dispatcher::Invokable;
use crate::error::RemotingError;
use crate::lease::{self, LeaseManager};
use crate::wellknown::ObjectTable;

/// Control method that requests a claim: `__claim(claim_id) -> alias`.
pub const CLAIM_METHOD: &str = "__claim";
/// Control method that releases a claim. On an alias: `__release()`;
/// on the gate itself: `__release(claim_id)` (escape hatch when the
/// alias channel is gone). Returns `Bool(true)` if a claim was released.
pub const RELEASE_METHOD: &str = "__release";
/// Name prefix of claim alias objects. Object names cannot contain `/`
/// (the URI grammar rejects it), so aliases use a dotted namespace. The
/// mailbox scheduler dispatches any object with this prefix on its
/// dedicated claim-plane lane.
pub const CLAIM_PLANE_PREFIX: &str = "__claim.";

/// True when `object` is a claim alias (claim-plane traffic).
pub fn is_claim_plane(object: &str) -> bool {
    object.starts_with(CLAIM_PLANE_PREFIX)
}

/// The alias object name a grant publishes for `claim_id` on `object`.
pub fn claim_alias(claim_id: &str, object: &str) -> String {
    format!("{CLAIM_PLANE_PREFIX}{claim_id}.{object}")
}

/// Shortest park between re-checks while waiting on a claimed object.
const MIN_PARK: Duration = Duration::from_micros(200);
/// Longest park — bounds staleness against clock-edge races even though
/// releases notify the condvar directly.
const MAX_PARK: Duration = Duration::from_millis(25);

struct ClaimEntry {
    claim_id: String,
    alias: String,
}

/// Counter snapshot returned by [`ClaimTable::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimStats {
    /// Claims granted.
    pub acquired: u64,
    /// Claims reclaimed by lease expiry (holder died or stalled).
    pub aborted: u64,
    /// Claims released by their holder.
    pub released: u64,
    /// Claims currently held.
    pub active: usize,
}

/// One endpoint's claim bookkeeping: which objects are claimed, by which
/// claim id, under which lease. Shared by every [`ClaimGate`] on the
/// endpoint so expiry sweeps and release notifications cover all of them.
pub struct ClaimTable {
    claims: Mutex<HashMap<String, ClaimEntry>>,
    /// `claims.len()`, stored (`Release`) under the `claims` lock. While
    /// it is 0 a foreign call skips the lock and the lease sweep: its
    /// `Acquire` load pairs with the grant's store (see
    /// [`ClaimTable::wait_unclaimed`]).
    held: AtomicUsize,
    cv: Condvar,
    /// Leases keyed by *alias* name, so a sweep directly unregisters the
    /// lapsed alias objects from the endpoint's table.
    leases: LeaseManager,
    epoch: Instant,
    acquired: AtomicU64,
    aborted: AtomicU64,
    released: AtomicU64,
}

impl ClaimTable {
    /// A table with the default claim TTL ([`lease::DEFAULT_CLAIM_TTL`]).
    pub fn new() -> ClaimTable {
        ClaimTable::with_ttl(lease::DEFAULT_CLAIM_TTL)
    }

    /// A table with an explicit claim TTL (tests use short ones).
    pub fn with_ttl(ttl: Duration) -> ClaimTable {
        ClaimTable {
            claims: Mutex::new(HashMap::new()),
            held: AtomicUsize::new(0),
            cv: Condvar::new(),
            leases: LeaseManager::new(ttl.as_nanos() as u64),
            epoch: Instant::now(),
            acquired: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            released: AtomicU64::new(0),
        }
    }

    /// The claim lease TTL.
    pub fn ttl(&self) -> Duration {
        Duration::from_nanos(self.leases.ttl_nanos())
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ClaimStats {
        ClaimStats {
            acquired: self.acquired.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            active: self.held.load(Ordering::Acquire),
        }
    }

    /// Reclaims every claim whose lease lapsed: unregisters the alias,
    /// frees the object, wakes waiters. Called lazily under the claims
    /// lock from every acquire/wait — no background sweeper needed.
    fn reclaim_expired_locked(&self, claims: &mut HashMap<String, ClaimEntry>, table: &ObjectTable) {
        let lapsed = self.leases.sweep(table, self.now());
        if lapsed.is_empty() {
            return;
        }
        claims.retain(|_, e| !lapsed.contains(&e.alias));
        self.held.store(claims.len(), Ordering::Release);
        self.aborted.fetch_add(lapsed.len() as u64, Ordering::Relaxed);
        parc_obs::counter(parc_obs::kinds::CLAIM_ABORTED).add(lapsed.len() as u64);
        self.cv.notify_all();
    }

    /// Grants (or idempotently re-grants) a claim on `object`, blocking
    /// while a different claim holds it. On grant, publishes the alias
    /// session object in `table` and returns the alias name.
    pub fn acquire(
        self: &Arc<Self>,
        object: &str,
        claim_id: &str,
        table: &ObjectTable,
        inner: &Arc<dyn Invokable>,
    ) -> Result<String, RemotingError> {
        let started = Instant::now();
        let mut claims = self.claims.lock();
        loop {
            self.reclaim_expired_locked(&mut claims, table);
            match claims.get(object) {
                Some(e) if e.claim_id == claim_id => {
                    // A retried __claim whose grant already succeeded
                    // (the reply was lost): same alias, fresh lease.
                    let alias = e.alias.clone();
                    self.leases.renew(&alias, self.now());
                    return Ok(alias);
                }
                Some(e) => {
                    // Parked in the object's mailbox slot until the
                    // holder releases or its lease lapses.
                    let rem = self.leases.remaining(&e.alias, self.now()).unwrap_or(0);
                    let park = Duration::from_nanos(rem).clamp(MIN_PARK, MAX_PARK);
                    self.cv.wait_for(&mut claims, park);
                }
                None => {
                    let alias = claim_alias(claim_id, object);
                    claims.insert(
                        object.to_string(),
                        ClaimEntry { claim_id: claim_id.to_string(), alias: alias.clone() },
                    );
                    self.held.store(claims.len(), Ordering::Release);
                    self.leases.grant(&alias, self.now());
                    table.register_singleton(
                        &alias,
                        Arc::new(ClaimSession {
                            object: object.to_string(),
                            claim_id: claim_id.to_string(),
                            alias: alias.clone(),
                            claims: Arc::clone(self),
                            table: table.clone(),
                            inner: Arc::clone(inner),
                            serial: Mutex::new(()),
                        }),
                    );
                    self.acquired.fetch_add(1, Ordering::Relaxed);
                    parc_obs::counter(parc_obs::kinds::CLAIM_ACQUIRED).incr();
                    parc_obs::histogram(parc_obs::kinds::CLAIM_WAIT)
                        .record(started.elapsed().as_nanos() as u64);
                    return Ok(alias);
                }
            }
        }
    }

    /// Releases `claim_id`'s claim on `object`, unregistering its alias.
    /// Returns `false` when no such claim is held (already released, or
    /// reclaimed by lease expiry) — releases are idempotent.
    pub fn release(&self, object: &str, claim_id: &str, table: &ObjectTable) -> bool {
        let mut claims = self.claims.lock();
        match claims.get(object) {
            Some(e) if e.claim_id == claim_id => {
                let alias = e.alias.clone();
                claims.remove(object);
                self.held.store(claims.len(), Ordering::Release);
                self.leases.cancel(&alias);
                table.unregister(&alias);
                self.released.fetch_add(1, Ordering::Relaxed);
                parc_obs::counter(parc_obs::kinds::CLAIM_RELEASED).incr();
                self.cv.notify_all();
                true
            }
            _ => false,
        }
    }

    /// Renews `claim_id`'s lease on `object`. Returns `false` when the
    /// claim is gone or its lease already lapsed — a lapsed claim is
    /// never resurrected, so no claim outlives its lease.
    fn renew(&self, object: &str, claim_id: &str) -> bool {
        let claims = self.claims.lock();
        match claims.get(object) {
            Some(e) if e.claim_id == claim_id => {
                let now = self.now();
                match self.leases.remaining(&e.alias, now) {
                    Some(rem) if rem > 0 => self.leases.renew(&e.alias, now),
                    _ => false,
                }
            }
            _ => false,
        }
    }

    /// Blocks until `object` is unclaimed. This runs inside the object's
    /// mailbox job, so the wait *is* the park: the one-in-flight slot
    /// stays occupied and every later invocation queues behind it in
    /// FIFO order.
    ///
    /// With no claim held on the node it returns at once, without the
    /// lock or a lease sweep: there is no lease to lapse. A grant on
    /// `object` runs in `object`'s own mailbox slot, so every later
    /// foreign call on `object` is ordered after it and reads `held` ≥ 1.
    pub fn wait_unclaimed(&self, object: &str, table: &ObjectTable) {
        if self.held.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut claims = self.claims.lock();
        loop {
            self.reclaim_expired_locked(&mut claims, table);
            let Some(e) = claims.get(object) else { return };
            let rem = self.leases.remaining(&e.alias, self.now()).unwrap_or(0);
            let park = Duration::from_nanos(rem).clamp(MIN_PARK, MAX_PARK);
            self.cv.wait_for(&mut claims, park);
        }
    }
}

impl Default for ClaimTable {
    fn default() -> Self {
        ClaimTable::new()
    }
}

impl std::fmt::Debug for ClaimTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ClaimTable")
            .field("active", &stats.active)
            .field("acquired", &stats.acquired)
            .field("aborted", &stats.aborted)
            .field("released", &stats.released)
            .finish()
    }
}

/// Wraps a published object with the claim protocol. `__claim` grants
/// claims; any other method first parks until the object is unclaimed,
/// then forwards to the wrapped object. Registered in place of the bare
/// object (see [`register_claimable`] and `parc_core::factory`).
pub struct ClaimGate {
    object: String,
    table: ObjectTable,
    claims: Arc<ClaimTable>,
    inner: Arc<dyn Invokable>,
}

impl ClaimGate {
    /// Gates `inner`, registering claim aliases in `table`.
    pub fn new(
        object: impl Into<String>,
        table: ObjectTable,
        claims: Arc<ClaimTable>,
        inner: Arc<dyn Invokable>,
    ) -> ClaimGate {
        ClaimGate { object: object.into(), table, claims, inner }
    }

    /// The wrapped object.
    pub fn inner(&self) -> &Arc<dyn Invokable> {
        &self.inner
    }

    fn claim_id_arg<'a>(method: &str, args: &'a [Value]) -> Result<&'a str, RemotingError> {
        let id = args.first().and_then(Value::as_str).ok_or_else(|| {
            RemotingError::BadArguments {
                method: method.to_string(),
                detail: "expected a string claim id".to_string(),
            }
        })?;
        if id.is_empty() || id.contains('/') {
            return Err(RemotingError::BadArguments {
                method: method.to_string(),
                detail: format!("claim id {id:?} must be non-empty and slash-free"),
            });
        }
        Ok(id)
    }
}

impl Invokable for ClaimGate {
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, RemotingError> {
        match method {
            CLAIM_METHOD => {
                let claim_id = ClaimGate::claim_id_arg(method, args)?;
                self.claims
                    .acquire(&self.object, claim_id, &self.table, &self.inner)
                    .map(Value::Str)
            }
            RELEASE_METHOD => {
                let claim_id = ClaimGate::claim_id_arg(method, args)?;
                Ok(Value::Bool(self.claims.release(&self.object, claim_id, &self.table)))
            }
            _ => {
                // Foreign call: park in the mailbox slot until unclaimed.
                self.claims.wait_unclaimed(&self.object, &self.table);
                self.inner.invoke(method, args)
            }
        }
    }
}

impl std::fmt::Debug for ClaimGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClaimGate").field("object", &self.object).finish()
    }
}

/// The per-claim alias object a grant publishes: the holder's private
/// channel to the claimed object. Serializes the holder's calls, renews
/// the lease on each one, and serves `__release`.
struct ClaimSession {
    object: String,
    claim_id: String,
    alias: String,
    claims: Arc<ClaimTable>,
    table: ObjectTable,
    inner: Arc<dyn Invokable>,
    /// The claim-plane lane is multi-threaded; this keeps the claimed
    /// object's one-at-a-time discipline for the holder's own calls.
    serial: Mutex<()>,
}

impl Invokable for ClaimSession {
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, RemotingError> {
        if method == RELEASE_METHOD {
            let released = self.claims.release(&self.object, &self.claim_id, &self.table);
            return Ok(Value::Bool(released));
        }
        if method.starts_with("__") {
            // No nested claims, no migration through an alias: control
            // methods go to the gate, never the session.
            return Err(RemotingError::MethodNotFound {
                object: self.alias.clone(),
                method: method.to_string(),
            });
        }
        if !self.claims.renew(&self.object, &self.claim_id) {
            return Err(RemotingError::LeaseExpired { object: self.alias.clone() });
        }
        let _serial = self.serial.lock();
        self.inner.invoke(method, args)
    }
}

/// Registers `inner` behind a [`ClaimGate`] — the raw-remoting way to
/// make an object claimable (the SCOOPP runtime's factory does this for
/// every implementation object it creates).
pub fn register_claimable(
    table: &ObjectTable,
    name: &str,
    inner: Arc<dyn Invokable>,
    claims: &Arc<ClaimTable>,
) {
    let gate = ClaimGate::new(name, table.clone(), Arc::clone(claims), inner);
    table.register_singleton(name, Arc::new(gate));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::FnInvokable;
    use std::sync::atomic::AtomicUsize;

    fn counter_object(hits: Arc<AtomicUsize>) -> Arc<dyn Invokable> {
        Arc::new(FnInvokable(move |method: &str, _args: &[Value]| match method {
            "bump" => {
                hits.fetch_add(1, Ordering::SeqCst);
                Ok(Value::I64(hits.load(Ordering::SeqCst) as i64))
            }
            _ => Err(RemotingError::MethodNotFound {
                object: "counter".into(),
                method: method.into(),
            }),
        }))
    }

    fn gated(table: &ObjectTable, claims: &Arc<ClaimTable>, name: &str) -> Arc<AtomicUsize> {
        let hits = Arc::new(AtomicUsize::new(0));
        register_claimable(table, name, counter_object(Arc::clone(&hits)), claims);
        hits
    }

    #[test]
    fn alias_names_are_claim_plane() {
        let alias = claim_alias("c1", "acct");
        assert_eq!(alias, "__claim.c1.acct");
        assert!(is_claim_plane(&alias));
        assert!(!is_claim_plane("acct"));
        assert!(!is_claim_plane("__claimant"));
    }

    #[test]
    fn claim_grants_alias_and_serves_holder_calls() {
        let table = ObjectTable::new();
        let claims = Arc::new(ClaimTable::with_ttl(Duration::from_secs(5)));
        gated(&table, &claims, "acct");
        let gate = table.resolve("acct").unwrap();
        let alias = match gate.invoke(CLAIM_METHOD, &[Value::Str("c1".into())]).unwrap() {
            Value::Str(a) => a,
            other => panic!("expected alias, got {other:?}"),
        };
        assert!(table.contains(&alias));
        let session = table.resolve(&alias).unwrap();
        assert_eq!(session.invoke("bump", &[]).unwrap(), Value::I64(1));
        assert_eq!(session.invoke(RELEASE_METHOD, &[]).unwrap(), Value::Bool(true));
        assert!(!table.contains(&alias), "release unregisters the alias");
        assert_eq!(session.invoke(RELEASE_METHOD, &[]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn reclaim_is_idempotent_per_claim_id() {
        let table = ObjectTable::new();
        let claims = Arc::new(ClaimTable::with_ttl(Duration::from_secs(5)));
        gated(&table, &claims, "acct");
        let gate = table.resolve("acct").unwrap();
        let a1 = gate.invoke(CLAIM_METHOD, &[Value::Str("c1".into())]).unwrap();
        let a2 = gate.invoke(CLAIM_METHOD, &[Value::Str("c1".into())]).unwrap();
        assert_eq!(a1, a2, "retried __claim returns the original alias");
        assert_eq!(claims.stats().acquired, 1, "re-grant is not a second acquisition");
    }

    #[test]
    fn foreign_calls_park_until_release() {
        let table = ObjectTable::new();
        let claims = Arc::new(ClaimTable::with_ttl(Duration::from_secs(5)));
        gated(&table, &claims, "acct");
        let gate = table.resolve("acct").unwrap();
        let alias = gate.invoke(CLAIM_METHOD, &[Value::Str("c1".into())]).unwrap();
        let alias = match alias {
            Value::Str(a) => a,
            _ => unreachable!(),
        };
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let foreign = {
            let table = table.clone();
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let gate = table.resolve("acct").unwrap();
                gate.invoke("bump", &[]).unwrap();
                order.lock().push("foreign");
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        order.lock().push("release");
        let session = table.resolve(&alias).unwrap();
        session.invoke(RELEASE_METHOD, &[]).unwrap();
        foreign.join().unwrap();
        assert_eq!(*order.lock(), vec!["release", "foreign"]);
    }

    #[test]
    fn lapsed_lease_frees_the_object_and_kills_the_session() {
        let table = ObjectTable::new();
        let claims = Arc::new(ClaimTable::with_ttl(Duration::from_millis(40)));
        gated(&table, &claims, "acct");
        let gate = table.resolve("acct").unwrap();
        let alias = match gate.invoke(CLAIM_METHOD, &[Value::Str("dead".into())]).unwrap() {
            Value::Str(a) => a,
            _ => unreachable!(),
        };
        let session = table.resolve(&alias).unwrap();
        // The holder "dies": no renewals. A foreign call parks, then
        // proceeds once the lease lapses.
        let t0 = Instant::now();
        assert_eq!(gate.invoke("bump", &[]).unwrap(), Value::I64(1));
        assert!(t0.elapsed() >= Duration::from_millis(30), "foreign call skipped the lease");
        assert!(!table.contains(&alias), "lapsed alias is unregistered");
        // The stale session handle can no longer reach the object.
        assert!(matches!(
            session.invoke("bump", &[]),
            Err(RemotingError::LeaseExpired { .. })
        ));
        let stats = claims.stats();
        assert_eq!((stats.aborted, stats.active), (1, 0));
    }

    #[test]
    fn competing_claim_waits_for_release() {
        let table = ObjectTable::new();
        let claims = Arc::new(ClaimTable::with_ttl(Duration::from_secs(5)));
        gated(&table, &claims, "acct");
        let gate = table.resolve("acct").unwrap();
        let alias = match gate.invoke(CLAIM_METHOD, &[Value::Str("first".into())]).unwrap() {
            Value::Str(a) => a,
            _ => unreachable!(),
        };
        let waiter = {
            let table = table.clone();
            std::thread::spawn(move || {
                let gate = table.resolve("acct").unwrap();
                gate.invoke(CLAIM_METHOD, &[Value::Str("second".into())]).unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "second claim granted while the first held");
        table.resolve(&alias).unwrap().invoke(RELEASE_METHOD, &[]).unwrap();
        let granted = waiter.join().unwrap();
        assert_eq!(granted, Value::Str("__claim.second.acct".into()));
    }

    #[test]
    fn gate_release_by_claim_id_is_the_escape_hatch() {
        let table = ObjectTable::new();
        let claims = Arc::new(ClaimTable::with_ttl(Duration::from_secs(5)));
        gated(&table, &claims, "acct");
        let gate = table.resolve("acct").unwrap();
        gate.invoke(CLAIM_METHOD, &[Value::Str("c9".into())]).unwrap();
        assert_eq!(
            gate.invoke(RELEASE_METHOD, &[Value::Str("c9".into())]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(claims.stats().active, 0);
    }

    #[test]
    fn bad_claim_ids_are_rejected() {
        let table = ObjectTable::new();
        let claims = Arc::new(ClaimTable::with_ttl(Duration::from_secs(5)));
        gated(&table, &claims, "acct");
        let gate = table.resolve("acct").unwrap();
        for bad in [Value::I64(3), Value::Str("".into()), Value::Str("a/b".into())] {
            assert!(matches!(
                gate.invoke(CLAIM_METHOD, &[bad]),
                Err(RemotingError::BadArguments { .. })
            ));
        }
    }

    #[test]
    fn sessions_reject_control_methods() {
        let table = ObjectTable::new();
        let claims = Arc::new(ClaimTable::with_ttl(Duration::from_secs(5)));
        gated(&table, &claims, "acct");
        let gate = table.resolve("acct").unwrap();
        let alias = match gate.invoke(CLAIM_METHOD, &[Value::Str("c1".into())]).unwrap() {
            Value::Str(a) => a,
            _ => unreachable!(),
        };
        let session = table.resolve(&alias).unwrap();
        for method in [CLAIM_METHOD, "__migrate", "__batch_flat"] {
            assert!(matches!(
                session.invoke(method, &[Value::Str("x".into())]),
                Err(RemotingError::MethodNotFound { .. })
            ));
        }
    }
}
