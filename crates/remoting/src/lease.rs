//! Lifetime leases — ".Net-managed" object lifetime.
//!
//! §3.2: *"In the new platform object lifetime is managed by the .Net
//! implementation"* — ParC++ destroyed IO objects explicitly, ParC# leaves
//! it to remoting's lease-based distributed GC. [`LeaseManager`] reproduces
//! that: every published object gets a lease; each call renews it; a sweep
//! unregisters objects whose lease lapsed.
//!
//! Time is injected (a nanosecond counter) so expiry is testable without
//! wall-clock sleeps; runtimes feed it from `Instant` or from virtual time.

use std::collections::HashMap;
use std::time::Duration;

use parc_sync::Mutex;

use crate::wellknown::ObjectTable;

/// Claim-lease TTL of a reservation ([`crate::reserve`]): long enough
/// that a healthy holder always renews in time, short enough that a dead
/// holder's claim is reclaimed promptly.
pub const DEFAULT_CLAIM_TTL: Duration = Duration::from_millis(1000);

/// Lease bookkeeping for one endpoint's object table.
#[derive(Debug)]
pub struct LeaseManager {
    ttl_nanos: u64,
    leases: Mutex<HashMap<String, u64>>,
}

impl LeaseManager {
    /// Creates a manager with the given time-to-live per lease.
    pub fn new(ttl_nanos: u64) -> LeaseManager {
        LeaseManager { ttl_nanos, leases: Mutex::new(HashMap::new()) }
    }

    /// Lease TTL in nanoseconds.
    pub fn ttl_nanos(&self) -> u64 {
        self.ttl_nanos
    }

    /// Grants (or re-grants) a lease for `object` starting at `now`.
    pub fn grant(&self, object: impl Into<String>, now: u64) {
        self.leases.lock().insert(object.into(), now.saturating_add(self.ttl_nanos));
    }

    /// Renews the lease on a call, if one exists. Returns `false` when the
    /// object holds no lease (infinite lifetime).
    pub fn renew(&self, object: &str, now: u64) -> bool {
        match self.leases.lock().get_mut(object) {
            Some(expiry) => {
                *expiry = now.saturating_add(self.ttl_nanos);
                true
            }
            None => false,
        }
    }

    /// Cancels a lease without collecting the object. Returns `true` if a
    /// lease existed.
    pub fn cancel(&self, object: &str) -> bool {
        self.leases.lock().remove(object).is_some()
    }

    /// Remaining lease time at `now`, if a lease exists (zero if lapsed).
    pub fn remaining(&self, object: &str, now: u64) -> Option<u64> {
        self.leases.lock().get(object).map(|expiry| expiry.saturating_sub(now))
    }

    /// Number of live leases.
    pub fn len(&self) -> usize {
        self.leases.lock().len()
    }

    /// True when no leases are tracked.
    pub fn is_empty(&self) -> bool {
        self.leases.lock().is_empty()
    }

    /// Unregisters every object whose lease lapsed at `now` from `table`,
    /// returning the collected names (sorted, for deterministic logs).
    pub fn sweep(&self, table: &ObjectTable, now: u64) -> Vec<String> {
        let mut leases = self.leases.lock();
        let mut collected: Vec<String> = leases
            .iter()
            .filter(|(_, &expiry)| expiry <= now)
            .map(|(name, _)| name.clone())
            .collect();
        collected.sort();
        for name in &collected {
            leases.remove(name);
            table.unregister(name);
        }
        collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::FnInvokable;
    use parc_serial::Value;
    use std::sync::Arc;

    fn table_with(names: &[&str]) -> ObjectTable {
        let table = ObjectTable::new();
        for name in names {
            table.register_singleton(
                *name,
                Arc::new(FnInvokable(|_: &str, _: &[Value]| Ok(Value::Null))),
            );
        }
        table
    }

    #[test]
    fn lease_expires_and_object_is_collected() {
        let table = table_with(&["A"]);
        let mgr = LeaseManager::new(100);
        mgr.grant("A", 0);
        assert_eq!(mgr.sweep(&table, 99), Vec::<String>::new());
        assert!(table.contains("A"));
        assert_eq!(mgr.sweep(&table, 100), vec!["A"]);
        assert!(!table.contains("A"));
        assert!(mgr.is_empty());
    }

    #[test]
    fn renewal_extends_lifetime() {
        let table = table_with(&["A"]);
        let mgr = LeaseManager::new(100);
        mgr.grant("A", 0);
        assert!(mgr.renew("A", 90));
        assert!(mgr.sweep(&table, 150).is_empty());
        assert_eq!(mgr.sweep(&table, 190), vec!["A"]);
    }

    #[test]
    fn unleased_objects_are_never_collected() {
        let table = table_with(&["A", "Pinned"]);
        let mgr = LeaseManager::new(10);
        mgr.grant("A", 0);
        assert!(!mgr.renew("Pinned", 0));
        mgr.sweep(&table, 1_000);
        assert!(table.contains("Pinned"));
        assert!(!table.contains("A"));
    }

    #[test]
    fn cancel_preserves_object() {
        let table = table_with(&["A"]);
        let mgr = LeaseManager::new(10);
        mgr.grant("A", 0);
        assert!(mgr.cancel("A"));
        assert!(!mgr.cancel("A"));
        mgr.sweep(&table, 1_000);
        assert!(table.contains("A"));
    }

    #[test]
    fn remaining_reports_time_left() {
        let mgr = LeaseManager::new(100);
        mgr.grant("A", 50);
        assert_eq!(mgr.remaining("A", 100), Some(50));
        assert_eq!(mgr.remaining("A", 200), Some(0));
        assert_eq!(mgr.remaining("B", 0), None);
    }

    #[test]
    fn sweep_collects_multiple_sorted() {
        let table = table_with(&["z", "a", "m"]);
        let mgr = LeaseManager::new(5);
        for n in ["z", "a", "m"] {
            mgr.grant(n, 0);
        }
        assert_eq!(mgr.sweep(&table, 10), vec!["a", "m", "z"]);
    }
}
