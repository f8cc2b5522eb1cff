//! Multi-object reservations — the client half of the claim engine.
//!
//! The server half ([`parc_remoting::reserve`]) turns each object's
//! one-in-flight mailbox slot into a mutual-exclusion primitive; this
//! module supplies the discipline that makes compound operations safe:
//! [`ParcRuntime::reserve`] acquires claims on a set of objects **in
//! global canonical URI order**. Sorting first imposes a total order on
//! resources, so two reservations can never wait on each other in a
//! cycle — deadlock is structurally impossible, no detector needed.
//!
//! The returned [`Reservation`] is an RAII guard: while it lives, every
//! call it makes flows through private claim aliases (foreign calls park
//! in the objects' mailbox slots), and dropping it releases every claim
//! in reverse order. Each claim carries a lease, so a holder that dies —
//! client panic, node kill mid-reservation — simply stops renewing and
//! the objects are reclaimed at TTL; a dropped guard on a dead node
//! fails fast and leaves cleanup to the lease.
//!
//! [`ParcRuntime::atomically`] is the compound-op combinator: reserve,
//! run a closure against the guard, release — the shape Farm workers and
//! Pipeline stages use for cross-object steps (e.g. a transfer between
//! two accounts held by different stages).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parc_remoting::channel::{ChannelProvider, RemoteObject};
use parc_remoting::reserve::{CLAIM_METHOD, RELEASE_METHOD};
use parc_remoting::RemotingError;
use parc_serial::Value;

use crate::error::ParcError;
use crate::runtime::ParcRuntime;

/// Bounded attempts per claim. `__claim` is idempotent per claim id, so
/// re-sending after a dropped reply is safe; after this many transport
/// failures the whole reservation aborts (releasing what it holds).
const CLAIM_ATTEMPTS: u32 = 8;

/// Backoff before retry `attempt` (1, 2, 4, … ms, capped at 32 ms).
fn backoff(attempt: u32) -> Duration {
    Duration::from_millis(1 << attempt.min(5))
}

static NEXT_CLAIM_ID: AtomicU64 = AtomicU64::new(1);

/// One claimed object: the URI the caller named it by and the proxy to
/// its private claim alias.
struct ClaimHandle {
    uri: String,
    alias: RemoteObject,
}

/// An RAII guard over a set of claimed objects.
///
/// While the guard lives, [`Reservation::call`]/[`Reservation::post`]
/// reach the objects through their claim aliases — serialized with each
/// other, interference-free from every other client. Dropping the guard
/// releases all claims (reverse acquisition order, best effort); if the
/// release cannot be delivered — the hosting node died mid-reservation —
/// the claim's lease lapses server-side and the mailbox slot is
/// reclaimed without the client's help.
pub struct Reservation {
    claim_id: String,
    claims: Vec<ClaimHandle>,
    released: bool,
}

impl Reservation {
    /// The claim id shared by every claim in this reservation.
    pub fn claim_id(&self) -> &str {
        &self.claim_id
    }

    /// The claimed URIs, in acquisition (canonical) order.
    pub fn uris(&self) -> Vec<&str> {
        self.claims.iter().map(|h| h.uri.as_str()).collect()
    }

    fn handle(&self, uri: &str) -> Result<&ClaimHandle, ParcError> {
        self.claims.iter().find(|h| h.uri == uri).ok_or_else(|| ParcError::Config {
            detail: format!("{uri} is not part of this reservation"),
        })
    }

    /// Synchronous call on a claimed object (named by the URI it was
    /// reserved under). Renews the claim's lease.
    ///
    /// # Errors
    ///
    /// [`RemotingError::LeaseExpired`] when the claim lapsed (the holder
    /// stalled past the TTL — the object has been reclaimed); transport
    /// failures; [`ParcError::Config`] for a URI outside the reservation.
    pub fn call(&self, uri: &str, method: &str, args: Vec<Value>) -> Result<Value, ParcError> {
        Ok(self.handle(uri)?.alias.call(method, args)?)
    }

    /// [`Reservation::call`] for an idempotent method: transient
    /// transport failures retry under the proxy's retry policy.
    ///
    /// # Errors
    ///
    /// As [`Reservation::call`].
    pub fn call_idempotent(
        &self,
        uri: &str,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, ParcError> {
        Ok(self.handle(uri)?.alias.call_idempotent(method, args)?)
    }

    /// One-way post to a claimed object. Still travels the claim alias
    /// (and renews the lease), so posts serialize with the holder's
    /// calls and with nobody else's.
    ///
    /// # Errors
    ///
    /// As [`Reservation::call`].
    pub fn post(&self, uri: &str, method: &str, args: Vec<Value>) -> Result<(), ParcError> {
        self.handle(uri)?.alias.post(method, args)?;
        Ok(())
    }

    /// Releases every claim now, in reverse acquisition order, and
    /// reports the first delivery failure (after attempting all of
    /// them). A failed release is not a leak: the lease reclaims the
    /// object at TTL.
    ///
    /// # Errors
    ///
    /// The first release whose delivery failed.
    pub fn release(mut self) -> Result<(), ParcError> {
        self.released = true;
        let mut first_err = None;
        for handle in self.claims.iter().rev() {
            // Releasing twice is a no-op server-side, so retrying a
            // possibly-delivered release is safe.
            if let Err(e) = handle.alias.call_idempotent(RELEASE_METHOD, vec![]) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e.into()),
        }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if self.released {
            return;
        }
        for handle in self.claims.iter().rev() {
            // Best effort, no retries: a dead endpoint fails fast here
            // and the lease handles reclamation server-side.
            let _ = handle.alias.call(RELEASE_METHOD, vec![]);
        }
    }
}

impl std::fmt::Debug for Reservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reservation")
            .field("claim_id", &self.claim_id)
            .field("uris", &self.uris())
            .finish()
    }
}

impl ParcRuntime {
    /// Claims every object in `uris` and returns the guard. Acquisition
    /// is strictly sequential in canonical (sorted, deduplicated) URI
    /// order — the total order on resources that makes deadlock
    /// impossible no matter how many clients reserve overlapping sets in
    /// adversarial orders.
    ///
    /// A claim on an object that is mid-migration parks behind the move
    /// and is granted at the object's new home (the grant reply carries
    /// the forwarding address); a claim that cannot complete aborts the
    /// whole reservation, releasing every claim already held.
    ///
    /// # Errors
    ///
    /// URI parse failures; transport failures that survive bounded
    /// retry. On error nothing stays claimed.
    pub fn reserve(&self, uris: &[&str]) -> Result<Reservation, ParcError> {
        let mut canonical: Vec<String> = uris.iter().map(|u| u.to_string()).collect();
        canonical.sort();
        canonical.dedup();
        let claim_id = format!("r{}", NEXT_CLAIM_ID.fetch_add(1, Ordering::Relaxed));
        let mut claims: Vec<ClaimHandle> = Vec::with_capacity(canonical.len());
        for uri in &canonical {
            match self.acquire_claim(uri, &claim_id) {
                Ok(handle) => claims.push(handle),
                Err(e) => {
                    // Abort: hand back everything acquired so far, in
                    // reverse order, before surfacing the failure.
                    for held in claims.iter().rev() {
                        let _ = held.alias.call_idempotent(RELEASE_METHOD, vec![]);
                    }
                    return Err(e);
                }
            }
        }
        Ok(Reservation { claim_id, claims, released: false })
    }

    /// The compound-op combinator: reserves `uris`, runs `f` against the
    /// guard, then releases. Release delivery failures are swallowed —
    /// the lease reclaims the objects — so the closure's own result is
    /// what the caller sees. This is the idiom for Farm workers and
    /// Pipeline stages whose step spans several objects.
    ///
    /// # Errors
    ///
    /// Reservation failures; whatever `f` returns.
    pub fn atomically<T>(
        &self,
        uris: &[&str],
        f: impl FnOnce(&Reservation) -> Result<T, ParcError>,
    ) -> Result<T, ParcError> {
        let guard = self.reserve(uris)?;
        let result = f(&guard);
        let _ = guard.release();
        result
    }

    /// Acquires one claim, re-opening the channel on every attempt (a
    /// killed endpoint or chaos-poisoned wrapper must not doom the
    /// retry) and following a `Moved` grant to the object's new home.
    fn acquire_claim(&self, uri: &str, claim_id: &str) -> Result<ClaimHandle, ParcError> {
        let parsed: parc_remoting::ObjectUri = uri.parse()?;
        let mut authority = parsed.authority().to_string();
        let object = parsed.object().to_string();
        let mut last_err = ParcError::Remoting(RemotingError::EndpointNotFound {
            endpoint: authority.clone(),
        });
        for attempt in 0..CLAIM_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(backoff(attempt));
            }
            let target = parc_remoting::ObjectUri::new(parsed.scheme(), &authority, &object)?;
            let chan = match self.network().open(&target) {
                Ok(chan) => chan,
                Err(e) => {
                    last_err = e.into();
                    continue;
                }
            };
            let remote = RemoteObject::new(chan, object.clone());
            match remote
                .call_reclaim_located(CLAIM_METHOD, vec![Value::Str(claim_id.to_string())])
            {
                Ok((value, moved)) => {
                    let alias = value
                        .as_str()
                        .ok_or(ParcError::Skeleton {
                            detail: "claim grant returned a non-string alias".into(),
                        })?
                        .to_string();
                    if let Some(new_uri) = moved {
                        // The object migrated; its gate (and our alias)
                        // now live at the destination.
                        let relocated: parc_remoting::ObjectUri = new_uri.parse()?;
                        authority = relocated.authority().to_string();
                    }
                    let alias_uri =
                        parc_remoting::ObjectUri::new(parsed.scheme(), &authority, &alias)?;
                    let chan = self.network().open(&alias_uri)?;
                    return Ok(ClaimHandle {
                        uri: uri.to_string(),
                        alias: RemoteObject::new(chan, alias),
                    });
                }
                Err((e, _reclaimed)) => {
                    if !e.is_retryable() {
                        return Err(e.into());
                    }
                    last_err = e.into();
                }
            }
        }
        Err(last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parc_remoting::dispatcher::FnInvokable;
    use std::sync::Arc;

    fn counter_runtime(nodes: usize) -> ParcRuntime {
        let rt = ParcRuntime::builder().nodes(nodes).build().unwrap();
        rt.register_class("Cell", || {
            let v = parc_sync::Mutex::new(0i64);
            Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
                "add" => {
                    let mut v = v.lock();
                    *v += args.first().and_then(Value::as_i64).unwrap_or(0);
                    Ok(Value::I64(*v))
                }
                "get" => Ok(Value::I64(*v.lock())),
                _ => Err(RemotingError::MethodNotFound {
                    object: "Cell".into(),
                    method: method.into(),
                }),
            }))
        });
        rt
    }

    #[test]
    fn reserve_claims_in_canonical_order_and_serves_calls() {
        let rt = counter_runtime(2);
        let a = rt.create_on("Cell", 0).unwrap();
        let b = rt.create_on("Cell", 1).unwrap();
        let (ua, ub) = (a.uri().unwrap(), b.uri().unwrap());
        // Pass the URIs in reverse: reserve must canonicalize.
        let res = rt.reserve(&[&ub, &ua, &ub]).unwrap();
        let mut sorted = [ua.clone(), ub.clone()];
        sorted.sort();
        assert_eq!(res.uris(), sorted.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(res.call(&ua, "add", vec![Value::I64(5)]).unwrap(), Value::I64(5));
        assert_eq!(res.call(&ub, "add", vec![Value::I64(7)]).unwrap(), Value::I64(7));
        res.release().unwrap();
        // Released: ordinary proxies reach the objects again.
        assert_eq!(a.call("get", vec![]).unwrap(), Value::I64(5));
    }

    #[test]
    fn foreign_uri_is_rejected() {
        let rt = counter_runtime(1);
        let a = rt.create_on("Cell", 0).unwrap();
        let ua = a.uri().unwrap();
        let res = rt.reserve(&[&ua]).unwrap();
        assert!(res.call("inproc://node0/nope", "get", vec![]).is_err());
    }

    #[test]
    fn drop_releases_claims() {
        let rt = counter_runtime(1);
        let a = rt.create_on("Cell", 0).unwrap();
        let ua = a.uri().unwrap();
        drop(rt.reserve(&[&ua]).unwrap());
        // If the drop leaked the claim this direct call would park until
        // the (1 s default) lease lapsed; a released object answers
        // immediately.
        assert_eq!(a.call("get", vec![]).unwrap(), Value::I64(0));
    }

    #[test]
    fn atomically_runs_the_closure_under_claims() {
        let rt = counter_runtime(2);
        let a = rt.create_on("Cell", 0).unwrap();
        let b = rt.create_on("Cell", 1).unwrap();
        let (ua, ub) = (a.uri().unwrap(), b.uri().unwrap());
        let moved = rt
            .atomically(&[&ua, &ub], |res| {
                res.call(&ua, "add", vec![Value::I64(-3)])?;
                res.call(&ub, "add", vec![Value::I64(3)])?;
                Ok(3)
            })
            .unwrap();
        assert_eq!(moved, 3);
        assert_eq!(a.call("get", vec![]).unwrap(), Value::I64(-3));
        assert_eq!(b.call("get", vec![]).unwrap(), Value::I64(3));
    }
}
