//! Multi-object reservation integration suite: deadlock freedom under
//! adversarial acquisition orders, conservation invariants under seeded
//! chaos, deterministic same-seed trace replay, lease-based recovery
//! when holders die, migration interaction (completed-then-forwarded,
//! never split), and the dropped-guard-during-failover regression.
//!
//! Chaos tests build their [`FaultPlan`]s explicitly (one per client)
//! instead of mutating `PARC_CHAOS`: the test runner is threaded and the
//! process environment is shared. Per-client plans also make the traces
//! deterministic regardless of thread interleaving — each client's fault
//! schedule depends only on its own message count. `scripts/verify.sh`
//! gate 11 exercises the env-var path end to end.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc::remoting::channel::{ChannelProvider, RemoteObject};
use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::inproc::InprocNetwork;
use parc::remoting::{
    ChaosChannel, ClaimTable, FaultPlan, FaultSpec, Invokable, RemotingError,
    CLAIM_METHOD, RELEASE_METHOD,
};
use parc::scoopp::{ParcRuntime, Po};
use parc::serial::Value;
use parc_testkit::Config;

/// A registered "Cell" class: an i64 the holder can `add` to and `get`.
fn cell_runtime(nodes: usize, claim_ttl: Duration) -> ParcRuntime {
    let rt = ParcRuntime::builder()
        .nodes(nodes)
        .claim_lease_ttl(claim_ttl)
        .build()
        .expect("booting runtime");
    rt.register_class("Cell", || {
        let v = parc_sync::Mutex::new(0i64);
        Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
            "add" => {
                let mut v = v.lock();
                *v += args.first().and_then(Value::as_i64).unwrap_or(0);
                Ok(Value::I64(*v))
            }
            "get" => Ok(Value::I64(*v.lock())),
            // State capture, so migration carries the count instead of
            // resetting it (see `tests/migration.rs` for the contract).
            "__snapshot" => Ok(Value::I64(*v.lock())),
            "__restore" => {
                *v.lock() = args.first().and_then(Value::as_i64).unwrap_or(0);
                Ok(Value::Null)
            }
            _ => Err(RemotingError::MethodNotFound {
                object: "Cell".into(),
                method: method.into(),
            }),
        }))
    });
    rt
}

// ---------------------------------------------------------------------------
// Deadlock freedom
// ---------------------------------------------------------------------------

/// K threads reserve overlapping multi-object sets in adversarial
/// (generated) orders, concurrently, for several rounds. Canonical-order
/// acquisition imposes a total order on resources, so no schedule can
/// produce a wait cycle: every run must complete inside the wall bound.
#[test]
fn overlapping_reservations_in_adversarial_orders_never_deadlock() {
    const THREADS: usize = 6;
    const OBJECTS: usize = 5;
    const ROUNDS: usize = 3;
    Config::cases(4).check(
        |src| {
            // Per thread, per round: a subset of object indices in an
            // arbitrary (possibly duplicated, unsorted) order.
            (0..THREADS)
                .map(|_| {
                    (0..ROUNDS)
                        .map(|_| src.vec_of(2..5, |s| s.usize_in(0..OBJECTS)))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        },
        |schedules| {
            let rt = cell_runtime(2, Duration::from_secs(2));
            let uris: Vec<String> = (0..OBJECTS)
                .map(|i| {
                    rt.create_on("Cell", i % 2).expect("creating cell").uri().expect("remote uri")
                })
                .collect();
            let started = Instant::now();
            std::thread::scope(|scope| {
                for rounds in schedules.iter() {
                    let rt = &rt;
                    let uris = &uris;
                    scope.spawn(move || {
                        for subset in rounds {
                            let picked: Vec<&str> =
                                subset.iter().map(|&i| uris[i].as_str()).collect();
                            let res = rt.reserve(&picked).expect("reserve must not fail");
                            for uri in res.uris() {
                                res.call(uri, "add", vec![Value::I64(1)])
                                    .expect("holder call under reservation");
                            }
                            res.release().expect("release");
                        }
                    });
                }
            });
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "reservation storm took {:?} — something serialized on a lease timeout",
                started.elapsed()
            );
        },
    );
}

// ---------------------------------------------------------------------------
// Conservation under chaos + deterministic replay
// ---------------------------------------------------------------------------

/// A bank account with idempotent ops: `apply(op_id, delta)` is deduped
/// by op id so chaos-driven retries and duplicate deliveries count once.
fn account() -> Arc<dyn Invokable> {
    let state = parc_sync::Mutex::new((0i64, HashSet::<String>::new()));
    Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
        "apply" => {
            let op =
                args.first().and_then(Value::as_str).unwrap_or_default().to_string();
            let delta = args.get(1).and_then(Value::as_i64).unwrap_or(0);
            let mut s = state.lock();
            if s.1.insert(op) {
                s.0 += delta;
            }
            Ok(Value::I64(s.0))
        }
        "get" => Ok(Value::I64(state.lock().0)),
        _ => Err(RemotingError::MethodNotFound {
            object: "Account".into(),
            method: method.into(),
        }),
    }))
}

/// Retries `f` while it fails with retryable transport errors, bounding
/// the attempts so a bug hangs the assertion, not the suite.
fn chaos_retry<T>(what: &str, mut f: impl FnMut() -> Result<T, RemotingError>) -> T {
    for _ in 0..400 {
        match f() {
            Ok(v) => return v,
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("{what}: non-retryable failure: {e}"),
        }
    }
    panic!("{what}: still failing after 400 attempts");
}

/// One full chaos scenario: K clients transfer units between M gated
/// accounts through claim/release, each behind its own seeded
/// [`ChaosChannel`] (drops, delays, one mid-run connection kill).
/// Returns each client's fault-trace string and the final balances.
fn chaos_transfer_scenario(seeds: &[u64]) -> (Vec<String>, Vec<i64>) {
    const ACCOUNTS: usize = 4;
    const TRANSFERS: usize = 12;
    let net = InprocNetwork::new();
    let ep = net.create_endpoint("bank").expect("bank endpoint");
    let claims = Arc::new(ClaimTable::with_ttl(Duration::from_secs(5)));
    let names: Vec<String> = (0..ACCOUNTS).map(|i| format!("acct{i}")).collect();
    for name in &names {
        parc::remoting::register_claimable(ep.objects(), name, account(), &claims);
    }

    let plans: Vec<Arc<FaultPlan>> = seeds
        .iter()
        .map(|&seed| {
            Arc::new(FaultPlan::new(seed, FaultSpec::parse("drop=0.12,delay=0.15:1,kill@23")))
        })
        .collect();

    std::thread::scope(|scope| {
        for (client, plan) in plans.iter().enumerate() {
            let net = net.clone();
            let names = &names;
            scope.spawn(move || {
                let uri: parc::remoting::ObjectUri =
                    "inproc://bank/acct0".parse().expect("bank uri");
                // The chaos wrapper is rebuilt after a kill (a fresh
                // connection to the same plan — the plan's message index
                // keeps advancing, so the schedule stays one stream).
                let open = || {
                    Arc::new(ChaosChannel::new(
                        net.open(&uri).expect("open bank channel"),
                        Arc::clone(plan),
                    ))
                };
                let mut chan = open();
                for k in 0..TRANSFERS {
                    let from = (client + k) % names.len();
                    let to = (client + k + 1 + k % (names.len() - 1)) % names.len();
                    if from == to {
                        continue;
                    }
                    let claim_id = format!("c{client}-{k}");
                    let mut pair = vec![names[from].clone(), names[to].clone()];
                    pair.sort();
                    // Acquire in canonical order; every step retries
                    // through chaos (claims and releases are idempotent,
                    // applies are deduped by op id).
                    let mut aliases = Vec::new();
                    for obj in &pair {
                        let alias = chaos_retry("claim", || {
                            let gate = RemoteObject::new(chan.clone(), obj.clone());
                            match gate
                                .call(CLAIM_METHOD, vec![Value::Str(claim_id.clone())])
                            {
                                Ok(v) => Ok(v.as_str().expect("alias").to_string()),
                                Err(e) => {
                                    chan = open();
                                    Err(e)
                                }
                            }
                        });
                        aliases.push(alias);
                    }
                    let amount = 1 + (k as i64 % 3);
                    for (leg, (obj, alias)) in pair.iter().zip(&aliases).enumerate() {
                        let delta = if *obj == names[from] { -amount } else { amount };
                        let op = format!("{claim_id}-leg{leg}");
                        chaos_retry("apply", || {
                            let holder = RemoteObject::new(chan.clone(), alias.clone());
                            holder
                                .call(
                                    "apply",
                                    vec![Value::Str(op.clone()), Value::I64(delta)],
                                )
                                .inspect_err(|_| chan = open())
                        });
                    }
                    for alias in aliases.iter().rev() {
                        chaos_retry("release", || {
                            let holder = RemoteObject::new(chan.clone(), alias.clone());
                            holder.call(RELEASE_METHOD, vec![]).inspect_err(|_| chan = open())
                        });
                    }
                }
            });
        }
    });

    let balances: Vec<i64> = names
        .iter()
        .map(|name| {
            let proxy = RemoteObject::new(
                net.open(&"inproc://bank/acct0".parse().expect("uri")).expect("open"),
                name.clone(),
            );
            proxy.call("get", vec![]).expect("reading balance").as_i64().expect("i64")
        })
        .collect();
    let traces = plans.iter().map(|p| p.trace_string()).collect();
    (traces, balances)
}

/// Units are conserved across every chaos schedule (drops, delays, a
/// mid-run kill per client), and the same seeds replay the identical
/// fault trace and final state.
#[test]
fn chaos_transfers_conserve_units_and_replay_identically() {
    let seeds = [0xA11CE, 0xB0B, 0xC0FFEE, 0xD00D];
    let (traces_a, balances_a) = chaos_transfer_scenario(&seeds);
    assert_eq!(
        balances_a.iter().sum::<i64>(),
        0,
        "transfers created or destroyed units: {balances_a:?}"
    );
    assert!(
        traces_a.iter().any(|t| t.contains("kill")),
        "the chaos schedule never killed a connection — spec regressed: {traces_a:?}"
    );
    let (traces_b, balances_b) = chaos_transfer_scenario(&seeds);
    assert_eq!(traces_a, traces_b, "same seeds must replay the identical fault trace");
    assert_eq!(balances_a, balances_b, "same seeds must replay the identical final state");
}

// ---------------------------------------------------------------------------
// Lease-based recovery
// ---------------------------------------------------------------------------

/// A holder that vanishes without releasing (leaked guard — the crash
/// stand-in) stops renewing; the lease lapses and a parked foreign call
/// proceeds. The mailbox slot is never wedged.
#[test]
fn leaked_reservation_is_reclaimed_at_lease_expiry() {
    let ttl = Duration::from_millis(150);
    let rt = cell_runtime(1, ttl);
    let po = rt.create_on("Cell", 0).expect("cell");
    let uri = po.uri().expect("uri");
    let res = rt.reserve(&[&uri]).expect("reserve");
    res.call(&uri, "add", vec![Value::I64(7)]).expect("holder call");
    // The crash: the guard is never dropped, no release is ever sent.
    std::mem::forget(res);
    let started = Instant::now();
    let seen = po.call("get", vec![]).expect("foreign call after lease expiry");
    assert_eq!(seen, Value::I64(7));
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(40),
        "foreign call ran in {waited:?} — it never parked behind the claim"
    );
    assert!(
        waited < Duration::from_secs(5),
        "reclaim took {waited:?} — lease expiry did not free the slot"
    );
    // The slot is genuinely free: a fresh reservation is granted.
    rt.reserve(&[&uri]).expect("re-reserve after reclaim").release().expect("release");
}

/// No claim outlives its lease: a holder that stalls past the TTL is
/// fenced — its next call fails with `LeaseExpired` instead of touching
/// an object someone else may now hold.
#[test]
fn stalled_holder_is_fenced_after_ttl() {
    let rt = cell_runtime(1, Duration::from_millis(120));
    let po = rt.create_on("Cell", 0).expect("cell");
    let uri = po.uri().expect("uri");
    let res = rt.reserve(&[&uri]).expect("reserve");
    std::thread::sleep(Duration::from_millis(400));
    match res.call(&uri, "add", vec![Value::I64(1)]) {
        Err(parc::scoopp::ParcError::Remoting(RemotingError::LeaseExpired { .. }))
        | Err(parc::scoopp::ParcError::Remoting(RemotingError::ServerFault { .. })) => {}
        other => panic!("stalled holder's call must be fenced, got {other:?}"),
    }
    assert_eq!(po.call("get", vec![]).expect("object reclaimed"), Value::I64(0));
}

// ---------------------------------------------------------------------------
// Migration interaction
// ---------------------------------------------------------------------------

/// `__migrate` on a claimed object parks behind the reservation like any
/// foreign call: the move happens after release, never splitting the
/// compound operation across two homes.
#[test]
fn migration_waits_for_release_and_never_splits_a_reservation() {
    let rt = Arc::new(cell_runtime(2, Duration::from_secs(3)));
    let po = rt.create_on("Cell", 0).expect("cell");
    let uri = po.uri().expect("uri");
    let res = rt.reserve(&[&uri]).expect("reserve");
    res.call(&uri, "add", vec![Value::I64(1)]).expect("first leg");

    let migrated = Arc::new(AtomicUsize::new(0));
    let mover = std::thread::spawn({
        let rt = Arc::clone(&rt);
        let uri = uri.clone();
        let migrated = Arc::clone(&migrated);
        move || {
            let new_uri = rt.migrate_uri(&uri, 1).expect("migration after release");
            migrated.store(1, Ordering::SeqCst);
            new_uri
        }
    });
    // The move is parked: the holder finishes its compound op unsplit.
    std::thread::sleep(Duration::from_millis(80));
    assert_eq!(migrated.load(Ordering::SeqCst), 0, "migration ran under the claim");
    res.call(&uri, "add", vec![Value::I64(1)]).expect("second leg, same home");
    res.release().expect("release");

    let new_uri = mover.join().expect("mover thread");
    assert!(new_uri.contains("node1"), "object did not move: {new_uri}");
    let moved = rt.proxy_from_uri(&new_uri).expect("proxy at new home");
    assert_eq!(moved.call("get", vec![]).expect("call at new home"), Value::I64(2));
}

/// A claim addressed to an object's *old* home after migration follows
/// the forwarder: the grant is issued by the destination gate and the
/// alias lives there — the reservation works through the moved address.
#[test]
fn claims_follow_forwarders_to_the_new_home() {
    let rt = cell_runtime(2, Duration::from_secs(3));
    let po = rt.create_on("Cell", 0).expect("cell");
    let old_uri = po.uri().expect("uri");
    po.call("add", vec![Value::I64(5)]).expect("seed state");
    rt.migrate_uri(&old_uri, 1).expect("migration");

    let res = rt.reserve(&[&old_uri]).expect("reserve through forwarder");
    assert_eq!(
        res.call(&old_uri, "get", vec![]).expect("holder call at new home"),
        Value::I64(5),
        "claim did not reach the migrated state"
    );
    res.release().expect("release");
}

// ---------------------------------------------------------------------------
// Regression: dropped guard during failover
// ---------------------------------------------------------------------------

/// A `Reservation` dropped while its node is mid-failover must not hang
/// (the release fails fast on the stopped endpoint) and must not wedge
/// anything: after the lease would have lapsed, the proxy serves new
/// calls via failover re-creation, and surviving objects released
/// normally.
#[test]
fn dropped_guard_on_a_killed_node_does_not_wedge() {
    let ttl = Duration::from_millis(150);
    let rt = cell_runtime(2, ttl);
    let on_dead = rt.create_on("Cell", 0).expect("cell on node0");
    let on_live = rt.create_on("Cell", 1).expect("cell on node1");
    let (dead_uri, live_uri) = (on_dead.uri().expect("uri"), on_live.uri().expect("uri"));

    let res = rt.reserve(&[&dead_uri, &live_uri]).expect("reserve across nodes");
    res.call(&dead_uri, "add", vec![Value::I64(1)]).expect("call before the kill");
    assert!(rt.kill_node(0), "node0 must die");

    let started = Instant::now();
    drop(res);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "dropping the guard hung for {:?} against the dead node",
        started.elapsed()
    );

    // The survivor's claim was released by the drop: served immediately.
    assert_eq!(on_live.call("get", vec![]).expect("live object serves"), Value::I64(0));
    // Past the lease horizon, the dead object's proxy serves new calls
    // again — failed over to a survivor (fresh state, by contract).
    std::thread::sleep(ttl + Duration::from_millis(50));
    assert_eq!(
        on_dead.call("get", vec![]).expect("failover re-creation"),
        Value::I64(0),
        "failed-over replacement starts from the class constructor"
    );
    // And the failed-over object is claimable like any other.
    let uri2 = on_dead.uri().expect("post-failover uri");
    rt.reserve(&[&uri2]).expect("reserve after failover").release().expect("release");
}

/// Telemetry plumbing rides along: claim grants and lease-expiry aborts
/// surface in the 25-field node snapshot (`claims_acquired`,
/// `claims_aborted`) that `parc-top` renders.
#[test]
fn claim_counters_surface_in_node_telemetry() {
    let rt = cell_runtime(1, Duration::from_millis(120));
    let po = rt.create_on("Cell", 0).expect("cell");
    let uri = po.uri().expect("uri");
    rt.reserve(&[&uri]).expect("reserve").release().expect("release");
    // One leaked claim, reclaimed by expiry → claims_aborted.
    std::mem::forget(rt.reserve(&[&uri]).expect("reserve to leak"));
    let _ = po.call("get", vec![]).expect("parked foreign call reclaims");

    let telemetry = rt.telemetry();
    let row = telemetry.poll_node(0).expect("node telemetry");
    assert!(
        row.claims_acquired >= 2,
        "claims_acquired must count both grants, got {}",
        row.claims_acquired
    );
    assert!(
        row.claims_aborted >= 1,
        "claims_aborted must count the lease-expiry reclaim, got {}",
        row.claims_aborted
    );
}

// Keep `Po` in the public-API surface this suite compiles against: the
// reservation flow is meant to compose with ordinary proxies.
#[allow(dead_code)]
fn _po_is_compatible(po: &Po) -> Option<String> {
    po.uri()
}
