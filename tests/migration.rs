//! Live-migration integration tests: state carried across the move,
//! per-object FIFO preserved for concurrent clients, stale proxies
//! repointed by the `Moved` reply marker, clean aborts, the rebalancer's
//! migration rounds — plus remoting-level forwarder conformance over the
//! inproc and TCP transports.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parc::remoting::channel::RemoteObject;
use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::inproc::InprocNetwork;
use parc::remoting::tcp::{TcpClientChannel, TcpServerChannel};
use parc::remoting::{ChannelProvider, Forwarder, Invokable, RemotingError};
use parc::scoopp::{ParcRuntime, RebalanceConfig};
use parc::serial::Value;

/// A log object whose state survives migration: `__snapshot` exports the
/// note list, `__restore` imports it.
fn register_journal(rt: &ParcRuntime) {
    rt.register_class("Journal", || {
        let notes: Mutex<Vec<i64>> = Mutex::new(Vec::new());
        Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
            "note" => {
                let v = args.first().and_then(Value::as_i64).unwrap_or(i64::MIN);
                notes.lock().unwrap().push(v);
                Ok(Value::Null)
            }
            "dump" | "__snapshot" => Ok(Value::List(
                notes.lock().unwrap().iter().map(|&v| Value::I64(v)).collect(),
            )),
            "__restore" => {
                let list = args
                    .first()
                    .and_then(Value::as_list)
                    .map(|items| items.iter().filter_map(Value::as_i64).collect())
                    .unwrap_or_default();
                *notes.lock().unwrap() = list;
                Ok(Value::Null)
            }
            _ => Err(RemotingError::MethodNotFound {
                object: "Journal".into(),
                method: method.into(),
            }),
        }))
    });
}

fn dumped(po: &parc::scoopp::Po) -> Vec<i64> {
    po.call("dump", vec![])
        .unwrap()
        .as_list()
        .unwrap()
        .iter()
        .filter_map(Value::as_i64)
        .collect()
}

#[test]
fn stateful_object_migrates_with_its_journal() {
    let rt = ParcRuntime::builder().nodes(2).build().unwrap();
    register_journal(&rt);
    let journal = rt.create_on("Journal", 0).unwrap();
    for i in 0..5 {
        journal.call("note", vec![Value::I64(i)]).unwrap();
    }
    let new_uri = rt.migrate(&journal, 1).unwrap();
    assert_eq!(journal.node(), Some(1));
    assert_eq!(dumped(&journal), vec![0, 1, 2, 3, 4], "state crossed the move");
    // The directory index followed.
    assert_eq!(rt.directory().location(&new_uri), Some(1));
    assert_eq!(rt.node_loads(), vec![0, 1]);
}

#[test]
fn stateless_class_migrates_but_resets() {
    // A class with no `__snapshot` migrates stateless — the documented
    // contract: the destination starts from the constructor.
    let rt = ParcRuntime::builder().nodes(2).build().unwrap();
    rt.register_class("Blank", || {
        let hits = std::sync::atomic::AtomicI64::new(0);
        Arc::new(FnInvokable(move |method: &str, _args: &[Value]| match method {
            "bump" => {
                hits.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Null)
            }
            "total" => Ok(Value::I64(hits.load(Ordering::SeqCst))),
            "__restore" => Ok(Value::Null),
            _ => Err(RemotingError::MethodNotFound {
                object: "Blank".into(),
                method: method.into(),
            }),
        }))
    });
    let po = rt.create_on("Blank", 0).unwrap();
    po.call("bump", vec![]).unwrap();
    rt.migrate(&po, 1).unwrap();
    assert_eq!(po.node(), Some(1));
    assert_eq!(po.call("total", vec![]).unwrap(), Value::I64(0), "stateless reset");
}

/// The headline ordering guarantee: K clients hammer one object through
/// their own proxies while the object is live-migrated mid-run. Every
/// note must arrive exactly once and each client's subsequence must stay
/// in program order — before, during, and after the move.
#[test]
fn per_client_fifo_survives_a_mid_run_migration() {
    const CLIENTS: i64 = 4;
    const NOTES: i64 = 200;
    let rt = Arc::new(ParcRuntime::builder().nodes(2).build().unwrap());
    register_journal(&rt);
    let journal = rt.create_on("Journal", 0).unwrap();
    let uri = journal.uri().unwrap();

    let started = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let rt = Arc::clone(&rt);
        let uri = uri.clone();
        let started = Arc::clone(&started);
        clients.push(std::thread::spawn(move || {
            let proxy = rt.proxy_from_uri(&uri).unwrap();
            while !started.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            for i in 0..NOTES {
                // Tag: client in the high digits, sequence in the low.
                proxy.call("note", vec![Value::I64(c * 1_000_000 + i)]).unwrap();
            }
        }));
    }
    started.store(true, Ordering::Relaxed);
    // Let traffic build, then move the object under it.
    std::thread::sleep(Duration::from_millis(5));
    rt.migrate(&journal, 1).unwrap();
    for client in clients {
        client.join().unwrap();
    }

    let notes = dumped(&journal);
    assert_eq!(notes.len(), (CLIENTS * NOTES) as usize, "no note lost or duplicated");
    let mut next = vec![0i64; CLIENTS as usize];
    for note in notes {
        let (client, seq) = (note / 1_000_000, note % 1_000_000);
        assert_eq!(
            seq, next[client as usize],
            "client {client} observed out of program order"
        );
        next[client as usize] += 1;
    }
    assert!(next.iter().all(|&n| n == NOTES));
}

#[test]
fn stale_proxy_follows_forwarding_and_repoints() {
    let rt = ParcRuntime::builder().nodes(2).build().unwrap();
    register_journal(&rt);
    let journal = rt.create_on("Journal", 0).unwrap();
    journal.call("note", vec![Value::I64(1)]).unwrap();
    let stale = rt.proxy_from_uri(&journal.uri().unwrap()).unwrap();
    rt.migrate(&journal, 1).unwrap();
    // First call relays through the forwarder and carries the Moved
    // marker; the proxy repoints and subsequent calls go direct.
    assert_eq!(dumped(&stale), vec![1]);
    assert_eq!(stale.node(), Some(1), "Moved reply repointed the proxy");
    stale.call("note", vec![Value::I64(2)]).unwrap();
    assert_eq!(dumped(&journal), vec![1, 2], "both proxies reach the same object");
}

#[test]
fn failed_migration_aborts_cleanly() {
    let rt = ParcRuntime::builder().nodes(3).build().unwrap();
    register_journal(&rt);
    let journal = rt.create_on("Journal", 0).unwrap();
    journal.call("note", vec![Value::I64(7)]).unwrap();
    rt.kill_node(2);
    assert!(rt.migrate(&journal, 2).is_err(), "dead destination rejected");
    assert_eq!(journal.node(), Some(0), "object untouched at the source");
    assert_eq!(dumped(&journal), vec![7]);
    assert_eq!(rt.node_loads()[0], 1);
}

#[test]
fn rebalancer_drains_a_hot_node_with_hysteresis_and_cap() {
    let rt = ParcRuntime::builder().nodes(3).build().unwrap();
    register_journal(&rt);
    let mut objects = Vec::new();
    for _ in 0..9 {
        objects.push(rt.create_on("Journal", 0).unwrap());
    }
    assert_eq!(rt.node_loads(), vec![9, 0, 0]);
    let cfg = RebalanceConfig {
        max_migrations_per_round: 3,
        ..RebalanceConfig::default()
    };
    let mut rounds = 0;
    while rt.rebalance_once(&cfg) > 0 {
        rounds += 1;
        assert!(rounds <= 10, "rebalancer failed to converge");
    }
    let loads = rt.node_loads();
    let max = *loads.iter().max().unwrap();
    let mean = loads.iter().sum::<i64>() as f64 / loads.len() as f64;
    assert!(
        (max as f64) <= cfg.high_ratio * mean,
        "still skewed after convergence: {loads:?}"
    );
    // Every proxy still answers, directly or through a forwarder.
    for po in &objects {
        po.call("note", vec![Value::I64(1)]).unwrap();
    }
    // Balance holds: another round does nothing.
    assert_eq!(rt.rebalance_once(&cfg), 0);
}

#[test]
fn rebalancer_thread_drains_a_skewed_node_end_to_end() {
    let rt = Arc::new(ParcRuntime::builder().nodes(3).build().unwrap());
    register_journal(&rt);
    // Skew deliberately despite round-robin placement (explicit create_on).
    for _ in 0..9 {
        rt.create_on("Journal", 0).unwrap();
    }
    let handle = rt.start_rebalancer(RebalanceConfig {
        interval: Duration::from_millis(5),
        max_migrations_per_round: 2,
        ..RebalanceConfig::default()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.node_loads()[0] > 5 {
        assert!(Instant::now() < deadline, "rebalancer never drained the hot node");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.stop();
    // Placement keeps working after the migrations.
    assert!(rt.create("Journal").is_ok());
}

#[test]
fn failed_over_objects_are_indexed_where_they_live() {
    let rt = ParcRuntime::builder().nodes(3).build().unwrap();
    register_journal(&rt);
    let objects: Vec<_> = (0..6).map(|_| rt.create_on("Journal", 0).unwrap()).collect();
    assert!(rt.kill_node(0));
    for po in &objects {
        po.call("note", vec![Value::I64(1)]).unwrap();
        assert_eq!(po.node(), Some(1), "failover walks to the next survivor");
    }
    // The dead home's entries are gone and each replacement is indexed
    // where it lives, so the rebalancer sees node 1's skew.
    assert!(rt.directory().objects_on(0).is_empty());
    assert_eq!(rt.directory().objects_on(1).len(), 6);
    assert!(rt.rebalance_once(&RebalanceConfig::default()) >= 1);
    for po in &objects {
        po.call("note", vec![Value::I64(2)]).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Remoting-level forwarder conformance: inproc and TCP transports
// ---------------------------------------------------------------------------

/// A recorder object for the transport-level checks.
fn recorder() -> (Arc<dyn Invokable>, Arc<Mutex<Vec<i32>>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    let object = Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
        "note" => {
            let v = args.first().and_then(Value::as_i32).unwrap_or(i32::MIN);
            sink.lock().unwrap().push(v);
            Ok(Value::I32(v))
        }
        _ => Err(RemotingError::MethodNotFound {
            object: "Recorder".into(),
            method: method.into(),
        }),
    }));
    (object, log)
}

/// Installs a forwarder at `old` relaying to the real object behind
/// `target`, then checks through `client`: values come back correct and
/// in FIFO order, and every reply carries the Moved marker with the new
/// URI.
fn check_forwarder_contract(
    label: &str,
    client: &RemoteObject,
    log: &Arc<Mutex<Vec<i32>>>,
    new_uri: &str,
) {
    for i in 0..20 {
        let (value, moved) = client
            .call_reclaim_located("note", vec![Value::I32(i)])
            .unwrap_or_else(|(e, _)| panic!("{label}: forwarded call failed: {e:?}"));
        assert_eq!(value, Value::I32(i), "{label}");
        assert_eq!(
            moved.as_deref(),
            Some(new_uri),
            "{label}: forwarded replies must carry the Moved marker"
        );
    }
    assert_eq!(
        *log.lock().unwrap(),
        (0..20).collect::<Vec<i32>>(),
        "{label}: forwarding must preserve FIFO order"
    );
}

#[test]
fn forwarder_conformance_over_inproc() {
    let net = InprocNetwork::new();
    let a = net.create_endpoint("a").unwrap();
    let b = net.create_endpoint("b").unwrap();
    let (object, log) = recorder();
    b.objects().register_singleton("real", object);
    let new_uri = "inproc://b/real";
    let chan_b = net.open(&new_uri.parse().unwrap()).unwrap();
    a.objects().register_singleton(
        "old",
        Arc::new(Forwarder::new(RemoteObject::new(chan_b, "real"), new_uri)),
    );
    let chan_a = net.open(&"inproc://a/old".parse().unwrap()).unwrap();
    let client = RemoteObject::new(chan_a, "old");
    check_forwarder_contract("inproc", &client, &log, new_uri);
}

#[test]
fn forwarder_conformance_over_tcp() {
    // Old home and new home are two TCP servers; the forwarder at the
    // old home relays over a real socket.
    let new_home = TcpServerChannel::bind_with_workers("127.0.0.1:0", 2).unwrap();
    let (object, log) = recorder();
    new_home.objects().register_singleton("real", object);
    let new_uri = format!("tcp://{}/real", new_home.local_addr());
    let relay =
        Arc::new(TcpClientChannel::connect_pooled(&new_home.local_addr().to_string(), 1).unwrap());
    let old_home = TcpServerChannel::bind_with_workers("127.0.0.1:0", 2).unwrap();
    old_home.objects().register_singleton(
        "old",
        Arc::new(Forwarder::new(RemoteObject::new(relay, "real"), new_uri.clone())),
    );
    let chan =
        Arc::new(TcpClientChannel::connect_pooled(&old_home.local_addr().to_string(), 1).unwrap());
    let client = RemoteObject::new(chan, "old");
    check_forwarder_contract("tcp", &client, &log, &new_uri);
}
