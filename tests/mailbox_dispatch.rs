//! Stress and property tests for per-object mailbox dispatch (the
//! work-stealing executor behind the TCP server and inproc endpoints):
//!
//! * per-object FIFO holds under K client threads × M objects sharing one
//!   pipelined connection (generated with testkit tapes);
//! * calls to distinct objects overlap in time while calls to one object
//!   never do;
//! * a stalled object blocks neither other objects nor the reader thread;
//! * the scheduler's observability signals (`dispatch.mailbox_wait`,
//!   `dispatch.steal`) actually fire under load — the smoke check
//!   `scripts/verify.sh` gates on.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parc_sync::Mutex;
use parc_testkit::Config;

use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::tcp::{TcpClientChannel, TcpServerChannel};
use parc::remoting::{ClientChannel, MailboxScheduler, RemoteObject, RemotingError};
use parc::serial::Value;

/// Registers an object that logs `record(client, seq)` posts and answers
/// `count` with how many it has seen.
fn register_recorder(server: &TcpServerChannel, name: &str) -> Arc<Mutex<Vec<(i64, i64)>>> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    let object = name.to_string();
    server.objects().register_singleton(
        name,
        Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
            "record" => {
                let client = args[0].as_i64().unwrap_or(-1);
                let seq = args[1].as_i64().unwrap_or(-1);
                sink.lock().push((client, seq));
                Ok(Value::Null)
            }
            "count" => Ok(Value::I64(sink.lock().len() as i64)),
            _ => Err(RemotingError::MethodNotFound {
                object: object.clone(),
                method: method.into(),
            }),
        })),
    );
    log
}

/// Under K posting clients × M objects multiplexed over one connection,
/// every client's posts to any given object are dispatched in that
/// client's program order (the per-object FIFO guarantee), even though
/// the executing workers steal freely across objects.
#[test]
fn per_object_fifo_holds_under_concurrent_clients() {
    Config::cases(8).check(
        |src| {
            let objects = src.usize_in(2..5);
            let clients = src.usize_in(2..5);
            let tapes: Vec<Vec<usize>> = (0..clients)
                .map(|_| src.vec_of(5..25, |s| s.usize_in(0..objects)))
                .collect();
            (objects, tapes)
        },
        |(objects, tapes)| {
            let server =
                TcpServerChannel::bind_with_workers("127.0.0.1:0", 4).unwrap();
            let names: Vec<String> = (0..*objects).map(|o| format!("Obj{o}")).collect();
            let logs: Vec<_> =
                names.iter().map(|n| register_recorder(&server, n)).collect();
            let addr = server.local_addr().to_string();
            let chan: Arc<dyn ClientChannel> =
                Arc::new(TcpClientChannel::connect_pooled(&addr, 1).unwrap());

            std::thread::scope(|scope| {
                for (client, tape) in tapes.iter().enumerate() {
                    let chan = Arc::clone(&chan);
                    let names = &names;
                    scope.spawn(move || {
                        for (seq, &obj) in tape.iter().enumerate() {
                            RemoteObject::new(Arc::clone(&chan), names[obj].clone())
                                .post(
                                    "record",
                                    vec![
                                        Value::I64(client as i64),
                                        Value::I64(seq as i64),
                                    ],
                                )
                                .unwrap();
                        }
                    });
                }
            });

            // A two-way call rides the same mailbox as the posts, so by the
            // time `count` answers, every `record` enqueued before it on
            // that object has executed.
            let mut expected: Vec<usize> = vec![0; *objects];
            for tape in tapes {
                for &obj in tape {
                    expected[obj] += 1;
                }
            }
            for (obj, name) in names.iter().enumerate() {
                let remote = RemoteObject::new(Arc::clone(&chan), name.clone());
                let got = remote.call("count", vec![]).unwrap();
                assert_eq!(got, Value::I64(expected[obj] as i64), "object {name}");
            }

            for (name, log) in names.iter().zip(&logs) {
                let log = log.lock();
                for client in 0..tapes.len() as i64 {
                    let seqs: Vec<i64> = log
                        .iter()
                        .filter(|(c, _)| *c == client)
                        .map(|(_, s)| *s)
                        .collect();
                    assert!(
                        seqs.windows(2).all(|w| w[0] < w[1]),
                        "client {client} posts to {name} ran out of order: {seqs:?}"
                    );
                }
            }
        },
    );
}

/// Builds a `nap` object that sleeps while asserting no second call to
/// itself overlaps, and bumps a global concurrency high-water mark.
fn register_sleepy(
    server: &TcpServerChannel,
    name: &str,
    nap: Duration,
    global_in_flight: Arc<AtomicUsize>,
    high_water: Arc<AtomicUsize>,
) {
    let object = name.to_string();
    let my_in_flight = AtomicUsize::new(0);
    server.objects().register_singleton(
        name,
        Arc::new(FnInvokable(move |method: &str, _args: &[Value]| match method {
            "nap" => {
                let mine = my_in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                assert_eq!(mine, 1, "two calls overlapped on one object");
                let concurrent = global_in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(concurrent, Ordering::SeqCst);
                std::thread::sleep(nap);
                global_in_flight.fetch_sub(1, Ordering::SeqCst);
                my_in_flight.fetch_sub(1, Ordering::SeqCst);
                Ok(Value::Null)
            }
            _ => Err(RemotingError::MethodNotFound {
                object: object.clone(),
                method: method.into(),
            }),
        })),
    );
}

/// Four objects × one pipelined connection: the four sleeps overlap
/// (wall clock well under the serial sum) while each object still runs
/// its own calls strictly one at a time.
#[test]
fn distinct_objects_overlap_but_each_is_serial() {
    let server = TcpServerChannel::bind_with_workers("127.0.0.1:0", 4).unwrap();
    let nap = Duration::from_millis(100);
    let global_in_flight = Arc::new(AtomicUsize::new(0));
    let high_water = Arc::new(AtomicUsize::new(0));
    let names: Vec<String> = (0..4).map(|i| format!("Sleepy{i}")).collect();
    for name in &names {
        register_sleepy(
            &server,
            name,
            nap,
            Arc::clone(&global_in_flight),
            Arc::clone(&high_water),
        );
    }
    let addr = server.local_addr().to_string();
    let chan: Arc<dyn ClientChannel> =
        Arc::new(TcpClientChannel::connect_pooled(&addr, 1).unwrap());

    let start = Instant::now();
    std::thread::scope(|scope| {
        for name in &names {
            let chan = Arc::clone(&chan);
            scope.spawn(move || {
                // Two serial rounds per object: per-object order is also
                // exercised, not just cross-object overlap.
                let remote = RemoteObject::new(chan, name.clone());
                remote.call("nap", vec![]).unwrap();
                remote.call("nap", vec![]).unwrap();
            });
        }
    });
    let elapsed = start.elapsed();
    // 8 naps of 100ms: fully serial is 800ms, perfectly parallel is
    // 200ms. Anything under 600ms proves real cross-object overlap.
    assert!(elapsed < Duration::from_millis(600), "no overlap: {elapsed:?}");
    assert!(
        high_water.load(Ordering::SeqCst) >= 2,
        "never saw two objects in flight at once"
    );
}

/// A method stuck inside one object's mailbox must not stall other
/// objects (their calls keep completing) nor the reader thread (posts
/// queued behind the stall are all accepted and run after release, in
/// order).
#[test]
fn stalled_object_blocks_neither_reader_nor_other_objects() {
    let server = TcpServerChannel::bind_with_workers("127.0.0.1:0", 2).unwrap();

    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let stuck_log = Arc::new(Mutex::new(Vec::<i64>::new()));
    let stuck_sink = Arc::clone(&stuck_log);
    server.objects().register_singleton(
        "Stuck",
        Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
            "block" => {
                let _ = gate_rx.lock().recv_timeout(Duration::from_secs(10));
                Ok(Value::Null)
            }
            "mark" => {
                stuck_sink.lock().push(args[0].as_i64().unwrap_or(-1));
                Ok(Value::Null)
            }
            _ => Err(RemotingError::MethodNotFound {
                object: "Stuck".into(),
                method: method.into(),
            }),
        })),
    );
    let live_hits = Arc::new(AtomicI64::new(0));
    let live_sink = Arc::clone(&live_hits);
    server.objects().register_singleton(
        "Live",
        Arc::new(FnInvokable(move |method: &str, _args: &[Value]| match method {
            "ping" => Ok(Value::I64(live_sink.fetch_add(1, Ordering::SeqCst) + 1)),
            _ => Err(RemotingError::MethodNotFound {
                object: "Live".into(),
                method: method.into(),
            }),
        })),
    );

    let addr = server.local_addr().to_string();
    let chan: Arc<dyn ClientChannel> =
        Arc::new(TcpClientChannel::connect_pooled(&addr, 1).unwrap());
    let stuck = RemoteObject::new(Arc::clone(&chan), "Stuck");
    let live = RemoteObject::new(Arc::clone(&chan), "Live");

    stuck.post("block", vec![]).unwrap();
    for i in 0..20 {
        stuck.post("mark", vec![Value::I64(i)]).unwrap();
    }

    // All Live traffic flows over the SAME connection the stalled posts
    // used; a blocked reader or a head-of-line-blocked dispatcher would
    // hang these calls.
    let start = Instant::now();
    for i in 1..=10 {
        assert_eq!(live.call("ping", vec![]).unwrap(), Value::I64(i));
    }
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "Live calls stalled behind the Stuck mailbox"
    );

    // The backlog is visible as backpressure while the stall holds.
    let depth = server.dispatch_depth().expect("mailbox mode exposes depth");
    assert!(
        depth.object_depth("Stuck") >= 1,
        "expected a visible backlog on the stalled object"
    );
    assert!(stuck_log.lock().is_empty(), "marks ran past the stalled call");

    gate_tx.send(()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if stuck_log.lock().len() == 20 {
            break;
        }
        assert!(Instant::now() < deadline, "queued marks never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    let marks = stuck_log.lock().clone();
    assert_eq!(marks, (0..20).collect::<Vec<i64>>(), "release must preserve FIFO");
}

/// Under load with one worker pinned, the scheduler records mailbox-wait
/// samples and steal events into `parc-obs` — the signal the verify
/// script's observability gate checks for.
#[test]
fn obs_records_mailbox_wait_and_steals_under_load() {
    let _guard = parc::obs::test_lock();
    parc::obs::set_enabled(true);
    parc::obs::reset();

    let sched = MailboxScheduler::with_workers(2);
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    // Pin one of the two workers inside a long-running job...
    sched.enqueue("anchor", move || {
        let _ = gate_rx.recv_timeout(Duration::from_secs(10));
    });
    // ...then spread work over many objects; whichever run queue the
    // pinned worker owns, the free worker must steal its share.
    for i in 0..50 {
        sched.enqueue(&format!("obj-{i}"), || {
            std::thread::sleep(Duration::from_micros(200));
        });
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while sched.stats().pending > 1 {
        assert!(Instant::now() < deadline, "load never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    gate_tx.send(()).unwrap();
    let stats = sched.stats();
    drop(sched);

    assert!(stats.executed >= 50, "executed only {}", stats.executed);
    assert!(stats.stolen > 0, "free worker never stole from the pinned one");
    assert!(
        parc::obs::histogram(parc::obs::kinds::MAILBOX_WAIT).count() > 0,
        "no dispatch.mailbox_wait samples recorded"
    );
    assert!(
        parc::obs::counter(parc::obs::kinds::MAILBOX_STEAL).get() > 0,
        "no dispatch.steal events recorded"
    );

    parc::obs::set_enabled(false);
    parc::obs::reset();
}

/// One-way posts and two-way calls from one connection to one object
/// interleave in program order: the call observes every earlier post.
#[test]
fn oneway_then_call_interleave_in_program_order() {
    let server = TcpServerChannel::bind("127.0.0.1:0").unwrap();
    register_recorder(&server, "Tally");
    let addr = server.local_addr().to_string();
    let chan: Arc<dyn ClientChannel> =
        Arc::new(TcpClientChannel::connect_pooled(&addr, 1).unwrap());
    let remote = RemoteObject::new(chan, "Tally");
    for round in 1..=10i64 {
        remote.post("record", vec![Value::I64(0), Value::I64(round)]).unwrap();
        assert_eq!(
            remote.call("count", vec![]).unwrap(),
            Value::I64(round),
            "two-way call overtook an earlier one-way post"
        );
    }
}
