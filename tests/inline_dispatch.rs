//! Inline runs: an in-process two-way call to an idle object whose calls
//! are known to be short runs on the caller's thread (the scheduler lends
//! the caller the object's mailbox), and everything the mailbox promises
//! still holds. Every method here records the name of the thread that
//! ran it; callers run on named threads, so "inline" is a plain string
//! comparison.

use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parc_sync::Mutex;

use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::inproc::{InprocEndpoint, InprocNetwork};
use parc::remoting::mailbox::MAX_INLINE_DEPTH;
use parc::remoting::{ChannelProvider, ObjectUri, RemoteObject, RemotingError};
use parc::serial::Value;

fn here() -> String {
    std::thread::current().name().unwrap_or("<unnamed>").to_string()
}

fn on_worker(thread: &str) -> bool {
    thread.starts_with("parc-mailbox-")
}

/// Runs `f` on a thread called `name` and returns its result.
fn on_thread<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new().name(name.to_string()).spawn(f).unwrap().join().unwrap()
}

fn proxy(net: &InprocNetwork, uri: &str) -> RemoteObject {
    let uri: ObjectUri = uri.parse().unwrap();
    RemoteObject::new(net.open(&uri).unwrap(), uri.object())
}

/// Waits until every job on `ep` has finished and its mailbox is parked.
fn settle(ep: &InprocEndpoint) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while ep.dispatch_stats().unwrap().pending != 0 {
        assert!(Instant::now() < deadline, "endpoint never went idle");
        std::thread::yield_now();
    }
}

/// An object whose every method answers with the thread that ran it.
fn register_where(ep: &InprocEndpoint, name: &str) {
    ep.objects().register_singleton(
        name,
        Arc::new(FnInvokable(|_: &str, _: &[Value]| Ok(Value::Str(here())))),
    );
}

fn thread_of(reply: Result<Value, RemotingError>) -> String {
    match reply.unwrap() {
        Value::Str(thread) => thread,
        other => panic!("expected a thread name, got {other:?}"),
    }
}

#[test]
fn a_fast_method_runs_on_the_calling_thread_after_one_warm_up() {
    let net = InprocNetwork::new();
    let ep = net.create_endpoint_with_workers("fast", 2).unwrap();
    register_where(&ep, "Where");
    let obj = proxy(&net, "inproc://fast/Where");
    let first = thread_of(obj.call("where", vec![]));
    assert!(on_worker(&first), "a first call has no estimate and must use a worker: {first}");
    settle(&ep);
    let net2 = net.clone();
    let (second, third) = on_thread("fast-caller", move || {
        let obj = proxy(&net2, "inproc://fast/Where");
        (thread_of(obj.call("where", vec![])), thread_of(obj.call("where", vec![])))
    });
    assert_eq!(second, "fast-caller");
    assert_eq!(third, "fast-caller");
}

#[test]
fn a_slow_method_never_runs_on_the_caller_and_still_times_out() {
    let net = InprocNetwork::new();
    let ep = net.create_endpoint_with_workers("slow", 2).unwrap();
    let ran_on: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&ran_on);
    ep.objects().register_singleton(
        "Slow",
        Arc::new(FnInvokable(move |_: &str, _: &[Value]| {
            log.lock().push(here());
            std::thread::sleep(Duration::from_millis(300));
            Ok(Value::Null)
        })),
    );
    let uri: ObjectUri = "inproc://slow/Slow".parse().unwrap();
    let deadline = Duration::from_millis(30);
    for _ in 0..2 {
        let chan = net.open_with_timeout(&uri, deadline).unwrap();
        let outcome =
            on_thread("slow-caller", move || RemoteObject::new(chan, "Slow").call("nap", vec![]));
        match outcome {
            Err(RemotingError::Timeout { deadline: d, .. }) => assert_eq!(d, deadline),
            other => panic!("expected a timeout, got {other:?}"),
        }
        // The first run gives the mailbox a 300 ms estimate, far over
        // deadline / 100; the second call must still go to a worker.
        settle(&ep);
    }
    let ran_on = ran_on.lock();
    assert_eq!(ran_on.len(), 2);
    assert!(ran_on.iter().all(|t| on_worker(t)), "a slow method ran on a caller: {ran_on:?}");
}

#[test]
fn a_post_queued_ahead_of_a_call_runs_first_on_a_worker() {
    let net = InprocNetwork::new();
    let ep = net.create_endpoint_with_workers("order", 2).unwrap();
    let total = Arc::new(AtomicI32::new(0));
    let add_ran_on: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let entered_tx = Mutex::new(entered_tx);
    {
        let total = Arc::clone(&total);
        let add_ran_on = Arc::clone(&add_ran_on);
        ep.objects().register_singleton(
            "Counter",
            Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
                "add" => {
                    add_ran_on.lock().push(here());
                    entered_tx.lock().send(()).unwrap();
                    gate_rx.lock().recv_timeout(Duration::from_secs(10)).expect("gate");
                    total.fetch_add(args[0].as_i32().unwrap_or(0), Ordering::SeqCst);
                    Ok(Value::Null)
                }
                _ => Ok(Value::I32(total.load(Ordering::SeqCst))),
            })),
        );
    }
    let counter = proxy(&net, "inproc://order/Counter");
    assert_eq!(counter.call("get", vec![]).unwrap(), Value::I32(0), "warm-up");
    settle(&ep);
    counter.post("add", vec![Value::I32(5)]).unwrap();
    entered_rx.recv_timeout(Duration::from_secs(5)).expect("the post never started");
    let net2 = net.clone();
    let caller = std::thread::Builder::new()
        .name("order-caller".into())
        .spawn(move || proxy(&net2, "inproc://order/Counter").call("get", vec![]))
        .unwrap();
    // The call waits behind the running post in the object's mailbox.
    let depth = ep.dispatch_depth().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while depth.object_depth("Counter") == 0 {
        assert!(Instant::now() < deadline, "the call never queued behind the post");
        std::thread::yield_now();
    }
    gate_tx.send(()).unwrap();
    assert_eq!(caller.join().unwrap().unwrap(), Value::I32(5), "the call missed the post");
    let add_ran_on = add_ran_on.lock();
    assert!(on_worker(&add_ran_on[0]), "a post ran inline: {add_ran_on:?}");
}

#[test]
fn a_six_object_chain_nests_at_most_four_inline_runs() {
    const LINKS: usize = 6;
    let net = InprocNetwork::new();
    // The warm-up chain holds one worker per link.
    let ep = net.create_endpoint_with_workers("chain", LINKS + 2).unwrap();
    let ran_on: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
    for i in 0..LINKS {
        let next = (i + 1 < LINKS).then(|| proxy(&net, &format!("inproc://chain/Link{}", i + 1)));
        let log = Arc::clone(&ran_on);
        ep.objects().register_singleton(
            format!("Link{i}"),
            Arc::new(FnInvokable(move |_: &str, args: &[Value]| {
                log.lock().push((i, here()));
                let n = args[0].as_i32().unwrap_or(0);
                match &next {
                    Some(next) => next.call("hop", vec![Value::I32(n + 1)]),
                    None => Ok(Value::I32(n)),
                }
            })),
        );
    }
    let head = proxy(&net, "inproc://chain/Link0");
    assert_eq!(head.call("hop", vec![Value::I32(100)]).unwrap(), Value::I32(105));
    settle(&ep);
    ran_on.lock().clear();
    let answer = on_thread("chain-caller", move || head.call("hop", vec![Value::I32(0)]));
    assert_eq!(answer.unwrap(), Value::I32(LINKS as i32 - 1));
    let ran_on = ran_on.lock();
    assert_eq!(ran_on.len(), LINKS);
    let inline: Vec<usize> =
        ran_on.iter().filter(|(_, t)| t == "chain-caller").map(|(i, _)| *i).collect();
    assert_eq!(inline, (0..MAX_INLINE_DEPTH).collect::<Vec<_>>(), "{ran_on:?}");
    let (_, past_cap) = &ran_on[MAX_INLINE_DEPTH];
    assert!(on_worker(past_cap), "the link past the cap ran on {past_cap}");
    // The links hold channels to their own endpoint: break the cycle.
    assert!(net.stop_endpoint("chain"));
}

#[test]
fn stop_does_not_wait_for_an_inline_run() {
    let net = InprocNetwork::new();
    let ep = net.create_endpoint_with_workers("gated", 2).unwrap();
    let (entered_tx, entered_rx) = mpsc::channel::<String>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let entered_tx = Mutex::new(entered_tx);
    let gate_rx = Mutex::new(gate_rx);
    ep.objects().register_singleton(
        "Gate",
        Arc::new(FnInvokable(move |method: &str, _: &[Value]| {
            if method == "block" {
                entered_tx.lock().send(here()).unwrap();
                gate_rx.lock().recv_timeout(Duration::from_secs(10)).expect("gate");
            }
            Ok(Value::Null)
        })),
    );
    let gate = Arc::new(proxy(&net, "inproc://gated/Gate"));
    gate.call("quick", vec![]).unwrap();
    settle(&ep);
    let blocker = Arc::clone(&gate);
    let blocked = std::thread::Builder::new()
        .name("gate-caller".into())
        .spawn(move || blocker.call("block", vec![]))
        .unwrap();
    let ran_on = entered_rx.recv_timeout(Duration::from_secs(5)).expect("block never ran");
    assert_eq!(ran_on, "gate-caller", "the blocking call did not run inline");
    let stopping = Instant::now();
    assert!(net.stop_endpoint("gated"));
    let took = stopping.elapsed();
    assert!(took < Duration::from_millis(100), "stop waited {took:?} for an inline run");
    gate_tx.send(()).unwrap();
    assert_eq!(blocked.join().unwrap().unwrap(), Value::Null, "the running call must finish");
    assert!(matches!(gate.call("quick", vec![]), Err(RemotingError::Transport { .. })));
}

#[test]
fn a_panicking_inline_method_faults_and_leaves_the_object_serving() {
    let net = InprocNetwork::new();
    let ep = net.create_endpoint_with_workers("panicky", 2).unwrap();
    let ran_on: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&ran_on);
    ep.objects().register_singleton(
        "Bomb",
        Arc::new(FnInvokable(move |method: &str, _: &[Value]| {
            log.lock().push(here());
            if method == "boom" {
                panic!("inline boom");
            }
            Ok(Value::Null)
        })),
    );
    proxy(&net, "inproc://panicky/Bomb").call("ok", vec![]).unwrap();
    settle(&ep);
    let net2 = net.clone();
    let (boom, after) = on_thread("bomb-caller", move || {
        let bomb = proxy(&net2, "inproc://panicky/Bomb");
        (bomb.call("boom", vec![]), bomb.call("ok", vec![]))
    });
    match boom {
        Err(RemotingError::ServerFault { detail }) => {
            assert!(detail.contains("inline boom"), "{detail}");
        }
        other => panic!("expected a server fault, got {other:?}"),
    }
    assert_eq!(after.unwrap(), Value::Null);
    let ran_on = ran_on.lock();
    assert_eq!(ran_on[1..], ["bomb-caller", "bomb-caller"], "{ran_on:?}");
}

#[test]
fn executed_counts_inline_runs() {
    let net = InprocNetwork::new();
    let ep = net.create_endpoint_with_workers("counted", 2).unwrap();
    register_where(&ep, "Where");
    proxy(&net, "inproc://counted/Where").call("where", vec![]).unwrap();
    settle(&ep);
    let before = ep.dispatch_stats().unwrap().executed;
    let net2 = net.clone();
    let threads = on_thread("counted-caller", move || {
        let obj = proxy(&net2, "inproc://counted/Where");
        (0..10).map(|_| thread_of(obj.call("where", vec![]))).collect::<Vec<_>>()
    });
    assert!(threads.iter().all(|t| t == "counted-caller"), "{threads:?}");
    let stats = ep.dispatch_stats().unwrap();
    assert_eq!(stats.executed, before + 10);
    assert_eq!(stats.pending, 0);
}
