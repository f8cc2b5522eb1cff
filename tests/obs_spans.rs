//! Observability integration tests: span trees recorded across a real
//! remoting round trip, the disabled path staying perfectly silent, and
//! the telemetry plane reading what the mailbox records.
//!
//! The global recorder is process-wide state, so every test here holds
//! `parc::obs::test_lock()` for its full body.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parc::obs::kinds;
use parc::obs::ring::{Record, SpanRecord};
use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::inproc::InprocNetwork;
use parc::remoting::{ChannelProvider, ObjectUri, RemoteObject};
use parc::serial::Value;

fn adder_proxy() -> (InprocNetwork, parc::remoting::inproc::InprocEndpoint, RemoteObject) {
    let net = InprocNetwork::new();
    let ep = net.create_endpoint("obs-node").unwrap();
    ep.objects().register_singleton(
        "Adder",
        Arc::new(FnInvokable(|method: &str, args: &[Value]| match method {
            "add" => Ok(Value::I32(
                args[0].as_i32().unwrap_or(0) + args[1].as_i32().unwrap_or(0),
            )),
            _ => Err(parc::remoting::RemotingError::MethodNotFound {
                object: "Adder".into(),
                method: method.into(),
            }),
        })),
    );
    let uri: ObjectUri = "inproc://obs-node/Adder".parse().unwrap();
    let chan = net.open(&uri).unwrap();
    let proxy = RemoteObject::new(chan, uri.object());
    (net, ep, proxy)
}

/// Collects all span records currently in the ring.
fn spans() -> Vec<SpanRecord> {
    parc::obs::recorder()
        .snapshot()
        .into_iter()
        .filter_map(|r| match r {
            Record::Span(s) => Some(s),
            Record::Event(_) => None,
        })
        .collect()
}

/// Waits (bounded) until at least one span of `kind` is in the ring —
/// the server worker's spans land a hair after the client's call returns.
fn wait_for_kind(kind: &str) -> Vec<SpanRecord> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let all = spans();
        if all.iter().any(|s| s.kind == kind) || Instant::now() > deadline {
            return all;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn disabled_path_records_zero_entries() {
    let _guard = parc::obs::test_lock();
    parc::obs::set_enabled(false);
    parc::obs::reset();

    let (_net, _ep, proxy) = adder_proxy();
    for _ in 0..10 {
        let out = proxy.call("add", vec![Value::I32(2), Value::I32(3)]).unwrap();
        assert_eq!(out, Value::I32(5));
    }
    // Give the server worker a moment: even its trailing work must not
    // record anything while disabled.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(parc::obs::recorder().snapshot().len(), 0, "disabled run must stay silent");
    assert_eq!(parc::obs::recorder().pushed(), 0);
}

#[test]
fn dispatcher_roundtrip_produces_the_expected_span_tree() {
    let _guard = parc::obs::test_lock();
    parc::obs::set_enabled(true);
    parc::obs::reset();

    let (_net, _ep, proxy) = adder_proxy();
    let out = proxy.call("add", vec![Value::I32(20), Value::I32(22)]).unwrap();
    assert_eq!(out, Value::I32(42));

    let all = wait_for_kind(kinds::REPLY);
    parc::obs::set_enabled(false);

    let call = all
        .iter()
        .find(|s| s.kind == kinds::CALL)
        .expect("client call span recorded");
    assert_eq!(call.depth, 0, "the sync call is the client's top-level span");

    // Client-side children: marshal, send, wait, unmarshal — all nested
    // one level under the call, on the caller's thread, inside its window.
    for kind in [kinds::SERIALIZE, kinds::CHANNEL_SEND, kinds::CHANNEL_RECV, kinds::DESERIALIZE] {
        let child = all
            .iter()
            .find(|s| s.kind == kind && s.tid == call.tid)
            .unwrap_or_else(|| panic!("missing client child span {kind}"));
        assert_eq!(child.depth, 1, "{kind} nests under the call");
        assert!(child.start_ns >= call.start_ns, "{kind} starts inside the call");
        assert!(
            child.start_ns + child.dur_ns <= call.start_ns + call.dur_ns,
            "{kind} ends inside the call"
        );
    }

    // Server-side spans run on a mailbox worker, not the caller's thread.
    for kind in [kinds::DISPATCH, kinds::REPLY] {
        let server = all
            .iter()
            .find(|s| s.kind == kind)
            .unwrap_or_else(|| panic!("missing server span {kind}"));
        assert_ne!(server.tid, call.tid, "{kind} happens on the endpoint's thread");
    }
}

#[test]
fn posts_record_send_spans_without_a_recv() {
    let _guard = parc::obs::test_lock();
    parc::obs::set_enabled(true);
    parc::obs::reset();

    let (_net, _ep, proxy) = adder_proxy();
    proxy.post("add", vec![Value::I32(1), Value::I32(1)]).unwrap();
    let all = wait_for_kind(kinds::DISPATCH);
    parc::obs::set_enabled(false);

    assert!(all.iter().any(|s| s.kind == kinds::CHANNEL_SEND));
    let sender_tid = all.iter().find(|s| s.kind == kinds::CHANNEL_SEND).unwrap().tid;
    assert!(
        !all.iter().any(|s| s.kind == kinds::CHANNEL_RECV && s.tid == sender_tid),
        "a one-way post never blocks on a reply"
    );
}

/// `parc-top`'s queue-wait quantiles read the histogram the mailbox
/// scheduler records into: with recording on, calls through a runtime
/// node make them non-zero. (If telemetry read a histogram nothing
/// records, they would stay 0 however busy the node was.)
#[test]
fn telemetry_queue_wait_is_fed_by_the_mailbox() {
    let _guard = parc::obs::test_lock();
    parc::obs::set_enabled(true);
    parc::obs::reset();

    let rt = parc::scoopp::ParcRuntime::builder().nodes(2).build().unwrap();
    rt.register_class("Noop", || Arc::new(FnInvokable(|_: &str, _: &[Value]| Ok(Value::Null))));
    let po = rt.create_on("Noop", 1).unwrap();
    for _ in 0..5 {
        po.call("tick", vec![]).unwrap();
    }
    let rows = rt.telemetry().poll();
    parc::obs::set_enabled(false);

    assert!(rows[1].dispatched >= 5, "saw {}", rows[1].dispatched);
    assert!(rows[1].queue_wait_p50_ns > 0, "queue-wait p50 read 0 after 5 calls");
    assert!(rows[1].queue_wait_p99_ns > 0, "queue-wait p99 read 0 after 5 calls");
}
