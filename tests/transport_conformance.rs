//! Conformance suite for the transports: one set of contract checks any
//! transport change must keep passing.
//!
//! The transport-agnostic contracts run over every transport in
//! [`TRANSPORTS`] — TCP (multiplexed client → threaded server), inproc
//! (callers enqueue on the endpoint's mailboxes) and HTTP (SOAP over
//! keep-alive connections). All three servers share one serve path, so
//! all three keep the same contracts:
//! * per-object FIFO ordering — calls sent by one caller to one object
//!   execute in send order;
//! * one-way/two-way interleaving — posts and calls from one caller
//!   keep their relative order on the target object;
//! * replies reach their own caller under concurrent callers;
//! * calls to one object never overlap, whichever connections they
//!   arrive on;
//! * a two-way call whose message is marked one-way gets a fault, not a
//!   retryable transport error or a timeout;
//! * claim/release — a claim grants a private alias, foreign calls park
//!   until release, and a re-claim under the same id is idempotent.
//!
//! The wire contracts are TCP's alone:
//! * a dead connection poisons pending *and* future calls (fail fast,
//!   not hang);
//! * unknown-correlation-ID frames are tolerated and skipped;
//! * hostile request frames (undecodable body, truncated trace
//!   extension) fault or are dropped without wedging the connection;
//! * depth-extended replies decode from the body's offset at every body
//!   size, and a reply too short for its depth extension poisons.
//!
//! Then the mux client's own contract — its callers read their replies
//! themselves, one leader at a time: a slow leader routes the fast replies
//! behind it, a timed-out leader hands the read half to a follower, peer
//! death fails every parked follower fast, no reader thread exists, and a
//! slow link stops polling before its blocking reads.
//!
//! Also here: parc-testkit property tapes for [`read_frame_into`] — it
//! must decode a frame stream identically however the bytes arrive,
//! reject oversize frames, and report truncation honestly.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parc_sync::channel::{unbounded, Receiver, Sender};
use parc_testkit::Config;

use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::frame::{
    read_frame_into, split_depth_ext, write_frame, FrameRead, FLAG_DEPTH, FLAG_ONEWAY,
    FLAG_TRACE, HEADER_LEN, MAX_FRAME,
};
use parc::remoting::http::{HttpClientChannel, HttpServerChannel};
use parc::remoting::inproc::{InprocEndpoint, InprocNetwork};
use parc::remoting::tcp::{TcpClientChannel, TcpServerChannel};
use parc::remoting::{
    CallMessage, ChannelProvider, ClientChannel, Invokable, ObjectTable, RemoteObject,
    RemotingError, ReturnMessage,
};
use parc::serial::{BinaryFormatter, Value};

// ---------------------------------------------------------------------------
// The transports under test
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Kind {
    Tcp,
    Inproc,
    Http,
}

/// Every transport the transport-agnostic contracts run over.
const TRANSPORTS: [Kind; 3] = [Kind::Tcp, Kind::Inproc, Kind::Http];

/// A server of one transport: four mailbox workers over TCP and inproc,
/// the configured count over HTTP (its server takes no explicit count).
enum Server {
    Tcp(TcpServerChannel),
    Inproc(InprocNetwork, InprocEndpoint),
    Http(HttpServerChannel),
}

impl Server {
    fn start(kind: Kind) -> Server {
        match kind {
            Kind::Tcp => Server::Tcp(bind_server()),
            Kind::Inproc => {
                let net = InprocNetwork::new();
                let endpoint = net.create_endpoint_with_workers("node0", 4).expect("endpoint");
                Server::Inproc(net, endpoint)
            }
            Kind::Http => Server::Http(HttpServerChannel::bind("127.0.0.1:0").expect("binding")),
        }
    }

    fn objects(&self) -> &ObjectTable {
        match self {
            Server::Tcp(server) => server.objects(),
            Server::Inproc(_, endpoint) => endpoint.objects(),
            Server::Http(server) => server.objects(),
        }
    }

    /// A fresh client channel; over TCP and HTTP, sockets of its own.
    fn connect(&self) -> Arc<dyn ClientChannel> {
        match self {
            Server::Tcp(server) => connect(&server.local_addr().to_string()),
            Server::Inproc(net, _) => {
                net.open(&"inproc://node0/any".parse().unwrap()).expect("inproc open")
            }
            Server::Http(server) => Arc::new(
                HttpClientChannel::connect(&server.local_addr().to_string()).expect("http connect"),
            ),
        }
    }
}

/// The threaded server with four mailbox workers.
fn bind_server() -> TcpServerChannel {
    TcpServerChannel::bind_with_workers("127.0.0.1:0", 4).expect("binding server")
}

/// A client over exactly one socket, so hand-rolled single-socket servers
/// see a deterministic connection count.
fn connect(addr: &str) -> Arc<dyn ClientChannel> {
    Arc::new(TcpClientChannel::connect_pooled(addr, 1).expect("mux connect"))
}

/// An object whose every method hands its first argument back.
fn echo() -> Arc<dyn Invokable> {
    Arc::new(FnInvokable(|_: &str, args: &[Value]| Ok(args.first().cloned().unwrap_or(Value::Null))))
}

/// An object that records every `note(i)` it executes, in execution
/// order, plus the shared log to assert against.
fn recorder() -> (Arc<dyn Invokable>, Arc<Mutex<Vec<i32>>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    let object = Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
        "note" => {
            let v = args.first().and_then(Value::as_i32).unwrap_or(i32::MIN);
            sink.lock().unwrap().push(v);
            Ok(Value::Null)
        }
        "drain" => Ok(Value::I32(sink.lock().unwrap().len() as i32)),
        _ => Err(RemotingError::MethodNotFound {
            object: "Recorder".into(),
            method: method.into(),
        }),
    }));
    (object, log)
}

// ---------------------------------------------------------------------------
// Contract: ordering
// ---------------------------------------------------------------------------

/// One-way posts from one caller to one object execute in send order;
/// a trailing two-way call is the barrier proving they all landed.
#[test]
fn per_object_fifo_ordering_holds_on_every_combo() {
    for kind in TRANSPORTS {
        let server = Server::start(kind);
        let chan = server.connect();
        let (object, log) = recorder();
        server.objects().register_singleton("Recorder", object);
        let proxy = RemoteObject::new(chan, "Recorder");
        for i in 0..32 {
            proxy.post("note", vec![Value::I32(i)]).unwrap_or_else(|e| {
                panic!("{kind:?}: post {i} failed: {e}");
            });
        }
        let drained = proxy.call("drain", vec![]).unwrap_or_else(|e| {
            panic!("{kind:?}: drain barrier failed: {e}");
        });
        assert_eq!(drained, Value::I32(32), "{kind:?}: posts lost before barrier");
        let seen = log.lock().unwrap().clone();
        assert_eq!(
            seen,
            (0..32).collect::<Vec<i32>>(),
            "{kind:?}: one-way posts executed out of order"
        );
    }
}

/// Alternating posts and calls from one caller hit the object in exactly
/// the issued order — one-way frames never jump the two-way queue and
/// vice versa.
#[test]
fn oneway_twoway_interleaving_preserves_order_on_every_combo() {
    for kind in TRANSPORTS {
        let server = Server::start(kind);
        let chan = server.connect();
        let (object, log) = recorder();
        server.objects().register_singleton("Recorder", object);
        let proxy = RemoteObject::new(chan, "Recorder");
        for i in 0..24 {
            if i % 2 == 0 {
                proxy.post("note", vec![Value::I32(i)]).unwrap();
            } else {
                proxy.call("note", vec![Value::I32(i)]).unwrap_or_else(|e| {
                    panic!("{kind:?}: two-way note {i} failed: {e}");
                });
            }
        }
        proxy.call("drain", vec![]).unwrap();
        let seen = log.lock().unwrap().clone();
        assert_eq!(
            seen,
            (0..24).collect::<Vec<i32>>(),
            "{kind:?}: one-way/two-way interleaving broke per-object order"
        );
    }
}

// ---------------------------------------------------------------------------
// Contract: correlation
// ---------------------------------------------------------------------------

/// Concurrent callers sharing one channel each get *their* reply back
/// (over TCP, replies route by correlation ID, not arrival order).
#[test]
fn replies_route_by_correlation_id_on_every_combo() {
    for kind in TRANSPORTS {
        let server = Server::start(kind);
        let chan = server.connect();
        server.objects().register_singleton(
            "Echo",
            Arc::new(FnInvokable(|method: &str, args: &[Value]| match method {
                "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
                _ => Err(RemotingError::MethodNotFound {
                    object: "Echo".into(),
                    method: method.into(),
                }),
            })),
        );
        std::thread::scope(|scope| {
            for t in 0..4i32 {
                let chan = Arc::clone(&chan);
                scope.spawn(move || {
                    let proxy = RemoteObject::new(chan, "Echo");
                    for i in 0..25 {
                        let sent = t * 1000 + i;
                        let got = proxy.call("echo", vec![Value::I32(sent)]).unwrap_or_else(|e| {
                            panic!("{kind:?}: caller {t} call {i} failed: {e}");
                        });
                        assert_eq!(
                            got,
                            Value::I32(sent),
                            "caller {t} received another caller's reply"
                        );
                    }
                });
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Contract: one call in flight per object
// ---------------------------------------------------------------------------

/// Callers on separate connections hammer one object at once; the object
/// counts the invocations inside it, and the peak must stay at one —
/// every server runs calls to one object one at a time, whichever
/// connection they arrive on.
#[test]
fn calls_to_one_object_never_overlap_on_every_transport() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    for kind in TRANSPORTS {
        let server = Server::start(kind);
        let inside = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (now, max) = (Arc::clone(&inside), Arc::clone(&peak));
        server.objects().register_singleton(
            "Counter",
            Arc::new(FnInvokable(move |_: &str, _: &[Value]| {
                let entered = now.fetch_add(1, Ordering::SeqCst) + 1;
                max.fetch_max(entered, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                now.fetch_sub(1, Ordering::SeqCst);
                Ok(Value::Null)
            })),
        );
        std::thread::scope(|scope| {
            for t in 0..4 {
                let chan = server.connect();
                scope.spawn(move || {
                    let proxy = RemoteObject::new(chan, "Counter");
                    for i in 0..10 {
                        proxy.call("bump", vec![]).unwrap_or_else(|e| {
                            panic!("{kind:?}: caller {t} call {i} failed: {e}");
                        });
                    }
                });
            }
        });
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "{kind:?}: calls to one object ran concurrently"
        );
    }
}

// ---------------------------------------------------------------------------
// Contract: a two-way call always gets an answer
// ---------------------------------------------------------------------------

/// A message marked one-way but sent as a two-way call still runs, and
/// its caller gets a fault at once: not a retryable transport error (a
/// retry layer would re-send a call that already ran) and not a timeout.
#[test]
fn a_two_way_call_marked_one_way_faults_on_every_transport() {
    for kind in TRANSPORTS {
        let server = Server::start(kind);
        let (object, log) = recorder();
        server.objects().register_singleton("Recorder", object);
        let chan = server.connect();
        let started = Instant::now();
        let reply = chan
            .call(&CallMessage::one_way("Recorder", "note", vec![Value::I32(7)]))
            .unwrap_or_else(|e| panic!("{kind:?}: expected a fault reply, got {e:?}"));
        match reply.result {
            Err(detail) => {
                assert!(detail.contains("no reply"), "{kind:?}: unexpected fault {detail:?}");
            }
            Ok(value) => panic!("{kind:?}: expected a fault, got {value:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(10), "{kind:?}: fault came late");
        assert_eq!(log.lock().unwrap().clone(), vec![7], "{kind:?}: the call did not run");
    }
}

// ---------------------------------------------------------------------------
// Contract: death
// ---------------------------------------------------------------------------

/// A connection that dies mid-call fails the pending call promptly and
/// keeps failing future calls (no hangs, no stale successes). The server
/// here is a hand-rolled assassin: it accepts one connection, stops
/// listening, reads the first request, and slams the socket shut.
#[test]
fn dead_connection_poisons_pending_and_future_calls_on_every_transport() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binding assassin listener");
    let addr = listener.local_addr().unwrap().to_string();
    let assassin = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accepting victim");
        // Refuse reconnects *before* killing the connection, so a
        // fast revive cannot sneak into the accept backlog.
        drop(listener);
        let mut sink = [0u8; 256];
        let _ = stream.read(&mut sink);
        drop(stream);
    });
    let chan = connect(&addr);
    let proxy = RemoteObject::new(chan, "Ghost");

    let started = Instant::now();
    let pending = proxy.call("anything", vec![]);
    assert!(pending.is_err(), "call on a killed connection returned {pending:?}");
    assert!(started.elapsed() < Duration::from_secs(10), "pending call hung, not failed fast");

    for attempt in 0..3 {
        let later = proxy.call("anything", vec![]);
        assert!(later.is_err(), "call {attempt} after death returned {later:?}");
    }
    assassin.join().expect("assassin thread");
}

// ---------------------------------------------------------------------------
// Contract: unknown correlation IDs
// ---------------------------------------------------------------------------

/// A peer that interleaves garbage frames with unknown correlation IDs
/// among real replies must not confuse any client: unknown IDs are
/// skipped, real replies still land.
#[test]
fn unknown_corr_id_frames_are_skipped_on_every_transport() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binding noisy listener");
    let addr = listener.local_addr().unwrap().to_string();
    let noisy = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accepting");
        let formatter = BinaryFormatter::new();
        let mut payload = Vec::new();
        let mut round = 0u64;
        loop {
            match read_frame_into(&mut stream, &mut payload) {
                Ok(FrameRead::Frame(header)) => {
                    let call = CallMessage::decode(&formatter, &payload)
                        .expect("decoding request");
                    // Noise first: an ID no caller owns, with a
                    // payload that is not even a ReturnMessage.
                    write_frame(&mut stream, u64::MAX - round, 0, b"line noise").unwrap();
                    round += 1;
                    let reply = ReturnMessage::ok(
                        call.call_id,
                        call.args.first().cloned().unwrap_or(Value::Null),
                    );
                    let bytes = reply.encode(&formatter).unwrap();
                    write_frame(&mut stream, header.corr_id, 0, &bytes).unwrap();
                }
                Ok(FrameRead::Idle) => continue,
                Ok(FrameRead::Eof) | Err(_) => break,
            }
        }
    });
    {
        let chan = connect(&addr);
        let proxy = RemoteObject::new(chan, "Echo");
        for i in 0..5 {
            let got = proxy.call("echo", vec![Value::I32(i)]).unwrap_or_else(|e| {
                panic!("call {i} failed amid noise frames: {e}");
            });
            assert_eq!(got, Value::I32(i), "echo corrupted by noise");
        }
    } // channel drop -> EOF -> noisy server exits
    noisy.join().expect("noisy server thread");
}

// ---------------------------------------------------------------------------
// Contract: hostile request frames
// ---------------------------------------------------------------------------

/// Reads the next reply frame off a raw client socket, peeling the
/// server's depth extension.
fn read_reply(stream: &mut TcpStream) -> (u64, ReturnMessage) {
    let mut payload = Vec::new();
    match read_frame_into(stream, &mut payload).expect("reading reply frame") {
        FrameRead::Frame(header) => {
            let (_, body) = split_depth_ext(&header, &payload).expect("depth extension");
            let reply = ReturnMessage::decode(&BinaryFormatter::new(), body)
                .expect("reply body decodes");
            (header.corr_id, reply)
        }
        FrameRead::Idle => panic!("no reply within the read timeout"),
        FrameRead::Eof => panic!("server closed the connection"),
    }
}

/// A request frame the shared serve path cannot decode — a body that is
/// not a `CallMessage`, or a `FLAG_TRACE` frame too short to hold its
/// extension — gets a fault reply under the same correlation ID when it
/// is two-way and is dropped silently when it is one-way; either way a
/// well-formed call sent right behind it on the same connection still
/// succeeds.
#[test]
fn hostile_request_frames_fault_or_drop_and_keep_the_connection() {
    let server = bind_server();
    server.objects().register_singleton("Echo", echo());
    let mut stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let formatter = BinaryFormatter::new();

    let cases: [(&str, u8, bool); 4] = [
        ("garbage body, two-way", 0, false),
        ("garbage body, one-way", 0, true),
        ("truncated trace ext, two-way", FLAG_TRACE, false),
        ("truncated trace ext, one-way", FLAG_TRACE, true),
    ];
    for (i, (case, extra_flags, oneway)) in cases.into_iter().enumerate() {
        let hostile_id = 100 + 2 * i as u64;
        let good_id = hostile_id + 1;
        let good = CallMessage::new("Echo", "echo", vec![Value::I32(i as i32)])
            .encode(&formatter)
            .unwrap();
        let (mut wire, _) = wire_image(&[
            (hostile_id, oneway, b"line noise".to_vec()),
            (good_id, false, good),
        ]);
        wire[HEADER_LEN - 1] |= extra_flags; // the hostile frame's flag byte
        std::io::Write::write_all(&mut stream, &wire).unwrap();

        if !oneway {
            let (corr_id, reply) = read_reply(&mut stream);
            assert_eq!(corr_id, hostile_id, "{case}: fault under the wrong id");
            assert!(reply.result.is_err(), "{case}: expected a fault, got {reply:?}");
        }
        // One-way: the very next frame is already the good call's
        // reply, so the hostile frame produced nothing.
        let (corr_id, reply) = read_reply(&mut stream);
        assert_eq!(corr_id, good_id, "{case}: unexpected reply frame");
        assert_eq!(
            reply.result,
            Ok(Value::I32(i as i32)),
            "{case}: well-formed call behind it failed"
        );
    }
}

// ---------------------------------------------------------------------------
// Contract: depth-extended replies
// ---------------------------------------------------------------------------

/// Every reply of a real server carries the 8-byte depth extension ahead
/// of its formatter bytes, and the client decodes from the offset behind
/// it without moving the payload: the smallest reply (`Null`), a one-byte
/// body and a 256 KiB body all come back intact, with the depth reported.
#[test]
fn depth_extended_replies_decode_at_every_body_size_on_every_combo() {
    let server = bind_server();
    let chan = connect(&server.local_addr().to_string());
    server.objects().register_singleton("Echo", echo());
    let feedback = chan.feedback().expect("tcp transports report link feedback");
    let proxy = RemoteObject::new(chan, "Echo");
    let bulk: Vec<i32> = (0..65_536).map(|i: i32| i.wrapping_mul(-7919)).collect();
    for (i, body) in [Value::Null, Value::Bytes(vec![7]), Value::I32Array(bulk)]
        .into_iter()
        .enumerate()
    {
        let got = proxy.call("echo", vec![body.clone()]).unwrap();
        assert!(got == body, "{:?} body came back changed", body.kind());
        assert_eq!(
            feedback.depth_samples(),
            i as u64 + 1,
            "reply {i} carried no depth extension"
        );
    }
}

/// A `FLAG_DEPTH` reply shorter than the extension it announces is a
/// lying frame: the stream cannot be trusted past it, so the pending
/// call fails at once instead of decoding garbage or waiting out its
/// deadline.
#[test]
fn reply_shorter_than_its_depth_extension_poisons_on_every_transport() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binding liar listener");
    let addr = listener.local_addr().unwrap().to_string();
    let liar = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accepting");
        drop(listener);
        let mut payload = Vec::new();
        let Ok(FrameRead::Frame(header)) = read_frame_into(&mut stream, &mut payload) else {
            panic!("expected one request frame");
        };
        write_frame(&mut stream, header.corr_id, FLAG_DEPTH, b"short").unwrap();
        // Hold the socket open until the client lets go, so the
        // failure below is the poison and not an EOF.
        let _ = stream.read(&mut [0u8; 16]);
    });
    {
        let proxy = RemoteObject::new(connect(&addr), "Echo");
        let started = Instant::now();
        match proxy.call("echo", vec![Value::I32(1)]) {
            Err(RemotingError::Transport { detail }) => assert!(
                detail.contains("depth extension"),
                "failed for another reason: {detail}"
            ),
            other => panic!("lying reply produced {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "call waited out its deadline instead of being poisoned"
        );
    }
    liar.join().expect("liar server thread");
}

// ---------------------------------------------------------------------------
// Mux client: callers read their own replies (leader/follower)
// ---------------------------------------------------------------------------

/// A mux channel over exactly one socket, so every caller shares one read
/// half.
fn mux_single(addr: &str, timeout: Duration) -> Arc<dyn ClientChannel> {
    Arc::new(TcpClientChannel::connect_pooled_with_timeout(addr, 1, timeout).expect("mux connect"))
}

/// An object whose every call announces that it started, then holds until
/// the test releases it (bounded, so a broken client cannot hang the
/// suite). Returns the object, the start signal and the release handle.
fn gated() -> (Arc<dyn Invokable>, Receiver<()>, Sender<()>) {
    let (started_tx, started_rx) = unbounded();
    let (release_tx, release_rx) = unbounded::<()>();
    let object = Arc::new(FnInvokable(move |_: &str, _: &[Value]| {
        let _ = started_tx.send(());
        release_rx
            .recv_timeout(Duration::from_secs(10))
            .map(|()| Value::Null)
            .map_err(|_| RemotingError::ServerFault { detail: "never released".into() })
    }));
    (object, started_rx, release_tx)
}

/// A slow call holds the read half while fast calls pipelined behind it on
/// the same socket come and go: the leader routes their replies as they
/// land instead of sitting on them until its own arrives.
#[test]
fn mux_slow_leader_routes_fast_replies_pipelined_behind_it() {
    let server = bind_server();
    let (slow, slow_started, release) = gated();
    server.objects().register_singleton("Slow", slow);
    server.objects().register_singleton("Echo", echo());
    let chan = mux_single(&server.local_addr().to_string(), Duration::from_secs(30));
    std::thread::scope(|scope| {
        let leader =
            scope.spawn(|| RemoteObject::new(Arc::clone(&chan), "Slow").call("hold", vec![]));
        slow_started.recv_timeout(Duration::from_secs(10)).expect("slow call reached the server");
        let fast = RemoteObject::new(Arc::clone(&chan), "Echo");
        for i in 0..20 {
            assert_eq!(fast.call("echo", vec![Value::I32(i)]).unwrap(), Value::I32(i));
        }
        assert!(!leader.is_finished(), "fast replies waited for the slow one");
        release.send(()).unwrap();
        assert_eq!(leader.join().unwrap().unwrap(), Value::Null);
    });
}

/// A leader whose 50 ms deadline passes hands the read half on: the
/// follower parked behind it still gets its reply, which the server only
/// sends once the leader has given up.
#[test]
fn mux_timed_out_leader_hands_the_read_half_to_a_follower() {
    let server = bind_server();
    let (stuck, stuck_started, stuck_release) = gated();
    let (late, late_started, late_release) = gated();
    server.objects().register_singleton("Stuck", stuck);
    server.objects().register_singleton("Late", late);
    let chan = mux_single(&server.local_addr().to_string(), Duration::from_millis(50));
    std::thread::scope(|scope| {
        let leader =
            scope.spawn(|| RemoteObject::new(Arc::clone(&chan), "Stuck").call("hold", vec![]));
        stuck_started.recv_timeout(Duration::from_secs(10)).expect("leader's call reached server");
        // Half-way into the leader's deadline: the follower parks behind
        // it, and its own deadline outlives the leader's by 25 ms.
        std::thread::sleep(Duration::from_millis(25));
        let follower =
            scope.spawn(|| RemoteObject::new(Arc::clone(&chan), "Late").call("hold", vec![]));
        late_started.recv_timeout(Duration::from_secs(10)).expect("follower's call reached server");
        match leader.join().unwrap() {
            Err(RemotingError::Timeout { deadline, .. }) => {
                assert_eq!(deadline, Duration::from_millis(50));
            }
            other => panic!("leader should have timed out, got {other:?}"),
        }
        late_release.send(()).unwrap();
        assert_eq!(
            follower.join().unwrap().expect("follower's reply arrived after the leader left"),
            Value::Null
        );
        stuck_release.send(()).unwrap();
    });
}

/// Peer death with several callers waiting on one socket — one leading,
/// the others parked as followers — fails every one of them at once with
/// a transport error, not at its 30 s deadline.
#[test]
fn mux_peer_death_fails_every_parked_follower_fast() {
    const CALLERS: i32 = 4;
    let listener = TcpListener::bind("127.0.0.1:0").expect("binding assassin listener");
    let addr = listener.local_addr().unwrap().to_string();
    let assassin = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accepting victim");
        drop(listener);
        let mut payload = Vec::new();
        for _ in 0..CALLERS {
            let frame = read_frame_into(&mut stream, &mut payload).expect("reading a request");
            assert!(matches!(frame, FrameRead::Frame(_)), "expected {CALLERS} requests");
        }
        // Every caller has sent: close on all of them.
    });
    let chan = mux_single(&addr, Duration::from_secs(30));
    let started = Instant::now();
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|i| {
                let chan = Arc::clone(&chan);
                scope.spawn(move || {
                    RemoteObject::new(chan, "Ghost").call("anything", vec![Value::I32(i)])
                })
            })
            .collect();
        for (i, caller) in callers.into_iter().enumerate() {
            match caller.join().unwrap() {
                Err(RemotingError::Transport { .. }) => {}
                other => panic!("caller {i} on a dead peer got {other:?}"),
            }
        }
    });
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "parked callers waited for their deadline"
    );
    assassin.join().expect("assassin thread");
}

/// The mux client runs on its callers' threads: a pooled channel — four
/// sockets, each used — leaves no reader thread behind.
#[cfg(target_os = "linux")]
#[test]
fn mux_pool_spawns_no_reader_threads() {
    let server = bind_server();
    server.objects().register_singleton("Echo", echo());
    let chan = TcpClientChannel::connect_pooled(&server.local_addr().to_string(), 4)
        .expect("mux connect");
    assert_eq!(chan.pool_size(), 4);
    let proxy = RemoteObject::new(Arc::new(chan), "Echo");
    for i in 0..8 {
        assert_eq!(proxy.call("echo", vec![Value::I32(i)]).unwrap(), Value::I32(i));
    }
    let readers = std::fs::read_dir("/proc/self/task")
        .expect("listing this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "tcp-mux-reader")
        .count();
    assert_eq!(readers, 0, "a mux connection spawned a reader thread");
}

/// The poll before a blocking read is only for links that answer inside
/// it: once a link's RTT shows a method that sleeps 5 ms, its caller parks
/// in `read` at once. Spin outcomes are obs events; this thread's own are
/// told apart by thread id.
#[test]
fn mux_slow_link_stops_spinning_after_its_first_call() {
    use parc::obs::{kinds, Record};
    let server = bind_server();
    server.objects().register_singleton(
        "Sleepy",
        Arc::new(FnInvokable(|_: &str, _: &[Value]| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(Value::Null)
        })),
    );
    let chan = mux_single(&server.local_addr().to_string(), Duration::from_secs(30));
    let proxy = RemoteObject::new(chan, "Sleepy");
    let me = parc::obs::thread_id();
    let spins_since = |after_ns: u64| {
        parc::obs::recorder()
            .snapshot()
            .iter()
            .filter(|r| {
                matches!(r, Record::Event(e) if e.tid == me && e.at_ns > after_ns
                    && (e.kind == kinds::SPIN_HIT || e.kind == kinds::SPIN_MISS))
            })
            .count()
    };
    let _obs = parc::obs::test_lock();
    parc::obs::set_enabled(true);
    let before = parc::obs::now_ns();
    proxy.call("nap", vec![]).unwrap();
    let first = spins_since(before);
    let after_first = parc::obs::now_ns();
    for _ in 0..4 {
        proxy.call("nap", vec![]).unwrap();
    }
    let later = spins_since(after_first);
    parc::obs::set_enabled(false);
    assert_eq!(first, 1, "the first call, with no RTT yet, polls once and misses");
    assert_eq!(later, 0, "a 5 ms link kept polling before its reads");
}

// ---------------------------------------------------------------------------
// Contract: claim/release (multi-object reservations)
// ---------------------------------------------------------------------------

/// `__claim` grants a private alias, the holder's calls flow through it,
/// releasing through the alias reopens the object.
#[test]
fn claim_grants_alias_and_release_reopens_on_every_transport() {
    for kind in TRANSPORTS {
        let server = Server::start(kind);
        let (object, log) = recorder();
        let claims = Arc::new(parc::remoting::ClaimTable::new());
        parc::remoting::register_claimable(server.objects(), "Recorder", object, &claims);

        let chan = server.connect();
        let gate = RemoteObject::new(Arc::clone(&chan), "Recorder");
        let alias = gate
            .call(parc::remoting::CLAIM_METHOD, vec![Value::Str("c1".into())])
            .unwrap_or_else(|e| panic!("{kind:?}: claim failed: {e}"));
        let alias = alias.as_str().expect("alias name").to_string();
        assert!(
            parc::remoting::is_claim_plane(&alias),
            "grant returned a non-claim-plane alias {alias:?}"
        );

        let holder = RemoteObject::new(Arc::clone(&chan), alias.clone());
        for i in 0..4 {
            holder
                .call("note", vec![Value::I32(i)])
                .unwrap_or_else(|e| panic!("{kind:?}: holder call {i} failed: {e}"));
        }
        assert_eq!(log.lock().unwrap().clone(), vec![0, 1, 2, 3], "{kind:?}: holder calls lost");

        let released = holder
            .call(parc::remoting::RELEASE_METHOD, vec![])
            .unwrap_or_else(|e| panic!("{kind:?}: release failed: {e}"));
        assert_eq!(released, Value::Bool(true), "{kind:?}: release reported no claim");
        // Object is open again: a plain (foreign) call completes.
        assert_eq!(
            gate.call("drain", vec![]).unwrap_or_else(|e| {
                panic!("{kind:?}: post-release foreign call failed: {e}")
            }),
            Value::I32(4),
            "{kind:?}: foreign call after release saw the wrong state"
        );
        assert_eq!(claims.stats().active, 0, "{kind:?}: claim table still holds the claim");
    }
}

/// While claimed, a foreign call parks in the object's mailbox slot and
/// only runs after the holder releases.
#[test]
fn foreign_calls_park_until_release_on_every_transport() {
    for kind in TRANSPORTS {
        let server = Server::start(kind);
        let (object, log) = recorder();
        let claims = Arc::new(parc::remoting::ClaimTable::new());
        parc::remoting::register_claimable(server.objects(), "Recorder", object, &claims);

        let chan = server.connect();
        let gate = RemoteObject::new(Arc::clone(&chan), "Recorder");
        let alias = gate
            .call(parc::remoting::CLAIM_METHOD, vec![Value::Str("c2".into())])
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let holder = RemoteObject::new(Arc::clone(&chan), alias);

        // The foreign caller gets its own connection.
        let foreign_chan = server.connect();
        let foreign_done = Arc::new(Mutex::new(false));
        let observer = std::thread::spawn({
            let foreign_done = Arc::clone(&foreign_done);
            move || {
                let foreign = RemoteObject::new(foreign_chan, "Recorder");
                foreign
                    .call("note", vec![Value::I32(99)])
                    .unwrap_or_else(|e| panic!("{kind:?}: parked foreign call failed: {e}"));
                *foreign_done.lock().unwrap() = true;
            }
        });
        // Give the foreign call ample time to park, then prove it has
        // not run: the holder still owns the object.
        std::thread::sleep(Duration::from_millis(60));
        holder.call("note", vec![Value::I32(1)]).unwrap();
        assert!(
            !*foreign_done.lock().unwrap(),
            "{kind:?}: foreign call ran while the object was claimed"
        );
        assert_eq!(
            log.lock().unwrap().clone(),
            vec![1],
            "{kind:?}: foreign note executed under the claim"
        );
        holder.call(parc::remoting::RELEASE_METHOD, vec![]).unwrap();
        observer.join().expect("observer thread");
        assert_eq!(
            log.lock().unwrap().clone(),
            vec![1, 99],
            "{kind:?}: parked call did not run after release"
        );
    }
}

/// `__claim` is idempotent per claim id: a retry (reply lost) re-grants
/// the same alias; a different claim id must wait its turn.
#[test]
fn claim_is_idempotent_per_claim_id_on_every_transport() {
    for kind in TRANSPORTS {
        let server = Server::start(kind);
        let (object, _log) = recorder();
        let claims = Arc::new(parc::remoting::ClaimTable::new());
        parc::remoting::register_claimable(server.objects(), "Recorder", object, &claims);

        let chan = server.connect();
        let gate = RemoteObject::new(Arc::clone(&chan), "Recorder");
        let first = gate
            .call(parc::remoting::CLAIM_METHOD, vec![Value::Str("same".into())])
            .unwrap();
        let second = gate
            .call(parc::remoting::CLAIM_METHOD, vec![Value::Str("same".into())])
            .unwrap_or_else(|e| panic!("{kind:?}: idempotent re-claim failed: {e}"));
        assert_eq!(first, second, "{kind:?}: re-claim granted a different alias");
        assert_eq!(
            claims.stats().acquired,
            1,
            "{kind:?}: idempotent re-claim double-counted the grant"
        );
        let holder = RemoteObject::new(chan, first.as_str().unwrap().to_string());
        holder.call(parc::remoting::RELEASE_METHOD, vec![]).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Property tapes: read_frame_into under arbitrary read boundaries
// ---------------------------------------------------------------------------

/// One frame as the tapes describe it: correlation ID, one-way bit and
/// payload.
type Frame = (u64, bool, Vec<u8>);

/// Encodes `frames` as one contiguous wire image, returning the byte
/// offsets where each frame ends.
fn wire_image(frames: &[Frame]) -> (Vec<u8>, Vec<usize>) {
    let mut wire = Vec::new();
    let mut ends = Vec::new();
    for (corr_id, oneway, payload) in frames {
        let flags = if *oneway { FLAG_ONEWAY } else { 0 };
        write_frame(&mut wire, *corr_id, flags, payload).unwrap();
        ends.push(wire.len());
    }
    (wire, ends)
}

/// Hands out `wire` in reads of the tape's chunk lengths, cycling through
/// them — the short reads a socket may return at any boundary.
struct ChunkedReader<'a> {
    wire: &'a [u8],
    chunks: &'a [usize],
    turn: usize,
}

impl<'a> ChunkedReader<'a> {
    fn new(wire: &'a [u8], chunks: &'a [usize]) -> ChunkedReader<'a> {
        ChunkedReader { wire, chunks, turn: 0 }
    }
}

impl Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.chunks[self.turn % self.chunks.len()];
        self.turn += 1;
        let n = buf.len().min(self.wire.len()).min(chunk);
        buf[..n].copy_from_slice(&self.wire[..n]);
        self.wire = &self.wire[n..];
        Ok(n)
    }
}

/// Reads frames off `reader` until it stops yielding them, returning the
/// decoded frames and what ended the stream.
fn read_all(reader: &mut impl Read) -> (Vec<Frame>, std::io::Result<FrameRead>) {
    let mut decoded = Vec::new();
    let mut payload = Vec::new();
    loop {
        match read_frame_into(reader, &mut payload) {
            Ok(FrameRead::Frame(header)) => {
                decoded.push((header.corr_id, header.oneway(), payload.clone()));
            }
            end => return (decoded, end),
        }
    }
}

/// Any chunking of a valid frame stream — byte-at-a-time, giant blocks,
/// ragged boundaries straddling headers and payloads — decodes to the
/// identical frame sequence and ends on a clean boundary.
#[test]
fn reassembly_is_invariant_under_arbitrary_chunk_boundaries() {
    Config::cases(96).check(
        |src| {
            let frames = src.vec_of(1..6, |s| {
                let corr_id = s.u64_any();
                let oneway = s.bool_any();
                let payload = s.bytes(0..300);
                (corr_id, oneway, payload)
            });
            let chunk_lens = src.vec_of(1..24, |s| s.usize_in(1..97));
            (frames, chunk_lens)
        },
        |(frames, chunk_lens)| {
            let (wire, _) = wire_image(frames);
            let (decoded, end) = read_all(&mut ChunkedReader::new(&wire, chunk_lens));
            assert_eq!(&decoded, frames, "frames changed under chunking");
            assert_eq!(end.unwrap(), FrameRead::Eof, "stream did not end on a frame boundary");
        },
    );
}

/// A truncated stream yields exactly the frames that are complete in the
/// prefix, then a clean EOF when the cut fell on a frame boundary and
/// `UnexpectedEof` when it fell inside a frame.
#[test]
fn truncation_emits_only_complete_frames_and_is_reported() {
    Config::cases(96).check(
        |src| {
            let frames = src.vec_of(1..5, |s| {
                let corr_id = s.u64_any();
                let oneway = s.bool_any();
                let payload = s.bytes(1..200);
                (corr_id, oneway, payload)
            });
            let cut_fraction = src.f64_unit();
            (frames, cut_fraction)
        },
        |(frames, cut_fraction)| {
            let (wire, ends) = wire_image(frames);
            // Cut strictly inside the stream: at least 1 byte delivered,
            // at least 1 byte withheld.
            let cut = 1 + ((wire.len() - 2) as f64 * cut_fraction) as usize;
            let complete = ends.iter().filter(|&&e| e <= cut).count();
            let (decoded, end) = read_all(&mut &wire[..cut]);
            assert_eq!(decoded.len(), complete, "emitted a frame the prefix does not contain");
            if ends.contains(&cut) {
                assert_eq!(end.unwrap(), FrameRead::Eof, "a cut at a boundary is a clean EOF");
            } else {
                let err = end.expect_err("a cut inside a frame must be reported");
                assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
            }
        },
    );
}

/// An oversize length field is rejected as soon as the header is read,
/// whatever read boundary the header bytes straddle — and frames before
/// it still decode.
#[test]
fn oversize_frame_is_rejected_mid_reassembly() {
    Config::cases(64).check(
        |src| {
            let good_payload = src.bytes(0..64);
            let oversize = MAX_FRAME as u64 + 1 + src.u64_in(0..1024);
            let split = src.usize_in(1..HEADER_LEN);
            (good_payload, oversize, split)
        },
        |(good_payload, oversize, split)| {
            let mut wire = Vec::new();
            write_frame(&mut wire, 7, 0, good_payload).unwrap();
            let good_len = wire.len();
            // A hand-built header claiming an impossible payload length.
            wire.extend_from_slice(&u32::try_from(*oversize).unwrap().to_be_bytes());
            wire.extend_from_slice(&9u64.to_be_bytes());
            wire.push(0);

            // The good frame plus a partial bad header, then the rest.
            let chunks = [good_len + split, wire.len()];
            let (decoded, end) = read_all(&mut ChunkedReader::new(&wire, &chunks));
            assert_eq!(decoded.len(), 1, "the complete frame before the bad header must emit");
            assert_eq!(&decoded[0].2, good_payload);
            let err = end.expect_err("oversize length must be rejected");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        },
    );
}

// ---------------------------------------------------------------------------
// read_frame_into: fills the caller's buffer without a zero-fill
// ---------------------------------------------------------------------------

/// Mirror of the one-byte-writer test on the write side: however short
/// the reads, the frame comes out whole, and the stream ends on a clean
/// boundary.
#[test]
fn read_frame_into_survives_one_byte_reads() {
    let body: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
    let (wire, _) = wire_image(&[(9, false, body.clone()), (10, true, Vec::new())]);
    let mut reader = ChunkedReader::new(&wire, &[1]);
    let mut payload = vec![0xaa; 4]; // stale bytes from an earlier frame
    let FrameRead::Frame(header) = read_frame_into(&mut reader, &mut payload).unwrap() else {
        panic!("expected the first frame");
    };
    assert_eq!((header.corr_id, header.len), (9, body.len()));
    assert_eq!(payload, body);
    let FrameRead::Frame(header) = read_frame_into(&mut reader, &mut payload).unwrap() else {
        panic!("expected the empty frame");
    };
    assert_eq!((header.corr_id, header.oneway(), payload.len()), (10, true, 0));
    assert_eq!(read_frame_into(&mut reader, &mut payload).unwrap(), FrameRead::Eof);
}

/// A payload cut anywhere short of its declared length is
/// `UnexpectedEof`, never a short frame.
#[test]
fn read_frame_into_reports_a_truncated_payload_as_unexpected_eof() {
    let (wire, _) = wire_image(&[(1, false, vec![5u8; 300])]);
    for cut in [HEADER_LEN, HEADER_LEN + 1, wire.len() - 1] {
        let mut payload = Vec::new();
        let mut reader = ChunkedReader::new(&wire[..cut], &[1]);
        let err = read_frame_into(&mut reader, &mut payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
        let err = read_frame_into(&mut &wire[..cut], &mut payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
    }
}
