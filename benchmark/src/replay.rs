//! Isolated layer replay: the `*_ns` rows of the per-layer ledger.
//!
//! Every layer is timed from outside, through its public functions, with
//! the message shape of the workload under test and nothing else running.
//! The sum of the rows along one two-way call is `callpath.accounted_ns`;
//! what the workload's own round trip costs beyond that sum — thread
//! wake-ups and waiting, which no outside timer can see — is
//! `callpath.unattributed_ns`.

use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_core::{ParcRuntime, Pipeline};
use parc_remoting::channel::next_call_id;
use parc_remoting::dispatcher::{dispatch, FnInvokable};
use parc_remoting::frame::{self, FrameAssembler, HEADER_LEN};
use parc_remoting::wellknown::ObjectTable;
use parc_remoting::{CallMessage, Invokable, MailboxScheduler, ReturnMessage};
use parc_serial::{BinaryFormatter, Formatter, Value};

use crate::stats::{midmean, per_op_ns};
use crate::workloads::{two_node_runtime, Host, Link, Shape};

const OBJECT: &str = "Replay";
/// Timed measurements in one replay; each gets an equal slice of the budget.
const SLICES: u32 = 22;

/// A server object whose every method does nothing but hand back the
/// shape's reply.
fn noop_object(reply: Value) -> Arc<dyn Invokable> {
    Arc::new(FnInvokable(move |_: &str, _: &[Value]| Ok(reply.clone())))
}

/// One frame as it appears on the wire: head then payload.
fn framed(payload: &[u8]) -> Result<Vec<u8>, String> {
    let mut wire = Vec::with_capacity(HEADER_LEN + payload.len());
    frame::write_frame(&mut wire, 1, 0, payload).map_err(|e| e.to_string())?;
    Ok(wire)
}

/// `workload_rtt_ns` is the median round trip the workload itself just
/// measured, where its caller waits out single calls (1–3); elsewhere the
/// ledger is held against a two-way `Po::call` with the workload's shape.
pub fn replay(
    shape: &Shape,
    budget: Duration,
    workload_rtt_ns: Option<f64>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let slice = budget / SLICES;
    let f = BinaryFormatter::new();
    let mut rows: Vec<(&'static str, f64)> = Vec::new();

    // serial: the argument list as a value, through the formatter.
    let value_build = per_op_ns(slice, || {
        black_box(shape.args.clone());
    });
    let arg_list = Value::List(shape.args.clone());
    let arg_bytes = f.serialize(&arg_list).map_err(|e| e.to_string())?;
    let mut buf = Vec::with_capacity(arg_bytes.len());
    let encode = per_op_ns(slice, || {
        buf.clear();
        f.serialize_into(&arg_list, &mut buf)
            .expect("arguments serialize");
    });
    let decode = per_op_ns(slice, || {
        black_box(f.deserialize(&arg_bytes).expect("arguments deserialize"));
    });
    rows.push(("serial.value_build_ns", value_build));
    rows.push(("serial.encode_ns", encode));
    rows.push(("serial.decode_ns", decode));
    rows.push(("serial.encoded_bytes", arg_bytes.len() as f64));

    // message: call and reply envelopes. A fixed call id keeps the byte
    // counts exact from run to run.
    let mut call = CallMessage::new(OBJECT, shape.method, shape.args.clone());
    call.call_id = 1;
    let reply = ReturnMessage::ok(1, shape.reply.clone());
    let call_bytes = call.encode(&f).map_err(|e| e.to_string())?;
    let reply_bytes = reply.encode(&f).map_err(|e| e.to_string())?;
    let call_encode = per_op_ns(slice, || {
        buf.clear();
        call.encode_into(&f, &mut buf).expect("call encodes");
    });
    let call_decode = per_op_ns(slice, || {
        black_box(CallMessage::decode(&f, &call_bytes).expect("call decodes"));
    });
    let reply_encode = per_op_ns(slice, || {
        buf.clear();
        reply.encode_into(&f, &mut buf).expect("reply encodes");
    });
    let reply_decode = per_op_ns(slice, || {
        black_box(ReturnMessage::decode(&f, &reply_bytes).expect("reply decodes"));
    });
    rows.push(("message.call_encode_ns", call_encode));
    rows.push(("message.call_decode_ns", call_decode));
    rows.push(("message.reply_encode_ns", reply_encode));
    rows.push(("message.reply_decode_ns", reply_decode));
    rows.push((
        "message.call_wire_bytes",
        (HEADER_LEN + call_bytes.len()) as f64,
    ));
    rows.push((
        "message.reply_wire_bytes",
        (HEADER_LEN + reply_bytes.len()) as f64,
    ));

    // frame: both frames of one round trip, into and out of memory.
    let mut sink = Vec::with_capacity(HEADER_LEN + call_bytes.len().max(reply_bytes.len()));
    let frame_write = per_op_ns(slice, || {
        for payload in [&call_bytes, &reply_bytes] {
            sink.clear();
            frame::write_frame(&mut sink, 1, 0, payload).expect("frame fits");
        }
    });
    let wires = [framed(&call_bytes)?, framed(&reply_bytes)?];
    let mut assembler = FrameAssembler::new();
    let frame_reassemble = per_op_ns(slice, || {
        for wire in &wires {
            assembler
                .feed(wire, &mut |_, payload| {
                    black_box(payload.len());
                })
                .expect("well-formed frame");
        }
    });
    rows.push(("frame.write_ns", frame_write));
    rows.push(("frame.reassemble_ns", frame_reassemble));

    // mailbox: a stand-alone idle scheduler; enqueue → closure start, and
    // what the enqueue costs its caller.
    let (mut handoffs, mut enqueues) = (Vec::new(), Vec::new());
    {
        let scheduler = MailboxScheduler::new();
        let deadline = Instant::now() + 2 * slice;
        while handoffs.len() < 200 || Instant::now() < deadline {
            let (tx, rx) = mpsc::channel();
            let enqueued = Instant::now();
            scheduler.enqueue(OBJECT, move || {
                let _ = tx.send(Instant::now());
            });
            enqueues.push(enqueued.elapsed().as_nanos() as f64);
            let started = rx.recv().map_err(|e| e.to_string())?;
            handoffs.push(started.saturating_duration_since(enqueued).as_nanos() as f64);
        }
    }
    let handoff = midmean(&mut handoffs);
    rows.push(("mailbox.handoff_ns", handoff));
    rows.push(("mailbox.enqueue_ns", midmean(&mut enqueues)));

    // dispatcher: table lookup + invoke + reply construction.
    let table = ObjectTable::new();
    table.register_singleton(OBJECT, noop_object(shape.reply.clone()));
    let dispatch_ns = per_op_ns(slice, || {
        black_box(dispatch(&table, &call));
    });
    rows.push(("dispatcher.dispatch_ns", dispatch_ns));

    // transport: the workload's own link, against the no-op object.
    let host = Host::start(shape.link).map_err(|e| e.to_string())?;
    host.publish(OBJECT, noop_object(shape.reply.clone()));
    let proxy = host.connect(OBJECT).map_err(|e| e.to_string())?;
    let channel = Arc::clone(proxy.channel());
    let mut failures = 0u64;
    let transport_call = per_op_ns(slice, || {
        call.call_id = next_call_id();
        failures += u64::from(channel.call(&call).is_err());
    });
    let mut post = CallMessage::one_way(OBJECT, shape.method, shape.args.clone());
    let transport_post = per_op_ns(slice, || {
        post.call_id = next_call_id();
        failures += u64::from(channel.post(&post).is_err());
    });
    // Per-object FIFO: this reply means every post above has been served.
    failures += u64::from(proxy.call(shape.method, shape.args.clone()).is_err());
    let mut connects = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        let fresh = host.connect(OBJECT).map_err(|e| e.to_string())?;
        connects.push(t.elapsed().as_nanos() as f64 / 1e3);
        drop(fresh);
    }
    drop((proxy, channel, host));
    if failures > 0 {
        return Err(format!("{failures} replay calls failed on the transport"));
    }
    rows.push(("transport.call_ns", transport_call));
    rows.push(("transport.post_ns", transport_post));
    rows.push(("transport.connect_us", midmean(&mut connects)));

    // The ledger of one two-way call. serial.* is inside message.*, so it
    // is not added twice; frames exist on the socket path only.
    let frames = if shape.link == Link::Tcp {
        frame_write + frame_reassemble
    } else {
        0.0
    };
    let accounted = value_build
        + call_encode
        + call_decode
        + frames
        + handoff
        + dispatch_ns
        + reply_encode
        + reply_decode;
    let po_call = runtime_replay(shape, slice, &mut rows)?;
    rows.push(("callpath.accounted_ns", accounted));
    rows.push((
        "callpath.unattributed_ns",
        workload_rtt_ns.unwrap_or(po_call) - accounted,
    ));
    Ok(rows)
}

/// The `core` layers: runtime boot, factory, proxy objects, batching and
/// the pipeline's feed. Returns `po.call_ns`.
fn runtime_replay(
    shape: &Shape,
    slice: Duration,
    rows: &mut Vec<(&'static str, f64)>,
) -> Result<f64, String> {
    let err = |e: parc_core::ParcError| e.to_string();
    let mut builds = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let rt = two_node_runtime(shape.aggregation)?;
        builds.push(t.elapsed().as_secs_f64() * 1e3);
        drop(rt);
    }
    rows.push(("runtime.build_ms", midmean(&mut builds)));

    let rt: ParcRuntime = two_node_runtime(shape.aggregation)?;
    let reply = shape.reply.clone();
    rt.register_class(OBJECT, move || noop_object(reply.clone()));
    let mut creates = Vec::new();
    let mut created = Vec::new();
    for _ in 0..32 {
        let t = Instant::now();
        created.push(rt.create(OBJECT).map_err(err)?);
        creates.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    rows.push(("factory.create_us", midmean(&mut creates)));

    let mut failures = 0u64;
    let po = &created[0];
    if po.is_local() {
        return Err("replay proxy was agglomerated; po.* rows need a remote object".into());
    }
    // Caller-side cost of a post, the flush it triggers every `maxCalls`
    // posts amortised in.
    let po_post = per_op_ns(slice, || {
        failures += u64::from(po.post(shape.method, shape.args.clone()).is_err());
    });
    let po_call = per_op_ns(slice, || {
        failures += u64::from(po.call(shape.method, shape.args.clone()).is_err());
    });
    // An explicit flush of a half-full aggregation buffer.
    let half = (shape.aggregation / 2).max(1);
    let mut flushes = Vec::new();
    let deadline = Instant::now() + slice;
    while flushes.len() < 50 || Instant::now() < deadline {
        for _ in 0..half {
            failures += u64::from(po.post(shape.method, shape.args.clone()).is_err());
        }
        let t = Instant::now();
        failures += u64::from(po.flush().is_err());
        flushes.push(t.elapsed().as_nanos() as f64);
    }
    failures += u64::from(po.call(shape.method, shape.args.clone()).is_err());
    // Caller-side `Pipeline::feed` into two connected no-op stages; the
    // head's reply afterwards means every feed has been served.
    let pipeline = Pipeline::new(&rt, OBJECT, 2, "connect").map_err(err)?;
    let feed = per_op_ns(slice, || {
        failures += u64::from(pipeline.feed(shape.method, shape.args.clone()).is_err());
    });
    failures += u64::from(pipeline.flush().is_err());
    failures += u64::from(
        pipeline
            .head()
            .call(shape.method, shape.args.clone())
            .is_err(),
    );
    if failures > 0 {
        return Err(format!("{failures} replay calls failed on the runtime"));
    }
    rows.push(("po.post_ns", po_post));
    rows.push(("po.call_ns", po_call));
    rows.push(("batch.flush_ns", midmean(&mut flushes)));
    rows.push(("pipeline.feed_ns", feed));
    Ok(po_call)
}
