//! Cross-node trace propagation: the wire-level trace extension must turn
//! per-node span soups into one causally linked tree — server dispatch
//! spans are children of the originating client's send, across multiple
//! hops, and the links must survive chaos (dropped,
//! duplicated and delayed frames).
//!
//! The global recorder is process-wide state, so every test holds
//! `parc::obs::test_lock()` for its full body.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc::apps::sieve::{reference_primes, register_prime_filter_class, PRIME_SERVER_CLASS};
use parc::obs::kinds;
use parc::obs::ring::{Record, SpanRecord};
use parc::obs::trace::NODE_UNSET;
use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::tcp::{TcpClientChannel, TcpServerChannel};
use parc::remoting::{
    ChaosChannel, ClientChannel, FaultPlan, FaultSpec, Invokable, RemoteObject, RetryPolicy,
};
use parc::scoopp::{ParcRuntime, Pipeline};
use parc::serial::Value;

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

/// Waits (bounded) until the ring holds at least `n` dispatch spans —
/// server workers finish a hair after the client side returns.
fn wait_for_dispatches(n: usize) -> Vec<SpanRecord> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let all = spans();
        if all.iter().filter(|s| s.kind == kinds::DISPATCH).count() >= n
            || Instant::now() > deadline
        {
            return all;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The invariants every traced run must satisfy, chaos or not:
/// * traced span ids are unique (duplicated frames re-dispatch under a
///   *fresh* span id, they never clone one);
/// * every traced dispatch has a parent, and if that parent is in the
///   ring it is the client's `channel.send`;
/// * parent chains are acyclic and terminate at a root.
fn assert_causally_well_formed(all: &[SpanRecord]) {
    let traced: Vec<&SpanRecord> = all.iter().filter(|s| s.trace_id != 0).collect();
    assert!(!traced.is_empty(), "expected traced spans in the ring");

    let mut by_id: HashMap<u64, &SpanRecord> = HashMap::with_capacity(traced.len());
    for s in &traced {
        assert_ne!(s.span_id, 0, "traced span {} has a zero span id", s.kind);
        assert!(
            by_id.insert(s.span_id, s).is_none(),
            "span id {:016x} ({}) appears twice",
            s.span_id,
            s.kind
        );
    }

    for s in &traced {
        if s.kind == kinds::DISPATCH {
            assert_ne!(s.parent_span_id, 0, "dispatch span has no parent link");
            if let Some(parent) = by_id.get(&s.parent_span_id) {
                assert_eq!(
                    parent.kind,
                    kinds::CHANNEL_SEND,
                    "a dispatch's remote parent must be the client's send"
                );
                assert_eq!(parent.trace_id, s.trace_id, "parent is in another trace");
            }
        }
        // Acyclic: a chain longer than the span population is a loop.
        let mut cursor = s.parent_span_id;
        let mut hops = 0usize;
        while cursor != 0 {
            hops += 1;
            assert!(hops <= traced.len(), "cyclic parent chain from {:016x}", s.span_id);
            cursor = match by_id.get(&cursor) {
                Some(p) => p.parent_span_id,
                None => 0, // parent predates the snapshot; chain ends here
            };
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-hop propagation through the full runtime (inproc transport)
// ---------------------------------------------------------------------------

#[test]
fn pipeline_dispatches_link_back_to_the_client_call_chain_across_hops() {
    let _guard = parc::obs::test_lock();
    parc::obs::set_enabled(true);
    parc::obs::reset();

    let limit = 60u32;
    let expected = reference_primes(limit);
    let mut builder = ParcRuntime::builder();
    builder.nodes(3).aggregation(8);
    let runtime = builder.build().unwrap();
    register_prime_filter_class(&runtime);
    let pipeline = Pipeline::new(&runtime, PRIME_SERVER_CLASS, expected.len(), "connect").unwrap();
    for candidate in 2..=limit {
        pipeline.feed("process", vec![Value::I32Array(vec![candidate as i32])]).unwrap();
    }
    pipeline.flush().unwrap();
    for stage in pipeline.stages() {
        stage.call("drain", vec![]).unwrap();
    }

    let all = wait_for_dispatches(expected.len());
    parc::obs::set_enabled(false);
    assert_causally_well_formed(&all);

    let traced: HashMap<u64, &SpanRecord> =
        all.iter().filter(|s| s.trace_id != 0).map(|s| (s.span_id, s)).collect();
    let dispatches: Vec<&&SpanRecord> =
        traced.values().filter(|s| s.kind == kinds::DISPATCH).collect();

    // At least one dispatch's ancestry contains a dispatch on a *different*
    // node: the stage-to-stage forward really carried the trace a second hop.
    let mut saw_multi_hop = false;
    // And at least one chain roots in the client process (NODE_UNSET).
    let mut saw_client_root = false;
    for d in &dispatches {
        let mut cursor = d.parent_span_id;
        while cursor != 0 {
            let Some(p) = traced.get(&cursor) else { break };
            if p.kind == kinds::DISPATCH && p.node != d.node {
                saw_multi_hop = true;
            }
            if p.parent_span_id == 0 && p.node == NODE_UNSET {
                saw_client_root = true;
            }
            cursor = p.parent_span_id;
        }
    }
    assert!(saw_multi_hop, "no dispatch chained through a dispatch on another node");
    assert!(saw_client_root, "no dispatch chain roots in the client process");
}

// ---------------------------------------------------------------------------
// Chaos: propagation links survive dropped, duplicated and delayed frames
// ---------------------------------------------------------------------------

fn echo_object() -> Arc<dyn Invokable> {
    Arc::new(FnInvokable(|method: &str, args: &[Value]| match method {
        "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
        _ => Err(parc::remoting::RemotingError::MethodNotFound {
            object: "Echo".into(),
            method: method.into(),
        }),
    }))
}

/// Hammers an echo object through a chaos-wrapped channel and asserts the
/// ring's causal invariants still hold.
fn chaos_run(chan: Arc<dyn ClientChannel>, plan: &Arc<FaultPlan>) {
    let chaotic: Arc<dyn ClientChannel> = Arc::new(ChaosChannel::new(chan, Arc::clone(plan)));
    let proxy = RemoteObject::new(chaotic, "Echo")
        .with_retry(RetryPolicy::new(30, Duration::ZERO, Duration::ZERO));
    for i in 0..40i64 {
        let out = proxy.call_idempotent("echo", vec![Value::I64(i)]).unwrap();
        assert_eq!(out, Value::I64(i));
        if i % 4 == 0 {
            // Posts too: one-way frames carry the same trace extension.
            let _ = proxy.post("echo", vec![Value::I64(-i)]);
        }
    }
    assert!(plan.messages_seen() >= 40, "chaos plan saw too little traffic");

    let all = wait_for_dispatches(30);
    assert_causally_well_formed(&all);
    // Drops + retries mean *some* send spans have no surviving dispatch —
    // but dispatches we did record must outnumber nothing: the run really
    // traced its survivors.
    assert!(
        all.iter().filter(|s| s.kind == kinds::DISPATCH && s.trace_id != 0).count() >= 30,
        "too few traced dispatches survived chaos"
    );
}

#[test]
fn chaos_drop_dup_delay_keeps_traces_causal_over_mux() {
    let _guard = parc::obs::test_lock();
    parc::obs::set_enabled(true);
    parc::obs::reset();

    let server =
        TcpServerChannel::bind_with_workers("127.0.0.1:0", 2).unwrap();
    server.objects().register_singleton("Echo", echo_object());
    let chan: Arc<dyn ClientChannel> =
        Arc::new(TcpClientChannel::connect_pooled(&server.local_addr().to_string(), 1).unwrap());
    let plan =
        Arc::new(FaultPlan::new(0x7AC3, FaultSpec::parse("drop=0.15,delay=0.1:1,dup=0.15")));
    chaos_run(chan, &plan);
    parc::obs::set_enabled(false);
}
