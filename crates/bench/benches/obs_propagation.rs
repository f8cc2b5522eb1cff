//! Overhead of cross-node trace propagation on the hot call path.
//!
//! Every traced remote call now carries a 24-byte trace extension on the
//! wire and re-parents the server's dispatch span under the client's
//! send. This bench prices that machinery where it matters — the TCP mux
//! request/response path — in both states:
//!
//! * **obs off** — context only: the disabled path costs one relaxed
//!   atomic load per call site and ships no extension.
//! * **obs on, propagation off** — span recording without context
//!   injection: the pre-propagation enabled path, isolated via
//!   `parc_obs::trace::set_propagation(false)`.
//! * **obs on, propagation on** — recording plus the 24-byte extension
//!   and dispatch re-parenting: what a traced production run pays.
//!
//! `propagation_vs_recording_calls_ratio` is the acceptance metric:
//! ≥ 0.95 keeps the "context injection ≤5% overhead with obs enabled"
//! budget honest by comparing against the same recording-enabled path
//! rather than charging injection for recording itself.

use std::sync::Arc;

use parc_bench::harness::{metric, Criterion};
use parc_bench::{criterion_group, criterion_main};
use parc_remoting::dispatcher::FnInvokable;
use parc_remoting::tcp::{TcpClientChannel, TcpServerChannel};
use parc_remoting::{ClientChannel, RemoteObject, RemotingError};
use parc_serial::Value;

/// Payload element count (i32s) carried by every call.
const PAYLOAD_ELEMS: i32 = 32;

/// Calls per measured round.
const CALLS: usize = 2_000;

fn spin_server() -> TcpServerChannel {
    let server =
        TcpServerChannel::bind_with_workers("127.0.0.1:0", 2).expect("bind bench server");
    server.objects().register_singleton(
        "Work",
        Arc::new(FnInvokable(|method: &str, args: &[Value]| match method {
            "work" => {
                let arr = args.first().and_then(Value::as_i32_array).ok_or_else(|| {
                    RemotingError::BadArguments {
                        method: "work".into(),
                        detail: "expected i32 array".into(),
                    }
                })?;
                Ok(Value::I64(arr.iter().map(|&x| i64::from(x)).sum()))
            }
            _ => Err(RemotingError::MethodNotFound {
                object: "Work".into(),
                method: method.into(),
            }),
        })),
    );
    server
}

/// Round-trips `CALLS` calls on one mux socket, returning calls/s.
fn calls_per_s(chan: &Arc<dyn ClientChannel>) -> f64 {
    let proxy = RemoteObject::new(Arc::clone(chan), "Work");
    let payload = Value::I32Array((0..PAYLOAD_ELEMS).collect());
    let start = std::time::Instant::now();
    for _ in 0..CALLS {
        proxy.call("work", vec![payload.clone()]).expect("bench call");
    }
    CALLS as f64 / start.elapsed().as_secs_f64()
}

fn best_of(rounds: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..rounds).map(|_| f()).fold(0.0, f64::max)
}

fn bench_obs_propagation(_c: &mut Criterion) {
    let server = spin_server();
    let addr = server.local_addr().to_string();
    let chan: Arc<dyn ClientChannel> =
        Arc::new(TcpClientChannel::connect_pooled(&addr, 1).expect("mux connect"));

    // Fully-off reference: one relaxed load per call site, no extension.
    parc_obs::set_enabled(false);
    let _ = calls_per_s(&chan); // warm
    let off = best_of(5, || calls_per_s(&chan));
    metric("obs_off_calls_per_s", off);

    // Recording-only vs recording+injection, in *interleaved* rounds so
    // clock drift and cache state hit both states equally.
    parc_obs::set_enabled(true);
    let mut recording = 0.0f64;
    let mut traced = 0.0f64;
    for _ in 0..6 {
        parc_obs::trace::set_propagation(false);
        let _ = calls_per_s(&chan); // warm the state switch
        recording = recording.max(calls_per_s(&chan));
        parc_obs::trace::set_propagation(true);
        let _ = calls_per_s(&chan);
        traced = traced.max(calls_per_s(&chan));
    }
    parc_obs::set_enabled(false);
    metric("obs_recording_only_calls_per_s", recording);
    metric("obs_propagation_calls_per_s", traced);
    metric(
        "obs_enabled_ring_spans",
        parc_obs::recorder().snapshot().len() as f64,
    );
    parc_obs::reset();

    // Acceptance: context injection must cost ≤5% of a recording run.
    metric("propagation_vs_recording_calls_ratio", traced / recording);
    metric("propagation_overhead_pct", (1.0 - traced / recording) * 100.0);
    // Informational: what full tracing costs relative to obs-off.
    metric("obs_enabled_vs_off_calls_ratio", traced / off);
}

criterion_group!(benches, bench_obs_propagation);
criterion_main!(benches);
