//! Closed-loop adaptive aggregation against hand-tuned fixed batch
//! sizes, plus the flat-vs-`Value`-list flush micro.
//!
//! One server object ("bulk") charges a fixed per-message dispatch
//! overhead — a 40 µs sleep per wire message before the batch unpacks —
//! which is the paper's overhead-dominated regime where aggregation
//! pays. A second object ("probe") serves a prober thread whose ~1 ms
//! synchronous calls keep the channel's [`LinkFeedback`] fresh (RTT
//! EWMA plus the piggybacked dispatch depth); the prober runs for every
//! configuration so feedback traffic is identical whether or not the
//! policy consumes it.
//!
//! Two workloads per transport (mux, reactor) and per policy
//! (fixed 1/8/64, closed-loop controller):
//!
//! * **uniform** — a flood of cheap one-way calls, makespan through a
//!   drain barrier. Big fixed batches win here; the controller must stay
//!   within 0.9× of the best fixed size.
//! * **bursty** — a paced 1 ms trickle of deadline-sensitive calls with
//!   periodic floods injected on the same proxy. Fixed sizes lose one
//!   way or the other: small sizes melt down under the flood's
//!   per-message overhead (server backlog outlives the burst window),
//!   large sizes hold trickle calls hostage until the buffer fills
//!   (the pre-PR aggregation had no linger). Goodput = trickle calls
//!   whose enqueue→server-execute latency meets a 3 ms deadline, per
//!   wall second; the controller must beat the best fixed size ≥ 1.5×.
//!
//! The controller configuration is the shipped default except for a
//! 500 µs linger (the trickle is 1 ms-paced, so the default 2 ms linger
//! would eat most of the deadline budget). Fixed policies flush on fill
//! only — that is exactly the open-loop `aggregation(n)` behavior this
//! PR's controller replaces. The adaptive policy steps the controller
//! once per fresh depth sample, mirroring `Po`'s closed loop, with a
//! pinned 2 µs call-cost hint so decisions depend only on the measured
//! link, not on a service-time estimator warming up.
//!
//! Both phases ship every batch over the flat length-prefixed wire path
//! (`__batch_flat`).

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_bench::harness::{metric, Criterion};
use parc_bench::{criterion_group, criterion_main};
use parc_core::batch::{encode_flat_call, BatchDispatcher, FLAT_BATCH_METHOD};
use parc_core::{BatchConfig, BatchController};
use parc_remoting::channel::LinkFeedback;
use parc_remoting::dispatcher::FnInvokable;
use parc_remoting::tcp::{TcpClientChannel, TcpServerChannel};
use parc_remoting::{
    ClientChannel, Invokable, ObjectTable, ReactorClientChannel, ReactorServerChannel,
    RemoteObject, RemotingError,
};
use parc_serial::{BinaryFormatter, Value};

/// Fixed dispatch cost charged per wire message by the "bulk" object.
const OVERHEAD_PER_MSG: Duration = Duration::from_micros(40);

/// Pinned per-call cost hint fed to the controller (stands in for the
/// grain adapter's service-time EWMA, which the cheap calls would drive
/// to ~0 anyway).
const COST_HINT: Duration = Duration::from_micros(2);

/// Controller linger for the adaptive policy (see module docs).
const ADAPTIVE_LINGER: Duration = Duration::from_micros(500);

/// Per-call deadline in milliseconds; client sync-call timeout.
const DEADLINE: Duration = Duration::from_millis(3);
const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Prober cadence: one feedback sample per ~millisecond.
const PROBE_GAP: Duration = Duration::from_millis(1);

/// Uniform phase: calls per timed flood, best of two floods.
const UNIFORM_CALLS: usize = 16_384;
const UNIFORM_REPS: usize = 2;

/// Bursty phase: 1 ms trickle ticks with floods every 300 ticks.
const TRICKLE_TICKS: usize = 1_200;
const TICK: Duration = Duration::from_millis(1);
const BURST_FIRST: usize = 150;
const BURST_EVERY: usize = 300;
const BURST_CALLS: usize = 8_192;

/// Shared between the in-process server handlers and the measuring
/// client: execution counts and per-trickle-call execute timestamps
/// (nanoseconds since `epoch`, one slot per tick).
struct ServerState {
    executed: Arc<AtomicI64>,
    epoch: Instant,
    exec_ns: Arc<Vec<AtomicU64>>,
}

impl ServerState {
    fn new() -> ServerState {
        ServerState {
            executed: Arc::new(AtomicI64::new(0)),
            epoch: Instant::now(),
            exec_ns: Arc::new((0..TRICKLE_TICKS).map(|_| AtomicU64::new(0)).collect()),
        }
    }
}

/// Charges [`OVERHEAD_PER_MSG`] once per wire message, then unpacks —
/// the fixed per-message cost aggregation amortizes.
struct PerMessageOverhead(BatchDispatcher);

impl Invokable for PerMessageOverhead {
    fn invoke(&self, method: &str, args: &[Value]) -> Result<Value, RemotingError> {
        std::thread::sleep(OVERHEAD_PER_MSG);
        self.0.invoke(method, args)
    }
}

fn register_objects(objects: &ObjectTable, state: &ServerState) {
    let executed = Arc::clone(&state.executed);
    let exec_ns = Arc::clone(&state.exec_ns);
    let epoch = state.epoch;
    let inner = Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
        "cheap" => {
            executed.fetch_add(1, Ordering::SeqCst);
            Ok(Value::Null)
        }
        "timed" => {
            let idx = args.first().and_then(Value::as_i64).unwrap_or(-1);
            if let Some(slot) = usize::try_from(idx).ok().and_then(|i| exec_ns.get(i)) {
                slot.store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            executed.fetch_add(1, Ordering::SeqCst);
            Ok(Value::Null)
        }
        "count" => Ok(Value::I64(executed.load(Ordering::SeqCst))),
        _ => Err(RemotingError::MethodNotFound { object: "bulk".into(), method: method.into() }),
    }));
    objects.register_singleton("bulk", Arc::new(PerMessageOverhead(BatchDispatcher::new(inner))));
    // The probe pays the same per-message overhead, so the RTT EWMA
    // reflects what shipping one message actually costs here.
    objects.register_singleton(
        "probe",
        Arc::new(FnInvokable(|method: &str, _args: &[Value]| match method {
            "ping" => {
                std::thread::sleep(OVERHEAD_PER_MSG);
                Ok(Value::Null)
            }
            _ => Err(RemotingError::MethodNotFound {
                object: "probe".into(),
                method: method.into(),
            }),
        })),
    );
}

/// Keeps whichever server variant alive for the config's lifetime (the
/// fields are never read — dropping them closes the listener).
#[allow(dead_code)]
enum Server {
    Mux(TcpServerChannel),
    Reactor(ReactorServerChannel),
}

fn start_server(transport: &str, state: &ServerState) -> (Server, String) {
    // One worker pins the drain rate: backlog is real, not absorbed by
    // spare cores, and both transports dispatch identically.
    let workers = 1;
    match transport {
        "mux" => {
            let server =
                TcpServerChannel::bind_with_workers("127.0.0.1:0", workers).expect("bind mux server");
            register_objects(server.objects(), state);
            let addr = server.local_addr().to_string();
            (Server::Mux(server), addr)
        }
        _ => {
            let server = ReactorServerChannel::bind_with_workers("127.0.0.1:0", workers)
                .expect("bind reactor server");
            register_objects(server.objects(), state);
            let addr = server.local_addr().to_string();
            (Server::Reactor(server), addr)
        }
    }
}

fn connect(transport: &str, addr: &str) -> Arc<dyn ClientChannel> {
    match transport {
        // Pool of one socket: batches must not round-robin across
        // connections or the FIFO the phases assert on would be lost.
        "mux" => Arc::new(
            TcpClientChannel::connect_pooled_with_timeout(addr, 1, CALL_TIMEOUT)
                .expect("connect mux client"),
        ),
        _ => Arc::new(
            ReactorClientChannel::connect_with_timeout(addr, CALL_TIMEOUT)
                .expect("connect reactor client"),
        ),
    }
}

enum Policy {
    /// Flush on fill only — the pre-PR open-loop `aggregation(n)`.
    Fixed(usize),
    /// The PR's closed loop: step once per fresh piggybacked depth
    /// sample, flush on fill or linger.
    Adaptive { controller: BatchController, feedback: Arc<LinkFeedback>, seen: u64 },
}

/// Client-side aggregation buffer over the flat wire path — the same
/// enqueue-time serialization `Po` performs, extracted so fixed and
/// adaptive policies differ only in their flush decision.
struct Batcher {
    remote: RemoteObject,
    formatter: BinaryFormatter,
    buf: Vec<u8>,
    count: usize,
    oldest: Option<Instant>,
    policy: Policy,
}

impl Batcher {
    fn new(remote: RemoteObject, policy: Policy) -> Batcher {
        Batcher {
            remote,
            formatter: BinaryFormatter::new(),
            buf: Vec::new(),
            count: 0,
            oldest: None,
            policy,
        }
    }

    fn size(&mut self) -> usize {
        match &mut self.policy {
            Policy::Fixed(s) => *s,
            Policy::Adaptive { controller, feedback, seen } => {
                let samples = feedback.depth_samples();
                if samples > *seen {
                    *seen = samples;
                    if let (Some(rtt), Some((pending, _))) = (feedback.rtt(), feedback.depth()) {
                        controller.observe(rtt, COST_HINT, pending);
                    }
                }
                controller.current()
            }
        }
    }

    fn push(&mut self, method: &str, args: &[Value]) {
        encode_flat_call(&self.formatter, &mut self.buf, method, args).expect("encode call");
        self.count += 1;
        if self.oldest.is_none() {
            self.oldest = Some(Instant::now());
        }
        let fill = self.size();
        let lingered = match &self.policy {
            Policy::Fixed(_) => false,
            Policy::Adaptive { controller, .. } => self
                .oldest
                .is_some_and(|t| t.elapsed() >= controller.config().linger),
        };
        if self.count >= fill || lingered {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.count == 0 {
            return;
        }
        let bytes = std::mem::take(&mut self.buf);
        self.count = 0;
        self.oldest = None;
        self.remote.post(FLAT_BATCH_METHOD, vec![Value::Bytes(bytes)]).expect("flush batch");
    }
}

/// Two-way barrier behind the bulk object's mailbox: returning means
/// every earlier batch on this connection has executed.
fn barrier(bulk: &RemoteObject) -> i64 {
    bulk.call("count", vec![]).expect("drain barrier").as_i64().expect("count is numeric")
}

/// Runs one (transport, policy) configuration end to end; returns
/// (uniform calls/s, bursty goodput/s).
fn run_config(transport: &str, fixed: Option<usize>) -> (f64, f64) {
    let state = ServerState::new();
    let (server, addr) = start_server(transport, &state);
    let chan = connect(transport, &addr);
    let feedback = chan.feedback().expect("transport must expose link feedback");

    let stop = Arc::new(AtomicBool::new(false));
    let prober = {
        let chan = Arc::clone(&chan);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let probe = RemoteObject::new(chan, "probe");
            while !stop.load(Ordering::Relaxed) {
                if probe.call("ping", vec![]).is_err() {
                    return;
                }
                std::thread::sleep(PROBE_GAP);
            }
        })
    };

    let bulk = RemoteObject::new(Arc::clone(&chan), "bulk");
    let policy = match fixed {
        Some(size) => Policy::Fixed(size),
        None => Policy::Adaptive {
            controller: BatchController::new(BatchConfig {
                linger: ADAPTIVE_LINGER,
                ..BatchConfig::default()
            }),
            feedback: Arc::clone(&feedback),
            seen: 0,
        },
    };
    let mut batcher = Batcher::new(RemoteObject::new(Arc::clone(&chan), "bulk"), policy);

    // Untimed warmup: sockets, buffer pools, both dispatch paths.
    for _ in 0..512 {
        batcher.push("cheap", &[]);
    }
    batcher.flush();
    barrier(&bulk);
    // Paced warmup over drained queues. The closed loop only grows on
    // low-depth reports, so a cold flood would pin it at min — pace
    // until the controller has demonstrably grown (every config pays
    // the same 80-tick floor, so the fixed baselines warm identically).
    // The floor of 64 sits well under any plausible wire target here:
    // the probe's 40 µs overhead alone puts the RTT EWMA ≥ ~70 µs, for
    // a target ≥ 140.
    let warmup_deadline = Instant::now() + Duration::from_secs(2);
    let mut ticks = 0;
    loop {
        let settled = match &batcher.policy {
            Policy::Fixed(_) => ticks >= 80,
            Policy::Adaptive { controller, .. } => {
                ticks >= 80 && (controller.current() >= 64 || Instant::now() >= warmup_deadline)
            }
        };
        if settled {
            break;
        }
        batcher.push("cheap", &[]);
        ticks += 1;
        std::thread::sleep(Duration::from_micros(300));
    }
    batcher.flush();
    barrier(&bulk);

    // Uniform flood, makespan through the drain barrier.
    let mut uniform: f64 = 0.0;
    for _ in 0..UNIFORM_REPS {
        let before = state.executed.load(Ordering::SeqCst);
        let start = Instant::now();
        for _ in 0..UNIFORM_CALLS {
            batcher.push("cheap", &[]);
        }
        batcher.flush();
        let done = barrier(&bulk) - before;
        assert_eq!(done, UNIFORM_CALLS as i64, "lost uniform calls");
        uniform = uniform.max(UNIFORM_CALLS as f64 / start.elapsed().as_secs_f64());
    }

    // Bursty: paced deadline-sensitive trickle with periodic floods.
    let bursts = (BURST_FIRST..TRICKLE_TICKS).step_by(BURST_EVERY).count();
    let before = state.executed.load(Ordering::SeqCst);
    let mut post_ns = vec![0u64; TRICKLE_TICKS];
    let start = Instant::now();
    for tick in 0..TRICKLE_TICKS {
        if tick >= BURST_FIRST && (tick - BURST_FIRST) % BURST_EVERY == 0 {
            for _ in 0..BURST_CALLS {
                batcher.push("cheap", &[]);
            }
        }
        post_ns[tick] = state.epoch.elapsed().as_nanos() as u64;
        batcher.push("timed", &[Value::I64(tick as i64)]);
        std::thread::sleep(TICK);
    }
    batcher.flush();
    let expected = (TRICKLE_TICKS + bursts * BURST_CALLS) as i64;
    assert_eq!(barrier(&bulk) - before, expected, "lost bursty calls");
    let wall = start.elapsed().as_secs_f64();
    let met = (0..TRICKLE_TICKS)
        .filter(|&tick| {
            let exec = state.exec_ns[tick].load(Ordering::Relaxed);
            exec >= post_ns[tick]
                && exec - post_ns[tick] <= DEADLINE.as_nanos() as u64
        })
        .count();
    let goodput = met as f64 / wall;

    stop.store(true, Ordering::Relaxed);
    let _ = prober.join();
    drop(server);
    (uniform, goodput)
}

fn bench_adaptive_batching(_c: &mut Criterion) {
    let mut worst_uniform = f64::INFINITY;
    let mut worst_bursty = f64::INFINITY;
    for transport in ["mux", "reactor"] {
        let mut best_fixed_uniform: f64 = 0.0;
        let mut best_fixed_bursty: f64 = 0.0;
        let mut adaptive_uniform = 0.0;
        let mut adaptive_bursty = 0.0;
        for fixed in [Some(1), Some(8), Some(64), None] {
            let label = fixed.map_or("adaptive".to_string(), |s| format!("fixed{s}"));
            let (uniform, goodput) = run_config(transport, fixed);
            metric(&format!("uniform_{transport}_{label}_calls_per_s"), uniform);
            metric(&format!("bursty_{transport}_{label}_goodput_per_s"), goodput);
            if fixed.is_some() {
                best_fixed_uniform = best_fixed_uniform.max(uniform);
                best_fixed_bursty = best_fixed_bursty.max(goodput);
            } else {
                adaptive_uniform = uniform;
                adaptive_bursty = goodput;
            }
        }
        let uniform_ratio = adaptive_uniform / best_fixed_uniform;
        let bursty_ratio = adaptive_bursty / best_fixed_bursty;
        metric(&format!("uniform_controller_vs_best_fixed_{transport}"), uniform_ratio);
        metric(&format!("bursty_controller_vs_best_fixed_{transport}"), bursty_ratio);
        worst_uniform = worst_uniform.min(uniform_ratio);
        worst_bursty = worst_bursty.min(bursty_ratio);
    }
    // The acceptance ratios report the controller's *worst* transport.
    metric("uniform_controller_vs_best_fixed", worst_uniform);
    metric("bursty_controller_vs_best_fixed", worst_bursty);
}

criterion_group!(benches, bench_adaptive_batching);
criterion_main!(benches);
