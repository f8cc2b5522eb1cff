//! The six workloads: seeded inputs, set-up, one timed round, and the
//! output check of every operation.
//!
//! All of them are closed loops — a caller issues its next operation only
//! after the previous reply or barrier — and all of them reach the program
//! through its default entry points only (see `README.md`, "Entry points").

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_apps::raytracer::{render_image, render_line, Scene};
use parc_apps::sieve::{
    reference_primes, register_prime_filter_class, Filtered, PrimeFilterStage, PRIME_SERVER_CLASS,
};
use parc_core::{Farm, ParcRuntime, Pipeline, Po};
use parc_remoting::dispatcher::FnInvokable;
use parc_remoting::inproc::{InprocEndpoint, InprocNetwork};
use parc_remoting::tcp::{TcpChannelProvider, TcpServerChannel};
use parc_remoting::wellknown::WellKnownObjectMode;
use parc_remoting::{Activator, DispatchStats, Invokable, RemoteObject, RemotingError};
use parc_serial::Value;

use crate::placement::Placement;
use crate::stats::SplitMix64;
use crate::trace::Recorder;

/// Two-way calls per timed round of the ping-pong workloads.
const PINGPONG_CALLS: usize = 1_000;
const PINGPONG_WARMUP: usize = 2_000;
/// 256 KiB of `i32`s: Fig. 8a's bandwidth end of the axis.
const BULK_ELEMENTS: usize = 65_536;
const BULK_CALLS: usize = 8;
const BULK_WARMUP: usize = 64;
/// One-way posts per caller thread per round (two callers: 200 000 a round).
const FLOOD_POSTS: usize = 100_000;
const FLOOD_CALLERS: usize = 2;
const FLOOD_AGGREGATION: usize = 64;
const SIEVE_LIMIT: u32 = 5_000;
/// Fig. 7's `maxCalls`.
const SIEVE_AGGREGATION: usize = 16;
/// The paper's Ray Tracer problem: 64 spheres, 500×500 pixels.
pub const FRAME: usize = 500;
const SPHERES: usize = 64;
pub const FARM_WORKERS: usize = 2;
/// Full-size rounds a runtime workload runs before it is timed.
const WARMUP_ROUNDS: usize = 2;
const NODES: usize = 2;

/// Which transport a workload's calls cross.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Link {
    Tcp,
    Inproc,
}

/// One timed round.
pub struct Round {
    pub wall: Duration,
    /// Remote invocations the server executed for this round.
    pub ops: u64,
    /// Useful argument + result bytes delivered, headers excluded.
    pub payload_bytes: u64,
    pub attempted: u64,
    /// Operations that errored, timed out or returned a wrong value.
    pub failed: u64,
}

/// Running totals of the serving side's public counters.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub executed: u64,
    pub stolen: u64,
    /// Largest dispatch backlog seen at a sampling point (not a delta).
    pub max_depth: u64,
    pub async_calls: u64,
    pub sync_calls: u64,
    pub messages: u64,
    pub batches: u64,
}

impl Counters {
    /// What was counted since `before`; `max_depth` is a high-water mark
    /// and is carried over as it stands.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            executed: self.executed - before.executed,
            stolen: self.stolen - before.stolen,
            max_depth: self.max_depth,
            async_calls: self.async_calls - before.async_calls,
            sync_calls: self.sync_calls - before.sync_calls,
            messages: self.messages - before.messages,
            batches: self.batches - before.batches,
        }
    }
}

pub trait Workload {
    /// Runs one round, pushing every two-way round trip the caller itself
    /// waits out (ns) into `rtts`: the echoes of 1–3, nothing on 4–6.
    fn round(&mut self, rec: &mut Recorder, rtts: &mut Vec<f64>) -> Round;
    fn counters(&self) -> Counters;
}

/// The message shape of a workload, for the isolated layer replay.
pub struct Shape {
    pub link: Link,
    pub method: &'static str,
    pub args: Vec<Value>,
    pub reply: Value,
    /// `maxCalls` the workload's runtime uses (16 where it has none).
    pub aggregation: usize,
}

/// Everything a workload reads, generated from `--seed`.
#[derive(Default)]
pub struct Inputs {
    /// Scalar arguments of the ping-pongs and of `post_flood`.
    scalars: Vec<i32>,
    /// Bulk payload of `echo_bulk_tcp`.
    array: Vec<i32>,
    /// `sieve_pipeline`: 2..=5000 cut into feed chunks, and what must come out.
    chunks: Vec<Vec<i32>>,
    primes: Vec<u32>,
    /// Candidate forwards between stages, counted on the sequential oracle.
    pub sieve_hops: u64,
    /// `raytracer_farm`: the order lines are handed to the farm, and the
    /// sequential render they must add up to.
    lines: Vec<usize>,
    checksum: f64,
}

impl Inputs {
    pub fn generate(workload: &str, seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let mut inputs = Inputs::default();
        match workload {
            "pingpong_small_tcp" | "pingpong_small_inproc" => {
                inputs.scalars = (0..4096).map(|_| rng.next_u64() as i32).collect();
            }
            "echo_bulk_tcp" => {
                inputs.array = (0..BULK_ELEMENTS).map(|_| rng.next_u64() as i32).collect();
            }
            "post_flood" => {
                inputs.scalars = (0..4096).map(|_| rng.below(2001) as i32 - 1000).collect();
            }
            "sieve_pipeline" => {
                let mut next = 2;
                while next <= SIEVE_LIMIT {
                    let len = 1 + rng.below(4) as u32;
                    let end = (next + len - 1).min(SIEVE_LIMIT);
                    inputs.chunks.push((next..=end).map(|c| c as i32).collect());
                    next = end + 1;
                }
                inputs.primes = reference_primes(SIEVE_LIMIT);
                let mut stages: Vec<PrimeFilterStage> = inputs
                    .primes
                    .iter()
                    .map(|_| PrimeFilterStage::new())
                    .collect();
                for candidate in 2..=SIEVE_LIMIT {
                    let mut current = candidate;
                    for stage in &mut stages {
                        match stage.offer(current) {
                            Filtered::Forward(c) => {
                                inputs.sieve_hops += 1;
                                current = c;
                            }
                            Filtered::Claimed(_) | Filtered::Dropped => break,
                        }
                    }
                }
            }
            "raytracer_farm" => {
                inputs.lines = (0..FRAME).collect();
                for i in (1..FRAME).rev() {
                    inputs.lines.swap(i, rng.below(i as u64 + 1) as usize);
                }
                inputs.checksum = render_image(&Scene::jgf(SPHERES), FRAME, FRAME).checksum();
            }
            _ => {}
        }
        inputs
    }
}

/// Median wall-clock of the farm's frame rendered by calling `render_line`
/// directly, line after line (which is all `render_image` does), caches
/// warm: what `raytracer_farm` would cost with no runtime at all.
pub fn sequential_render_s() -> f64 {
    let scene = Scene::jgf(SPHERES);
    let mut times: Vec<f64> = (0..6)
        .map(|_| {
            let t = Instant::now();
            for y in 0..FRAME {
                std::hint::black_box(render_line(&scene, FRAME, FRAME, y));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    // The first render pays for cold caches.
    crate::stats::median(&mut times[1..])
}

/// Builds the workload and warms it up; the time this takes is `setup_s`.
pub fn setup(
    workload: &str,
    inputs: &Inputs,
    placement: &mut Placement,
) -> Result<Box<dyn Workload>, String> {
    let scalars = || -> Vec<Value> { inputs.scalars.iter().map(|&v| Value::I32(v)).collect() };
    let array = || vec![Value::I32Array(inputs.array.clone())];
    Ok(match workload {
        "pingpong_small_tcp" => Box::new(Echo::setup(
            Link::Tcp,
            scalars(),
            PINGPONG_CALLS,
            PINGPONG_WARMUP,
            placement,
        )?),
        "pingpong_small_inproc" => Box::new(Echo::setup(
            Link::Inproc,
            scalars(),
            PINGPONG_CALLS,
            PINGPONG_WARMUP,
            placement,
        )?),
        "echo_bulk_tcp" => Box::new(Echo::setup(
            Link::Tcp,
            array(),
            BULK_CALLS,
            BULK_WARMUP,
            placement,
        )?),
        "post_flood" => Box::new(PostFlood::setup(inputs)?),
        "sieve_pipeline" => Box::new(Sieve::setup(inputs)?),
        "raytracer_farm" => Box::new(Raytracer::setup(inputs)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

pub fn shape(workload: &str, inputs: &Inputs) -> Shape {
    let echo = |link, payload: Value| Shape {
        link,
        method: "echo",
        args: vec![payload.clone()],
        reply: payload,
        aggregation: 16,
    };
    match workload {
        "pingpong_small_tcp" => echo(Link::Tcp, Value::I32(inputs.scalars[0])),
        "pingpong_small_inproc" => echo(Link::Inproc, Value::I32(inputs.scalars[0])),
        "echo_bulk_tcp" => echo(Link::Tcp, Value::I32Array(inputs.array.clone())),
        "post_flood" => Shape {
            link: Link::Inproc,
            method: "add",
            args: vec![Value::I32(inputs.scalars[0])],
            reply: Value::Null,
            aggregation: FLOOD_AGGREGATION,
        },
        "sieve_pipeline" => Shape {
            link: Link::Inproc,
            method: "process",
            args: vec![Value::I32Array(
                inputs.chunks[inputs.chunks.len() / 2].clone(),
            )],
            reply: Value::Null,
            aggregation: SIEVE_AGGREGATION,
        },
        "raytracer_farm" => Shape {
            link: Link::Inproc,
            method: "render_line",
            // The middle line, whatever the seed: lines differ in cost.
            args: line_item(FRAME / 2),
            reply: Value::F64Array(
                render_line(&Scene::jgf(SPHERES), FRAME, FRAME, FRAME / 2).pixels,
            ),
            aggregation: 1,
        },
        other => unreachable!("shape of unknown workload {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Serving side shared by the remoting-level workloads and the replay.
// ---------------------------------------------------------------------

/// One server reached the way the README quickstart reaches it.
pub enum Host {
    Tcp(TcpServerChannel),
    Inproc {
        net: InprocNetwork,
        endpoint: InprocEndpoint,
    },
}

impl Host {
    pub fn start(link: Link) -> Result<Host, RemotingError> {
        Ok(match link {
            Link::Tcp => Host::Tcp(TcpServerChannel::bind("127.0.0.1:0")?),
            Link::Inproc => {
                let net = InprocNetwork::new();
                let endpoint = net.create_endpoint("callpath")?;
                Host::Inproc { net, endpoint }
            }
        })
    }

    pub fn publish(&self, name: &str, object: Arc<dyn Invokable>) {
        let objects = match self {
            Host::Tcp(server) => server.objects(),
            Host::Inproc { endpoint, .. } => endpoint.objects(),
        };
        objects.register_well_known(name, WellKnownObjectMode::Singleton, move || {
            Arc::clone(&object)
        });
    }

    pub fn uri(&self, name: &str) -> String {
        match self {
            Host::Tcp(server) => server.uri_for(name),
            Host::Inproc { .. } => format!("inproc://callpath/{name}"),
        }
    }

    /// A fresh proxy over a fresh channel (for TCP: new sockets).
    pub fn connect(&self, name: &str) -> Result<RemoteObject, RemotingError> {
        match self {
            Host::Tcp(_) => Activator::get_object(&TcpChannelProvider::new(), &self.uri(name)),
            Host::Inproc { net, .. } => Activator::get_object(net, &self.uri(name)),
        }
    }

    pub fn stats(&self) -> Option<DispatchStats> {
        match self {
            Host::Tcp(server) => server.dispatch_stats(),
            Host::Inproc { endpoint, .. } => endpoint.dispatch_stats(),
        }
    }

    /// Jobs queued or running on the server's mailbox scheduler right now.
    pub fn pending(&self) -> u64 {
        let depth = match self {
            Host::Tcp(server) => server.dispatch_depth(),
            Host::Inproc { endpoint, .. } => endpoint.dispatch_depth(),
        };
        depth.map_or(0, |d| d.pending() as u64)
    }
}

fn method_not_found(object: &str, method: &str) -> RemotingError {
    RemotingError::MethodNotFound {
        object: object.into(),
        method: method.into(),
    }
}

fn bad_arguments(method: &str, detail: &str) -> RemotingError {
    RemotingError::BadArguments {
        method: method.into(),
        detail: detail.into(),
    }
}

fn echo_object() -> Arc<dyn Invokable> {
    Arc::new(FnInvokable(|method: &str, args: &[Value]| match method {
        "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
        _ => Err(method_not_found("Echo", method)),
    }))
}

fn adder_object() -> Arc<dyn Invokable> {
    let total = AtomicI64::new(0);
    Arc::new(FnInvokable(
        move |method: &str, args: &[Value]| match method {
            "add" => {
                let v = args
                    .first()
                    .and_then(Value::as_i32)
                    .ok_or_else(|| bad_arguments("add", "expected an int"))?;
                total.fetch_add(i64::from(v), Ordering::Relaxed);
                Ok(Value::Null)
            }
            "total" => Ok(Value::I64(total.load(Ordering::Relaxed))),
            _ => Err(method_not_found("Adder", method)),
        },
    ))
}

fn register_renderer(rt: &ParcRuntime) {
    let scene = Scene::jgf(SPHERES);
    rt.register_class("Renderer", move || {
        let scene = scene.clone();
        Arc::new(FnInvokable(
            move |method: &str, args: &[Value]| match method {
                "render_line" => {
                    let dim = |i: usize| {
                        args.get(i)
                            .and_then(Value::as_i64)
                            .and_then(|v| usize::try_from(v).ok())
                            .ok_or_else(|| {
                                bad_arguments("render_line", "expected (y, width, height)")
                            })
                    };
                    let line = render_line(&scene, dim(1)?, dim(2)?, dim(0)?);
                    Ok(Value::F64Array(line.pixels))
                }
                _ => Err(method_not_found("Renderer", method)),
            },
        ))
    });
}

fn line_item(y: usize) -> Vec<Value> {
    vec![
        Value::I64(y as i64),
        Value::I64(FRAME as i64),
        Value::I64(FRAME as i64),
    ]
}

pub fn two_node_runtime(aggregation: usize) -> Result<ParcRuntime, String> {
    let mut builder = ParcRuntime::builder();
    builder.nodes(NODES).aggregation(aggregation);
    builder.build().map_err(|e| e.to_string())
}

/// Serving-side counters of a runtime: proxy statistics plus every node's
/// mailbox scheduler, read through the public telemetry plane.
fn runtime_counters(rt: &ParcRuntime, max_depth: u64) -> Counters {
    let stats = rt.stats().snapshot();
    let mut counters = Counters {
        max_depth,
        async_calls: stats.async_calls,
        sync_calls: stats.sync_calls,
        messages: stats.messages_sent,
        batches: stats.batches_sent,
        ..Counters::default()
    };
    for node in rt.telemetry().poll() {
        counters.executed += node.executed.max(0) as u64;
        counters.stolen += node.steals.max(0) as u64;
    }
    counters
}

fn backlog(rt: &ParcRuntime) -> u64 {
    rt.node_queue_depths()
        .into_iter()
        .map(|d| d.max(0) as u64)
        .sum()
}

// ---------------------------------------------------------------------
// 1–3: two-way echo through RemoteObject::call
// ---------------------------------------------------------------------

struct Echo {
    host: Host,
    proxy: RemoteObject,
    payloads: Vec<Value>,
    next: usize,
    calls: usize,
    max_depth: u64,
}

impl Echo {
    fn setup(
        link: Link,
        payloads: Vec<Value>,
        calls: usize,
        warmup: usize,
        placement: &mut Placement,
    ) -> Result<Echo, String> {
        placement.serving_side()?;
        let host = Host::start(link).map_err(|e| e.to_string())?;
        host.publish("Echo", echo_object());
        placement.calling_side()?;
        let proxy = host.connect("Echo").map_err(|e| e.to_string())?;
        let mut echo = Echo {
            host,
            proxy,
            payloads,
            next: 0,
            calls: warmup,
            max_depth: 0,
        };
        let warm = echo.round(&mut Recorder::off(), &mut Vec::new());
        if warm.failed > 0 {
            return Err(format!("{} of {warmup} warm-up echoes failed", warm.failed));
        }
        echo.calls = calls;
        Ok(echo)
    }
}

impl Workload for Echo {
    fn round(&mut self, rec: &mut Recorder, rtts: &mut Vec<f64>) -> Round {
        let start = Instant::now();
        let mut failed = 0;
        let mut payload_bytes = 0;
        for _ in 0..self.calls {
            let payload = &self.payloads[self.next % self.payloads.len()];
            self.next += 1;
            let op = rec.op("echo");
            let args = rec.child(&op, "value_build", || vec![payload.clone()]);
            let sent = Instant::now();
            let reply = rec.child(&op, "call", || self.proxy.call("echo", args));
            rtts.push(sent.elapsed().as_nanos() as f64);
            let ok = rec.child(&op, "verify", || matches!(&reply, Ok(v) if v == payload));
            rec.end(op);
            failed += u64::from(!ok);
            payload_bytes += 2 * payload.payload_bytes() as u64;
        }
        self.max_depth = self.max_depth.max(self.host.pending());
        Round {
            wall: start.elapsed(),
            ops: self.calls as u64,
            payload_bytes,
            attempted: self.calls as u64,
            failed,
        }
    }

    fn counters(&self) -> Counters {
        let stats = self.host.stats();
        Counters {
            executed: stats.map_or(0, |s| s.executed),
            stolen: stats.map_or(0, |s| s.stolen),
            max_depth: self.max_depth,
            ..Counters::default()
        }
    }
}

// ---------------------------------------------------------------------
// 4: one-way post flood through Po, closed by a two-way barrier
// ---------------------------------------------------------------------

struct Caller {
    po: Po,
    /// What the server-side total must read after every post so far.
    expected: i64,
    cursor: usize,
}

struct PostFlood {
    rt: ParcRuntime,
    callers: Vec<Caller>,
    scalars: Vec<i32>,
    max_depth: u64,
}

/// What one caller thread reports back from a round.
struct CallerRound {
    rec: Recorder,
    barrier: Duration,
    depth: u64,
    failed: u64,
}

impl PostFlood {
    fn setup(inputs: &Inputs) -> Result<PostFlood, String> {
        let rt = two_node_runtime(FLOOD_AGGREGATION)?;
        rt.register_class("Adder", adder_object);
        let callers = (0..FLOOD_CALLERS)
            .map(|i| {
                let po = rt.create("Adder").map_err(|e| e.to_string())?;
                Ok(Caller {
                    po,
                    expected: 0,
                    cursor: i * 1024,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut flood = PostFlood {
            rt,
            callers,
            scalars: inputs.scalars.clone(),
            max_depth: 0,
        };
        for _ in 0..WARMUP_ROUNDS {
            if flood.round(&mut Recorder::off(), &mut Vec::new()).failed > 0 {
                return Err("post_flood warm-up lost posts".into());
            }
        }
        Ok(flood)
    }
}

impl Workload for PostFlood {
    fn round(&mut self, rec: &mut Recorder, _rtts: &mut Vec<f64>) -> Round {
        let (rt, scalars, posts) = (&self.rt, &self.scalars, FLOOD_POSTS);
        let start = Instant::now();
        let reports: Vec<CallerRound> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .callers
                .iter_mut()
                .enumerate()
                .map(|(i, caller)| {
                    let mut rec = rec.fork(i as u64 + 1, FLOOD_CALLERS);
                    scope.spawn(move || {
                        let mut failed = 0;
                        for _ in 0..posts {
                            let v = scalars[caller.cursor % scalars.len()];
                            caller.cursor += 1;
                            caller.expected += i64::from(v);
                            let op = rec.op("post");
                            let args = rec.child(&op, "value_build", || vec![Value::I32(v)]);
                            let sent = rec.child(&op, "po.post", || caller.po.post("add", args));
                            rec.end(op);
                            failed += u64::from(sent.is_err());
                        }
                        let depth = backlog(rt);
                        let op = rec.op("barrier");
                        let flushed = rec.child(&op, "po.flush", || caller.po.flush());
                        let total = rec.child(&op, "po.call", || caller.po.call("total", vec![]));
                        let barrier = start.elapsed();
                        rec.end(op);
                        let want = Value::I64(caller.expected);
                        if flushed.is_err() || total.as_ref().ok() != Some(&want) {
                            // Lost or duplicated posts cannot be told apart
                            // from outside: the whole round counts as failed.
                            failed = posts as u64;
                        }
                        CallerRound {
                            rec,
                            barrier,
                            depth,
                            failed,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        });
        let mut round = Round {
            wall: Duration::ZERO,
            ops: (posts * FLOOD_CALLERS) as u64,
            payload_bytes: (4 * posts * FLOOD_CALLERS) as u64,
            attempted: ((posts + 1) * FLOOD_CALLERS) as u64,
            failed: 0,
        };
        for report in reports {
            // First post → the slower caller's barrier reply.
            round.wall = round.wall.max(report.barrier);
            round.failed += report.failed;
            self.max_depth = self.max_depth.max(report.depth);
            rec.absorb(report.rec);
        }
        round
    }

    fn counters(&self) -> Counters {
        runtime_counters(&self.rt, self.max_depth)
    }
}

// ---------------------------------------------------------------------
// 5: the paper's sieve pipeline, a fresh runtime per round
// ---------------------------------------------------------------------

struct Sieve {
    chunks: Vec<Vec<i32>>,
    primes: Vec<u32>,
    hops: u64,
    /// Sums over the timed parts of all rounds so far.
    totals: Counters,
}

impl Sieve {
    fn setup(inputs: &Inputs) -> Result<Sieve, String> {
        let mut sieve = Sieve {
            chunks: inputs.chunks.clone(),
            primes: inputs.primes.clone(),
            hops: inputs.sieve_hops,
            totals: Counters::default(),
        };
        let warm = sieve.round(&mut Recorder::off(), &mut Vec::new());
        if warm.failed > 0 {
            return Err("sieve_pipeline warm-up produced wrong primes".into());
        }
        sieve.totals = Counters::default();
        Ok(sieve)
    }

    /// The untimed part of a round: runtime, class, pipeline.
    fn build(&self, rec: &mut Recorder) -> Result<(ParcRuntime, Pipeline), String> {
        let op = rec.op("sieve.build");
        let rt = rec.child(&op, "runtime.build", || two_node_runtime(SIEVE_AGGREGATION))?;
        register_prime_filter_class(&rt);
        let pipeline = rec
            .child(&op, "pipeline.new", || {
                Pipeline::new(&rt, PRIME_SERVER_CLASS, self.primes.len(), "connect")
            })
            .map_err(|e| e.to_string())?;
        rec.end(op);
        Ok((rt, pipeline))
    }
}

impl Workload for Sieve {
    fn round(&mut self, rec: &mut Recorder, _rtts: &mut Vec<f64>) -> Round {
        let fed: u64 = self.chunks.iter().map(|c| c.len() as u64).sum();
        let stages = self.primes.len() as u64;
        let mut round = Round {
            wall: Duration::ZERO,
            ops: fed + self.hops,
            payload_bytes: 4 * (fed + self.hops),
            attempted: fed + 2 * stages,
            failed: 0,
        };
        let Ok((rt, pipeline)) = self.build(rec) else {
            round.failed = round.attempted;
            return round;
        };
        let before = runtime_counters(&rt, 0);

        let start = Instant::now();
        let mut errors = 0;
        for chunk in &self.chunks {
            let op = rec.op("feed");
            let args = rec.child(&op, "value_build", || vec![Value::I32Array(chunk.clone())]);
            let sent = rec.child(&op, "pipeline.feed", || pipeline.feed("process", args));
            rec.end(op);
            errors += u64::from(sent.is_err());
        }
        let op = rec.op("drain");
        errors += u64::from(
            rec.child(&op, "pipeline.flush", || pipeline.flush())
                .is_err(),
        );
        let depth = backlog(&rt);
        // Front to back: a two-way no-op per stage is the completion barrier.
        for stage in pipeline.stages() {
            errors += u64::from(
                rec.child(&op, "po.call", || stage.call("drain", vec![]))
                    .is_err(),
            );
        }
        rec.end(op);
        let op = rec.op("collect");
        let mut primes = Vec::with_capacity(self.primes.len());
        for stage in pipeline.stages() {
            match rec.child(&op, "po.call", || stage.call("prime", vec![])) {
                Ok(Value::I32(p)) => primes.push(p as u32),
                Ok(_) => {}
                Err(_) => errors += 1,
            }
        }
        rec.end(op);
        round.wall = start.elapsed();

        let op = rec.op("verify");
        let overflow = pipeline.query_tail("overflow", vec![]);
        let after = runtime_counters(&rt, depth);
        let correct = errors == 0
            && primes == self.primes
            && overflow.ok() == Some(Value::I32Array(Vec::new()));
        rec.end(op);
        if !correct {
            round.failed = round.attempted;
        }
        let timed = after.since(&before);
        let t = &mut self.totals;
        t.executed += timed.executed;
        t.stolen += timed.stolen;
        t.max_depth = t.max_depth.max(depth);
        t.async_calls += timed.async_calls;
        t.sync_calls += timed.sync_calls;
        t.messages += timed.messages;
        t.batches += timed.batches;
        round
    }

    fn counters(&self) -> Counters {
        self.totals
    }
}

// ---------------------------------------------------------------------
// 6: the paper's Ray Tracer farm
// ---------------------------------------------------------------------

struct Raytracer {
    rt: ParcRuntime,
    farm: Farm,
    lines: Vec<usize>,
    checksum: f64,
    max_depth: u64,
}

impl Raytracer {
    fn setup(inputs: &Inputs) -> Result<Raytracer, String> {
        let rt = two_node_runtime(1)?;
        register_renderer(&rt);
        let farm = Farm::new(&rt, "Renderer", FARM_WORKERS).map_err(|e| e.to_string())?;
        let mut tracer = Raytracer {
            rt,
            farm,
            lines: inputs.lines.clone(),
            checksum: inputs.checksum,
            max_depth: 0,
        };
        for _ in 0..WARMUP_ROUNDS {
            if tracer.round(&mut Recorder::off(), &mut Vec::new()).failed > 0 {
                return Err("raytracer_farm warm-up frame differs from render_image".into());
            }
        }
        Ok(tracer)
    }
}

impl Workload for Raytracer {
    fn round(&mut self, rec: &mut Recorder, _rtts: &mut Vec<f64>) -> Round {
        let op = rec.op("frame");
        let items = rec.child(&op, "value_build", || {
            self.lines.iter().map(|&y| line_item(y)).collect::<Vec<_>>()
        });
        let start = Instant::now();
        let rows = rec.child(&op, "farm.map", || self.farm.map("render_line", items));
        let wall = start.elapsed();
        self.max_depth = self.max_depth.max(backlog(&self.rt));
        let frame_ok = rec.child(&op, "verify", || {
            let Ok(rows) = &rows else { return false };
            // Sum in line order, as `render_image` does.
            let mut by_line = vec![0.0; FRAME];
            for (&y, row) in self.lines.iter().zip(rows) {
                let Some(pixels) = row.as_f64_array() else {
                    return false;
                };
                by_line[y] = pixels.iter().sum::<f64>();
            }
            rows.len() == FRAME && (by_line.iter().sum::<f64>() - self.checksum).abs() < 1e-6
        });
        rec.end(op);
        let result_bytes = FRAME * 8;
        let item_bytes = 3 * 8;
        Round {
            wall,
            ops: FRAME as u64,
            payload_bytes: (FRAME * (item_bytes + result_bytes)) as u64,
            attempted: FRAME as u64,
            failed: if frame_ok { 0 } else { FRAME as u64 },
        }
    }

    fn counters(&self) -> Counters {
        runtime_counters(&self.rt, self.max_depth)
    }
}
