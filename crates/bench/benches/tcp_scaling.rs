//! Connection-count scaling of the TCP transports: the reactor (fixed
//! thread pool, nonblocking sockets) against the mux client on the
//! thread-per-connection server, swept across 1 → 64 → 1024 sockets.
//!
//! Two numbers per point, and they tell different stories:
//!
//! * **calls/s** — throughput must NOT regress for the reactor at
//!   moderate fan-in (the acceptance ratio `reactor_vs_mux_64_conns`
//!   must stay ≥ 0.9×): both transports are service-latency-bound here,
//!   so the reactor's win cannot come at the cost of the common case.
//! * **resident threads** (`Threads:` in `/proc/self/status`) — the
//!   point of the reactor. The baseline burns a server connection
//!   thread per socket (O(connections); the mux client reads on its
//!   callers' threads); the reactor holds a fixed pool regardless of
//!   socket count, so `reactor_resident_threads_1024_conns` stays
//!   O(reactor pool + dispatch workers) while the equivalent baseline
//!   number would be 1000+. The 1024-socket point only runs the
//!   reactor — opening it with the baseline would measure thread-spawn
//!   throughput, which is exactly the cost the reactor exists to delete.
//!
//! The server method sleeps [`SERVICE_LATENCY`] per call (service time,
//! not CPU): on the single-core bench host the measurable win is calls
//! overlapping *waiting*.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_bench::harness::{metric, BenchmarkId, Criterion};
use parc_bench::{criterion_group, criterion_main};
use parc_remoting::dispatcher::FnInvokable;
use parc_remoting::reactor::{self, ReactorClientChannel, ReactorServerChannel};
use parc_remoting::tcp::{TcpClientChannel, TcpServerChannel};
use parc_remoting::wellknown::ObjectTable;
use parc_remoting::{ClientChannel, RemoteObject, RemotingError};
use parc_serial::Value;

/// Simulated per-call service latency on the server.
const SERVICE_LATENCY: Duration = Duration::from_micros(200);

/// Payload element count (i32s) carried by every call.
const PAYLOAD_ELEMS: i32 = 64;

fn register_work(objects: &ObjectTable) {
    objects.register_singleton(
        "Work",
        Arc::new(FnInvokable(|method: &str, args: &[Value]| match method {
            "work" => {
                let arr = args.first().and_then(Value::as_i32_array).ok_or_else(|| {
                    RemotingError::BadArguments {
                        method: "work".into(),
                        detail: "expected i32 array".into(),
                    }
                })?;
                std::thread::sleep(SERVICE_LATENCY);
                Ok(Value::I64(arr.iter().map(|&x| i64::from(x)).sum()))
            }
            _ => Err(RemotingError::MethodNotFound {
                object: "Work".into(),
                method: method.into(),
            }),
        })),
    );
}

/// Resident thread count of this process, from `/proc/self/status`.
fn resident_threads() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("Threads:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|n| n.parse::<f64>().ok())
        })
        .unwrap_or(-1.0)
}

/// Drives `calls_per_conn` calls over every channel with a bounded
/// driver-thread pool (callers round-robin the channels), returning
/// aggregate calls/s. Driver count is capped: at 1024 sockets the
/// *connections* scale, not the client threads driving them.
fn sweep_calls_per_s(
    chans: &[Arc<dyn ClientChannel>],
    drivers: usize,
    calls_per_conn: usize,
) -> f64 {
    let payload = Value::I32Array((0..PAYLOAD_ELEMS).collect());
    let total = chans.len() * calls_per_conn;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..drivers {
            let next = &next;
            let payload = &payload;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let proxy = RemoteObject::new(Arc::clone(&chans[i % chans.len()]), "Work");
                proxy.call("work", vec![payload.clone()]).expect("bench call");
            });
        }
    });
    total as f64 / start.elapsed().as_secs_f64()
}

fn best_of(rounds: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..rounds).map(|_| f()).fold(0.0, f64::max)
}

fn open_mux(addr: &str, conns: usize) -> Vec<Arc<dyn ClientChannel>> {
    (0..conns)
        .map(|_| {
            // Pool of 1: each channel is exactly one socket (and one
            // server connection thread — the cost under test).
            Arc::new(TcpClientChannel::connect_pooled(addr, 1).expect("mux connect"))
                as Arc<dyn ClientChannel>
        })
        .collect()
}

fn open_reactor(addr: &str, conns: usize) -> Vec<Arc<dyn ClientChannel>> {
    (0..conns)
        .map(|_| {
            Arc::new(ReactorClientChannel::connect(addr).expect("reactor connect"))
                as Arc<dyn ClientChannel>
        })
        .collect()
}

fn drivers_for(conns: usize) -> usize {
    match conns {
        1 => 4,       // pipeline depth on a single socket
        n if n <= 64 => n,
        _ => 32, // bounded drivers; the sockets are what scales
    }
}

fn bench_tcp_scaling(c: &mut Criterion) {
    metric("baseline_resident_threads", resident_threads());
    metric("service_latency_us", SERVICE_LATENCY.as_micros() as f64);
    metric("reactor_pool_threads", reactor::global().threads() as f64);

    // --- thread-per-connection baseline: 1 and 64 sockets ---
    let mut mux_rates: Vec<(usize, f64)> = Vec::new();
    {
        let server = TcpServerChannel::bind("127.0.0.1:0").expect("bind threaded server");
        register_work(server.objects());
        let addr = server.local_addr().to_string();
        for conns in [1usize, 64] {
            let chans = open_mux(&addr, conns);
            let _ = sweep_calls_per_s(&chans, drivers_for(conns), 10); // warm
            let rate = best_of(3, || sweep_calls_per_s(&chans, drivers_for(conns), 50));
            metric(&format!("mux_{conns}_conns_calls_per_s"), rate);
            // Client readers + server connection threads, all resident.
            metric(&format!("mux_resident_threads_{conns}_conns"), resident_threads());
            mux_rates.push((conns, rate));
        }
    }

    // --- reactor: 1 and 64 sockets, same sweep ---
    let mut reactor_rates: Vec<(usize, f64)> = Vec::new();
    let mut group = c.benchmark_group("tcp_scaling");
    {
        let server = ReactorServerChannel::bind("127.0.0.1:0").expect("bind reactor server");
        register_work(server.objects());
        let addr = server.local_addr().to_string();
        for conns in [1usize, 64] {
            let chans = open_reactor(&addr, conns);
            let _ = sweep_calls_per_s(&chans, drivers_for(conns), 10); // warm
            let rate = best_of(3, || sweep_calls_per_s(&chans, drivers_for(conns), 50));
            metric(&format!("reactor_{conns}_conns_calls_per_s"), rate);
            metric(&format!("reactor_resident_threads_{conns}_conns"), resident_threads());
            reactor_rates.push((conns, rate));
            group.bench_function(BenchmarkId::new("reactor", conns), |b| {
                b.iter(|| {
                    std::hint::black_box(sweep_calls_per_s(&chans, drivers_for(conns), 10));
                });
            });
        }
    }
    group.finish();

    let rate_of = |rates: &[(usize, f64)], conns: usize| {
        rates.iter().find(|(c, _)| *c == conns).map(|(_, r)| *r).expect("rate recorded")
    };
    // The acceptance ratio: the reactor must not trade the 64-socket
    // common case away for the 1024-socket headline.
    metric(
        "reactor_vs_mux_64_conns",
        rate_of(&reactor_rates, 64) / rate_of(&mux_rates, 64),
    );
    metric(
        "reactor_vs_mux_1_conn",
        rate_of(&reactor_rates, 1) / rate_of(&mux_rates, 1),
    );

    // --- the headline: 1024 live sockets, fixed thread count ---
    {
        let server = ReactorServerChannel::bind("127.0.0.1:0").expect("bind reactor server");
        register_work(server.objects());
        let addr = server.local_addr().to_string();
        let chans = open_reactor(&addr, 1024);
        // Every socket does real work: 2 calls each, bounded drivers.
        let rate = sweep_calls_per_s(&chans, drivers_for(1024), 2);
        metric("reactor_1024_conns_calls_per_s", rate);
        metric("reactor_registered_conns", reactor::global().connections() as f64);
        // 1024 client + 1024 server sockets live in this process right
        // now; thread count must still be O(pool + workers).
        metric("reactor_resident_threads_1024_conns", resident_threads());
    }
}

criterion_group!(benches, bench_tcp_scaling);
criterion_main!(benches);
