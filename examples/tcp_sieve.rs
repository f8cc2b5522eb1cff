//! The paper's prime sieve over real TCP: a chain of filter objects
//! hosted on one [`TcpServerChannel`], each stage forwarding surviving
//! candidates to the next over its own single-socket
//! [`TcpClientChannel`] — so every hop crosses a real loopback socket
//! and the server's per-connection reader.
//!
//! Run with: `cargo run --example tcp_sieve [limit]`
//!
//! Set `PARC_OBS=1` to record spans/events; the run then prints the
//! metrics summary and writes a Chrome/Perfetto trace to
//! `target/tcp_sieve_trace.json`.

use std::sync::{Arc, Mutex};

use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::tcp::{TcpClientChannel, TcpServerChannel};
use parc::remoting::{ClientChannel, RemoteObject, RemotingError};
use parc::serial::Value;

/// Filter primes: every composite ≤ 11² − 1 has a factor in this set, so
/// candidates surviving all four stages (up to the default limit 120)
/// are exactly the primes above 7.
const FILTER_PRIMES: [i64; 4] = [2, 3, 5, 7];

fn reference_primes(limit: i64) -> Vec<i64> {
    (2..=limit)
        .filter(|&n| (2..n).take_while(|d| d * d <= n).all(|d| n % d != 0))
        .filter(|&n| n > *FILTER_PRIMES.last().unwrap())
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    parc::obs::init_from_env();
    let limit: i64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(120);
    assert!(
        limit < 11 * 11,
        "fixed filters {FILTER_PRIMES:?} only sieve correctly below 121"
    );

    let server = TcpServerChannel::bind("127.0.0.1:0")?;
    let addr = server.local_addr().to_string();
    let found: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));

    // Build the chain back to front, so each stage can hold a live proxy
    // to its successor: Filter0(2) -> Filter1(3) -> ... -> sink.
    let mut stages: Vec<RemoteObject> = Vec::new();
    let mut next: Option<RemoteObject> = None;
    for (idx, &prime) in FILTER_PRIMES.iter().enumerate().rev() {
        let name = format!("Filter{idx}");
        let forward = next.take();
        let sink = Arc::clone(&found);
        server.objects().register_singleton(
            &name,
            Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
                "candidate" => {
                    let n = args.first().and_then(Value::as_i64).unwrap_or(0);
                    if n % prime != 0 {
                        match &forward {
                            // One-way post: the whole chain is
                            // fire-and-forget, like the paper's
                            // asynchronous sieve.
                            Some(next_stage) => {
                                next_stage.post("candidate", vec![Value::I64(n)])?;
                            }
                            None => sink.lock().unwrap().push(n),
                        }
                    }
                    Ok(Value::Null)
                }
                "drain" => Ok(Value::Null), // sync no-op: per-stage barrier
                _ => Err(RemotingError::MethodNotFound {
                    object: "Filter".into(),
                    method: method.into(),
                }),
            })),
        );
        // One socket per stage: the drain barrier below relies on posts
        // and the call sharing one connection's arrival order.
        let chan = Arc::new(TcpClientChannel::connect_pooled(&addr, 1)?) as Arc<dyn ClientChannel>;
        let proxy = RemoteObject::new(chan, name);
        stages.insert(0, proxy.clone());
        next = Some(proxy);
    }
    let head = next.expect("at least one filter stage");

    println!(
        "sieving 2..={limit} through {} TCP-hosted stages ({} sockets)",
        FILTER_PRIMES.len(),
        stages.len(),
    );

    for n in 2..=limit {
        head.post("candidate", vec![Value::I64(n)])?;
    }
    // Drain front to back: each two-way no-op rides the same per-object
    // mailbox as the posts, so it returns only after everything that
    // stage will ever forward has been forwarded.
    for stage in &stages {
        stage.call("drain", vec![])?;
    }

    let mut primes = found.lock().unwrap().clone();
    primes.sort_unstable();
    println!(
        "found {} primes: {:?}{}",
        primes.len(),
        &primes[..primes.len().min(12)],
        if primes.len() > 12 { " ..." } else { "" }
    );
    assert_eq!(primes, reference_primes(limit), "tcp sieve must agree with trial division");

    if parc::obs::is_enabled() {
        let trace = "target/tcp_sieve_trace.json";
        parc::obs::export::write_chrome_trace(trace)?;
        println!("\n{}", parc::obs::export::text_summary());
        println!("chrome trace written to {trace} (load in ui.perfetto.dev)");
    }
    Ok(())
}
