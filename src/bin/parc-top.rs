//! `parc-top` — live cluster telemetry, `top`-style.
//!
//! Boots a ParC# runtime, drives a small synthetic load against it, and
//! polls every node's OM (`__om.snapshot`) each tick, rendering a
//! refreshing per-node table: calls/s (jobs the node's mailbox scheduler
//! executed, batches counting once), queue-wait p50/p99, dispatch queue
//! depth, work steals, mean batch size over the interval, injected faults,
//! object failovers, live migrations, outstanding forwarding entries,
//! and reservation claims granted and aborted. The same
//! `ClusterTelemetry` poller works against any embedded runtime — this
//! binary is the reference consumer.
//!
//! Usage: `parc-top [--nodes N] [--ticks T] [--interval-ms MS] [--no-clear]`
//!
//! `--ticks 0` (the default) runs until interrupted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc::remoting::dispatcher::FnInvokable;
use parc::scoopp::{NodeTelemetry, ParcRuntime};
use parc::serial::Value;

const USAGE: &str = "usage: parc-top [--nodes N] [--ticks T] [--interval-ms MS] [--no-clear]";

struct Options {
    nodes: usize,
    ticks: u64,
    interval: Duration,
    clear: bool,
}

fn parse_options() -> Options {
    let mut opts = Options { nodes: 3, ticks: 0, interval: Duration::from_millis(500), clear: true };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => opts.nodes = numeric_flag(&mut args, "--nodes"),
            "--ticks" => opts.ticks = numeric_flag(&mut args, "--ticks"),
            "--interval-ms" => {
                opts.interval = Duration::from_millis(numeric_flag(&mut args, "--interval-ms"))
            }
            "--no-clear" => opts.clear = false,
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if opts.nodes == 0 {
        eprintln!("--nodes must be at least 1");
        std::process::exit(2);
    }
    opts
}

fn numeric_flag<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a number\n{USAGE}");
        std::process::exit(2);
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_options();
    // Queue-wait quantiles come from the obs histograms; a telemetry
    // viewer is pointless without them, so turn recording on.
    parc::obs::init_from_env();
    parc::obs::set_enabled(true);

    let mut builder = ParcRuntime::builder();
    builder.nodes(opts.nodes).aggregation(8);
    let runtime = Arc::new(builder.build()?);
    runtime.register_class("TopWorker", || {
        Arc::new(FnInvokable(|method: &str, args: &[Value]| match method {
            "spin" => {
                // A few µs of real work so queue-wait has something to measure.
                let mut acc = args.first().and_then(Value::as_i64).unwrap_or(1);
                for i in 1..400 {
                    acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                }
                Ok(Value::I64(acc))
            }
            _ => Err(parc::remoting::RemotingError::MethodNotFound {
                object: "TopWorker".into(),
                method: method.into(),
            }),
        }))
    });

    // One load thread per node keeps every row of the table moving.
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for node in 0..opts.nodes {
        let runtime = Arc::clone(&runtime);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let Ok(po) = runtime.create_on("TopWorker", node) else { return };
            let mut seed = node as i64 + 1;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..16 {
                    let _ = po.post("spin", vec![Value::I64(seed)]);
                    seed = seed.wrapping_add(1);
                }
                let _ = po.flush();
                if po.call("spin", vec![Value::I64(seed)]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    let telemetry = runtime.telemetry();
    let mut last: Vec<NodeTelemetry> = telemetry.poll();
    let mut last_at = Instant::now();
    let mut tick = 0u64;
    loop {
        std::thread::sleep(opts.interval);
        let now = Instant::now();
        let rows = telemetry.poll();
        let elapsed = now.duration_since(last_at).as_secs_f64().max(1e-6);
        render(&rows, &last, elapsed, tick, opts.clear);
        last = rows;
        last_at = now;
        tick += 1;
        if opts.ticks != 0 && tick >= opts.ticks {
            break;
        }
    }

    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        let _ = worker.join();
    }
    Ok(())
}

fn render(rows: &[NodeTelemetry], last: &[NodeTelemetry], elapsed: f64, tick: u64, clear: bool) {
    let mut out = String::new();
    if clear {
        out.push_str("\x1b[2J\x1b[H");
    }
    out.push_str(&format!(
        "parc-top — tick {tick}, {} node(s), interval {:.0}ms\n",
        rows.len(),
        elapsed * 1e3
    ));
    out.push_str(
        "NODE   STATE  OBJECTS  CALLS/S  P50(us)  P99(us)  QDEPTH  STEALS  BATCH  FAULTS  FAILOVER  MIGR  FWD  CLAIMS  ABRT\n",
    );
    for row in rows {
        let prev = last.iter().find(|p| p.node == row.node);
        let calls_per_s = prev
            .map(|p| (row.executed - p.executed).max(0) as f64 / elapsed)
            .unwrap_or(0.0);
        // Mean batch size over the last interval: aggregated calls per
        // aggregate message. Blank intervals (no batches) render 0.
        let batch = prev
            .map(|p| {
                let batches = (row.batches_sent - p.batches_sent).max(0) as f64;
                let calls = (row.calls_in_batches - p.calls_in_batches).max(0) as f64;
                if batches > 0.0 { calls / batches } else { 0.0 }
            })
            .unwrap_or(0.0);
        out.push_str(&format!(
            "{:<6} {:<6} {:>7} {:>8.0} {:>8.1} {:>8.1} {:>7} {:>7} {:>6.1} {:>7} {:>9} {:>5} {:>4} {:>6} {:>5}\n",
            row.node,
            if row.alive { "up" } else { "DOWN" },
            row.hosted,
            calls_per_s,
            row.queue_wait_p50_ns as f64 / 1e3,
            row.queue_wait_p99_ns as f64 / 1e3,
            row.queue_depth,
            row.steals,
            batch,
            row.faults_injected,
            row.objects_failed_over,
            row.migrations,
            row.forwards,
            row.claims_acquired,
            row.claims_aborted,
        ));
    }
    print!("{out}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
}
