//! Live migration end to end: a deliberately skewed object population
//! and the load-driven rebalancer migrating objects off the hot node
//! while clients keep calling.
//!
//! Run with: `cargo run --example rebalance [nodes] [objects]`
//!
//! Every counter object starts on node 0. The rebalancer watches the
//! per-node telemetry and live-migrates counters, picked from the object
//! location index, until the cluster is within its hysteresis band — all
//! while the client threads keep incrementing. The example asserts that
//! no increment was lost or reordered across migration.
//!
//! Set `PARC_OBS=1` to record spans/events; the run then prints the
//! metrics summary (including `migration.completed`) and writes a
//! Chrome/Perfetto trace to `target/rebalance_trace.json`.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::RemotingError;
use parc::scoopp::{ParcRuntime, RebalanceConfig};
use parc::serial::Value;

const CLIENTS: usize = 3;
const INCREMENTS_PER_CLIENT: i64 = 400;

/// A migratable counter: `add` mutates, `total` reads, and the
/// `__snapshot`/`__restore` pair lets the runtime move it between nodes
/// with its state intact.
fn register_counter(rt: &ParcRuntime) {
    rt.register_class("Counter", || {
        let total = AtomicI64::new(0);
        Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
            "add" => {
                let delta = args.first().and_then(Value::as_i64).unwrap_or(1);
                Ok(Value::I64(total.fetch_add(delta, Ordering::SeqCst) + delta))
            }
            "total" => Ok(Value::I64(total.load(Ordering::SeqCst))),
            "__snapshot" => Ok(Value::I64(total.load(Ordering::SeqCst))),
            "__restore" => {
                total.store(args.first().and_then(Value::as_i64).unwrap_or(0), Ordering::SeqCst);
                Ok(Value::Null)
            }
            _ => Err(RemotingError::MethodNotFound {
                object: "Counter".into(),
                method: method.into(),
            }),
        }))
    });
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    parc::obs::init_from_env();
    let nodes: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let objects: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(9);

    let runtime = Arc::new(ParcRuntime::builder().nodes(nodes).build()?);
    register_counter(&runtime);

    // Skew on purpose: every counter starts on node 0, so the rebalancer
    // sees one hot node and (nodes - 1) idle ones.
    let counters: Vec<_> =
        (0..objects).map(|_| runtime.create_on("Counter", 0)).collect::<Result<_, _>>()?;
    println!("placed {objects} counters on node 0 of {nodes}");

    // Aggressive interval so a short example run converges; the other
    // fields keep their defaults.
    let cfg = RebalanceConfig {
        interval: Duration::from_millis(5),
        max_migrations_per_round: 2,
        ..RebalanceConfig::default()
    };
    let rebalancer = runtime.start_rebalancer(cfg);

    // Clients hammer the counters while the rebalancer works underneath.
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let counters = &counters;
            scope.spawn(move || {
                for i in 0..INCREMENTS_PER_CLIENT {
                    let po = &counters[(c + i as usize * CLIENTS) % counters.len()];
                    po.call("add", vec![Value::I64(1)]).expect("increment");
                }
            });
        }
    });
    rebalancer.stop();

    // Correctness across migration: every increment landed exactly once.
    let grand_total: i64 = counters
        .iter()
        .map(|po| po.call("total", vec![]).expect("total").as_i64().unwrap_or(0))
        .sum();
    let expected = CLIENTS as i64 * INCREMENTS_PER_CLIENT;
    assert_eq!(grand_total, expected, "increments lost or duplicated across migration");

    let loads = runtime.node_loads();
    let migrated = parc::obs::counter(parc::obs::kinds::MIGRATION_COMPLETED).get();
    println!("rebalanced to per-node object counts {loads:?} ({migrated} live migrations)");
    println!("grand total {grand_total} == {expected}: no increment lost across migration");
    assert!(migrated >= 1, "the skewed population must trigger at least one migration");

    if parc::obs::is_enabled() {
        let trace = "target/rebalance_trace.json";
        parc::obs::export::write_chrome_trace(trace)?;
        println!("\n{}", parc::obs::export::text_summary());
        println!("chrome trace written to {trace} (load in ui.perfetto.dev)");
    }
    Ok(())
}
