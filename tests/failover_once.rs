//! Killing a node moves each of its objects exactly once.
//!
//! Its own test binary: `object.failed_over` is a process-wide counter,
//! and `failure_injection.rs` kills nodes from tests that run in
//! parallel.

use std::sync::Arc;

use parc::obs::{counter, kinds};
use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::RemotingError;
use parc::scoopp::{Farm, ParcRuntime};
use parc::serial::Value;

/// Nodes in the runtime; `VICTIM` dies mid-run.
const NODES: usize = 3;
const VICTIM: usize = 1;

/// Round-robin placement puts `WORKERS / NODES` of them on the victim.
const WORKERS: usize = 24;

/// Synchronous calls, round-robin over the workers.
const CALLS: usize = 960;

#[test]
fn each_object_on_a_killed_node_fails_over_exactly_once() {
    let mut b = ParcRuntime::builder();
    b.nodes(NODES);
    let rt = b.build().unwrap();
    rt.register_class("Squarer", || {
        Arc::new(FnInvokable(|method: &str, args: &[Value]| match method {
            "square" => {
                let x = args[0].as_i64().unwrap_or(0);
                Ok(Value::I64(x * x))
            }
            _ => Err(RemotingError::MethodNotFound {
                object: "Squarer".into(),
                method: method.into(),
            }),
        }))
    });
    let farm = Farm::new(&rt, "Squarer", WORKERS).unwrap();
    let workers = farm.workers();
    let on_victim = workers.iter().filter(|w| w.node() == Some(VICTIM)).count();
    assert_eq!(on_victim, WORKERS / NODES, "round-robin spreads the farm evenly");

    let failed_over = counter(kinds::OBJECT_FAILED_OVER);
    let before = failed_over.get();
    // The kill lands after a third of the calls, so every worker is
    // called again afterwards and each of the victim's fails over then.
    for i in 0..CALLS {
        if i == CALLS / 3 {
            assert!(rt.kill_node(VICTIM), "victim node was already dead");
        }
        let x = (i % 100) as i64;
        let out = workers[i % WORKERS].call("square", vec![Value::I64(x)]).unwrap();
        assert_eq!(out.as_i64(), Some(x * x), "corrupted reply after the kill");
    }
    assert_eq!(
        failed_over.get() - before,
        on_victim as u64,
        "every worker on the victim node fails over exactly once"
    );
    assert!(
        workers.iter().all(|w| w.node() != Some(VICTIM)),
        "no worker may still claim the dead node"
    );

    // Recovered: a whole map over the survivors moves nothing.
    let items: Vec<Vec<Value>> = (0..500).map(|i| vec![Value::I64(i)]).collect();
    let squares: Vec<i64> =
        farm.map("square", items).unwrap().iter().map(|v| v.as_i64().unwrap()).collect();
    assert_eq!(squares, (0..500).map(|i| i * i).collect::<Vec<i64>>());
    assert_eq!(
        failed_over.get() - before,
        on_victim as u64,
        "a map after recovery adds no failovers"
    );
}
