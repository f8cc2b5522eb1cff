//! A dropped reply does not bury a node that still answers.
//!
//! Failover asks the failure detector before it moves an object: the
//! failed call's node must miss a poll after its lease has lapsed. Under
//! lossy chaos every node keeps answering its (never chaos-wrapped)
//! poll, so no node is declared dead, no object leaves its node, and a
//! dropped call reaches its caller as an error.
//!
//! Its own test binary: `PARC_CHAOS` is read once per process, before
//! the runtime opens its first channel.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::RemotingError;
use parc::scoopp::ParcRuntime;
use parc::serial::Value;

const NODES: usize = 3;
const ROUNDS: usize = 20;

#[test]
fn dropped_calls_under_chaos_bury_no_live_node() {
    std::env::set_var("PARC_CHAOS", "7:drop=0.05");
    let rt = ParcRuntime::builder().nodes(NODES).build().unwrap();
    rt.register_class("Counter", || {
        let hits = AtomicI64::new(0);
        Arc::new(FnInvokable(move |method: &str, _args: &[Value]| match method {
            "bump" => Ok(Value::I64(hits.fetch_add(1, Ordering::SeqCst) + 1)),
            _ => Err(RemotingError::MethodNotFound {
                object: "Counter".into(),
                method: method.into(),
            }),
        }))
    });
    // The factory call itself may be dropped; retry until each node
    // hosts one counter.
    let counters: Vec<_> = (0..NODES)
        .map(|node| {
            (0..100)
                .find_map(|_| rt.create_on("Counter", node).ok())
                .expect("100 factory calls in a row dropped")
        })
        .collect();
    for _ in 0..ROUNDS {
        for counter in &counters {
            // A dropped call surfaces as an error; that is the point.
            let _ = counter.call("bump", vec![]);
        }
    }
    assert_eq!(rt.alive_nodes(), vec![0, 1, 2], "a live node was declared dead");
    for (node, counter) in counters.iter().enumerate() {
        assert_eq!(counter.node(), Some(node), "counter {node} failed over off a live node");
    }
}
