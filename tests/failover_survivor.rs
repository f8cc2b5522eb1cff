//! A dropped create does not bury a live survivor.
//!
//! Failover moves an object off a dead node by creating it afresh on the
//! next survivor. Under lossy chaos that create may be dropped; the
//! survivor is then skipped and asked the failure detector, which buries
//! it only once its lease has lapsed. Every survivor keeps answering its
//! (never chaos-wrapped) poll, so all of them stay alive and every
//! object lands on one of them.
//!
//! Its own test binary: `PARC_CHAOS` is read once per process, and its
//! draws are shared by every runtime in the process.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::RemotingError;
use parc::scoopp::ParcRuntime;
use parc::serial::Value;

#[test]
fn failover_under_chaos_buries_no_live_survivor() {
    std::env::set_var("PARC_CHAOS", "7:drop=0.05");
    let rt = ParcRuntime::builder().nodes(4).build().unwrap();
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
    // The factory call itself may be dropped; retry each create.
    let counters: Vec<_> = (0..12)
        .map(|_| {
            (0..100)
                .find_map(|_| rt.create_on("Counter", 0).ok())
                .expect("100 factory calls in a row dropped")
        })
        .collect();
    assert!(rt.kill_node(0));
    for counter in &counters {
        for _ in 0..3 {
            // A dropped call or create surfaces as an error; that is the point.
            let _ = counter.call("bump", vec![]);
        }
    }
    assert_eq!(rt.alive_nodes(), vec![1, 2, 3], "a live survivor was declared dead");
    for counter in &counters {
        let node = counter.node().expect("a counter degraded to local execution");
        assert!(rt.node_is_alive(node), "a counter lives on dead node {node}");
    }
}
