//! Dropping a `ParcRuntime` must release its threads. Lives in its own
//! test binary: the check reads the process-wide thread count, which the
//! unit tests running in parallel inside one binary would disturb.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_core::{ParcRuntime, Pipeline};
use parc_remoting::dispatcher::FnInvokable;
use parc_remoting::{Activator, RemoteObject, RemotingError};
use parc_serial::Value;
use parc_sync::Mutex;

fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")?.trim().parse().ok())
}

/// A stage that holds a channel to its successor on the sibling node —
/// the reference cycle that used to keep every pump alive.
fn register_forwarder(rt: &ParcRuntime) {
    let net = rt.network().clone();
    rt.register_class("Forwarder", move || {
        let net = net.clone();
        let next: Mutex<Option<RemoteObject>> = Mutex::new(None);
        Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
            "connect" => {
                let uri = args[0].as_str().unwrap_or_default();
                *next.lock() = Some(Activator::get_object(&net, uri)?);
                Ok(Value::Null)
            }
            "item" => {
                if let Some(next) = next.lock().as_ref() {
                    next.post("item", args.to_vec())?;
                }
                Ok(Value::Null)
            }
            _ => Err(RemotingError::MethodNotFound {
                object: "Forwarder".into(),
                method: method.into(),
            }),
        }))
    });
}

#[test]
fn dropped_runtimes_release_their_threads() {
    let Some(before) = process_threads() else {
        eprintln!("skipped: /proc/self/status is not readable on this platform");
        return;
    };
    for _ in 0..10 {
        let mut builder = ParcRuntime::builder();
        builder.nodes(2);
        let rt = builder.build().unwrap();
        register_forwarder(&rt);
        let pipeline = Pipeline::new(&rt, "Forwarder", 50, "connect").unwrap();
        pipeline.feed("item", vec![Value::I32(1)]).unwrap();
        pipeline.flush().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = process_threads().expect("/proc was readable a moment ago");
        if now <= before + 4 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{now} threads alive 2 s after dropping ten runtimes (started with {before})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
