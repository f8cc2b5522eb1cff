//! Fan-in on the one TCP server: many single-socket clients against one
//! `TcpServerChannel`, each served by its own `tcp-conn` reader thread,
//! and every one of those threads gone once its client hangs up. Lives
//! in its own test binary: the check counts this process's threads by
//! name, which other tests' servers would disturb.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::tcp::{TcpClientChannel, TcpServerChannel};
use parc::remoting::RemoteObject;
use parc::serial::Value;

const CLIENTS: usize = 256;

/// Threads of this process named `tcp-conn`, or `None` where `/proc` is
/// not readable.
fn conn_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == "tcp-conn")
            .count(),
    )
}

#[test]
fn one_server_serves_256_sockets_and_releases_their_threads() {
    if conn_threads().is_none() {
        eprintln!("skipped: /proc/self/task is not readable on this platform");
        return;
    }
    let server = TcpServerChannel::bind_with_workers("127.0.0.1:0", 2).unwrap();
    server.objects().register_singleton(
        "Echo",
        Arc::new(FnInvokable(|_: &str, args: &[Value]| Ok(args[0].clone()))),
    );
    let addr = server.local_addr().to_string();
    let proxies: Vec<RemoteObject> = (0..CLIENTS)
        .map(|_| {
            let chan = TcpClientChannel::connect_pooled(&addr, 1).unwrap();
            RemoteObject::new(Arc::new(chan), "Echo")
        })
        .collect();
    for (i, proxy) in proxies.iter().enumerate() {
        let sent = Value::I64(i as i64);
        assert_eq!(proxy.call("echo", vec![sent.clone()]).unwrap(), sent, "client {i}");
    }
    assert_eq!(conn_threads(), Some(CLIENTS), "one reader thread per live connection");

    drop(proxies);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let left = conn_threads().expect("/proc was readable a moment ago");
        if left == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{left} tcp-conn threads alive 5 s after every client hung up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(server);
}
