//! The thread shape of a live runtime: a node is its mailbox workers and
//! nothing else — in particular no per-endpoint router thread sits
//! between a caller and the mailboxes. Lives in its own test binary: the
//! check reads the process-wide thread list, which unit tests running in
//! parallel inside one binary would disturb.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parc_core::ParcRuntime;
use parc_remoting::mailbox::workers_from_env;

/// Names (`/proc/self/task/*/comm`) of every live thread in this process.
/// A thread names itself once it runs, so until then it shows its
/// spawner's name; the snapshot waits until this thread's name is its own.
fn thread_names() -> Option<Vec<String>> {
    let me = std::fs::read_to_string("/proc/thread-self/comm").ok()?;
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let mut names = Vec::new();
        for task in std::fs::read_dir("/proc/self/task").ok()? {
            // A thread that exited between the listing and the read is
            // simply not counted.
            if let Ok(comm) = std::fs::read_to_string(task.ok()?.path().join("comm")) {
                names.push(comm);
            }
        }
        if names.iter().filter(|name| **name == me).count() == 1 || Instant::now() > deadline {
            return Some(names.iter().map(|name| name.trim_end().to_string()).collect());
        }
        std::thread::yield_now();
    }
}

/// How many more threads of each name `after` has than `before`; names
/// that are not more numerous are left out.
fn added(before: &[String], after: &[String]) -> HashMap<String, i64> {
    let mut counts: HashMap<String, i64> = HashMap::new();
    for name in after {
        *counts.entry(name.clone()).or_default() += 1;
    }
    for name in before {
        *counts.entry(name.clone()).or_default() -= 1;
    }
    counts.retain(|_, n| *n > 0);
    counts
}

fn runtime(nodes: usize) -> ParcRuntime {
    let mut builder = ParcRuntime::builder();
    builder.nodes(nodes);
    builder.build().expect("runtime boots")
}

/// Waits (bounded) until the process is back to `count` threads.
fn settle_to(count: usize) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while thread_names().map_or(0, |names| names.len()) > count {
        assert!(Instant::now() < deadline, "a dropped runtime left threads behind");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn nodes_are_their_mailbox_workers_and_nothing_else() {
    let Some(base) = thread_names() else {
        eprintln!("skipped: /proc/self/task is not readable on this platform");
        return;
    };
    let workers = workers_from_env() as i64;

    let two = runtime(2);
    let with_two = thread_names().expect("/proc was readable a moment ago");
    let routers: Vec<&String> = with_two.iter().filter(|n| n.starts_with("inproc-")).collect();
    assert!(routers.is_empty(), "a live 2-node runtime runs router threads: {routers:?}");
    let by_two = added(&base, &with_two);
    assert!(
        by_two.keys().all(|name| name.starts_with("parc-mailbox-")),
        "a 2-node runtime started threads other than mailbox workers: {by_two:?}"
    );
    assert_eq!(
        with_two.len() as i64 - base.len() as i64,
        2 * workers,
        "a 2-node runtime added {by_two:?}, not just 2 x {workers} mailbox workers"
    );
    drop(two);
    settle_to(base.len());

    let three = runtime(3);
    let with_three = thread_names().expect("/proc was readable a moment ago");
    let by_third = added(&with_two, &with_three);
    assert!(
        by_third.keys().all(|name| name.starts_with("parc-mailbox-")),
        "a third node added threads other than its mailbox workers: {by_third:?}"
    );
    assert_eq!(
        with_three.len() as i64 - with_two.len() as i64,
        workers,
        "a third node added {by_third:?}, not just its {workers} mailbox workers"
    );
    drop(three);
    settle_to(base.len());
}
