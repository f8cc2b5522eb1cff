//! A real bounded thread pool — the execution engine behind
//! [`crate::Delegate::begin_invoke`], the paper's Fig. 4 asynchronous
//! delegate, and its only user in this crate: server-side dispatch runs
//! on the per-object [`crate::mailbox`] scheduler instead.
//!
//! Mono's runtime serves both remoting dispatch and `BeginInvoke` delegates
//! from a bounded managed pool; the paper blames exactly that bound for the
//! Fig. 9 starvation. This is the *real* (wall-clock) counterpart of
//! the `ThreadPoolModel` in `parc-sim`: a fixed set of worker threads
//! draining a shared queue, with graceful shutdown on drop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parc_sync::channel::{unbounded, Receiver, Sender};

type Task = Box<dyn FnOnce() + Send>;

/// Monitoring counters. These are statistics, not synchronization: no
/// other memory access is ordered by them, so every operation is
/// `Relaxed` — SeqCst here bought nothing but fence traffic on the
/// submit/execute hot path. Each counter is still individually coherent
/// (`fetch_add`/`fetch_sub` are atomic RMWs), so totals are exact; only
/// cross-counter snapshots are approximate, which `queued()` already
/// documents.
#[derive(Default)]
struct Counters {
    queued: AtomicUsize,
    executed: AtomicUsize,
}

/// Fixed-size worker pool.
pub struct ThreadPool {
    // `None` only during shutdown; dropping the sole sender disconnects the
    // queue and lets the workers exit.
    tx: Option<Sender<Task>>,
    counters: Arc<Counters>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> ThreadPool {
        assert!(threads > 0, "thread pool needs at least one worker");
        let (tx, rx) = unbounded::<Task>();
        let counters = Arc::new(Counters::default());
        let workers = (0..threads)
            .map(|i| {
                let rx: Receiver<Task> = rx.clone();
                let counters = Arc::clone(&counters);
                std::thread::Builder::new()
                    .name(format!("parc-pool-{i}"))
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            counters.queued.fetch_sub(1, Ordering::Relaxed);
                            task();
                            counters.executed.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .expect("spawning pool worker")
            })
            .collect();
        ThreadPool { tx: Some(tx), counters, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Tasks accepted but not yet started (a monitoring snapshot — may
    /// lag the queue by a task while a worker is between dequeue and
    /// decrement).
    pub fn queued(&self) -> usize {
        self.counters.queued.load(Ordering::Relaxed)
    }

    /// Tasks fully executed.
    pub fn executed(&self) -> usize {
        self.counters.executed.load(Ordering::Relaxed)
    }

    /// Submits a task for execution.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        self.counters.queued.fetch_add(1, Ordering::Relaxed);
        let submitted_ns = parc_obs::timestamp_if_enabled();
        self.tx
            .as_ref()
            .expect("pool alive")
            .send(Box::new(move || {
                parc_obs::record_wait(parc_obs::kinds::POOL_WAIT, submitted_ns);
                task();
            }))
            .expect("workers alive");
    }

    /// Waits for all queued tasks to finish and joins the workers.
    pub fn shutdown(mut self) {
        self.join_workers();
    }

    fn join_workers(&mut self) {
        // Dropping the only sender closes the queue once drained.
        self.tx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.join_workers();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .field("queued", &self.queued())
            .field("executed", &self.executed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    #[test]
    fn tasks_all_execute() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU32::new(0));
        for i in 0..100 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
            // Queue-depth sanity: never more than the tasks submitted so
            // far, regardless of how far the workers have drained.
            assert!(pool.queued() <= i + 1, "queued {} > submitted {}", pool.queued(), i + 1);
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_waits_for_queued_tasks() {
        let counter = Arc::new(AtomicU32::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..20 {
                let c = Arc::clone(&counter);
                pool.submit(move || {
                    std::thread::sleep(Duration::from_millis(1));
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn tasks_run_concurrently() {
        let pool = ThreadPool::new(4);
        let gate = Arc::new(std::sync::Barrier::new(4));
        let hit = Arc::new(AtomicU32::new(0));
        for _ in 0..4 {
            let gate = Arc::clone(&gate);
            let hit = Arc::clone(&hit);
            pool.submit(move || {
                // Deadlocks unless all four tasks run in parallel.
                gate.wait();
                hit.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(hit.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn executed_counter_tracks() {
        let pool = ThreadPool::new(1);
        for _ in 0..5 {
            pool.submit(|| {});
        }
        // Wait for the queue to drain, then check the counter.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.executed() < 5 {
            // Queue-depth sanity while draining: bounded by what was
            // submitted and never negative (usize underflow would show up
            // as a huge value here).
            assert!(pool.queued() <= 5, "queued {} out of range", pool.queued());
            assert!(std::time::Instant::now() < deadline);
            std::thread::yield_now();
        }
        // Relaxed counters give no cross-variable ordering, so the queued
        // decrements may trail the executed increments briefly.
        while pool.queued() > 0 {
            assert!(std::time::Instant::now() < deadline, "queue never drained");
            std::thread::yield_now();
        }
        assert_eq!(pool.executed(), 5);
        pool.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = ThreadPool::new(0);
    }
}
