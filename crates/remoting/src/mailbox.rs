//! Per-object mailbox executors: the active-object dispatch discipline.
//!
//! Every published object gets one FIFO **mailbox**; transport reader
//! threads only decode a frame and enqueue the invocation, returning to
//! the socket (or queue) immediately. A fixed set of workers drains
//! mailboxes with work stealing. The scheduler guarantees:
//!
//! * **Per-object serialization** — at most one invocation of a given
//!   object is in flight at any moment, and invocations run in exactly
//!   the order they were enqueued (one-way posts, `__batch_flat` flushes
//!   and two-way calls alike). This is the serial-per-grain semantics
//!   the ParC++ SO message loop provided (§3.2 of the paper).
//! * **Cross-object parallelism** — mailboxes of distinct objects drain
//!   on distinct workers concurrently; a slow method on one object never
//!   head-of-line-blocks another object, and never blocks the reader
//!   thread that feeds the scheduler.
//!
//! Scheduling is hashed-home + stealing: each mailbox has a home worker
//! (hash of the object name) whose run queue it is pushed onto when it
//! transitions from idle to scheduled; idle workers first drain their own
//! run queue front-to-back, then steal from the *back* of a sibling's
//! queue. A scheduled mailbox lives on exactly one run queue (or in the
//! hands of exactly one worker), which is what makes the one-in-flight
//! guarantee structural rather than lock-enforced. A worker gives a
//! mailbox up after [`BATCH_LIMIT`] consecutive jobs so one hot object
//! cannot starve its home sibling mailboxes.
//!
//! Observability: enqueue→run latency lands in the
//! `dispatch.mailbox_wait` histogram, queue depth and busy-worker gauges
//! plus a steal counter are registered under `dispatch.*` (see
//! [`parc_obs::kinds`]), and a cloneable [`DispatchDepth`] handle exposes
//! the live backlog to the object manager for placement/backpressure.

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parc_sync::{Condvar, Mutex, RwLock};

/// Environment variable overriding the dispatch worker count.
pub const DISPATCH_WORKERS_ENV: &str = "PARC_DISPATCH_WORKERS";

/// Floor for the default worker count. `available_parallelism` is the
/// nominal default, but most invocations in this stack *wait* (IO
/// methods, sleeps, nested calls) rather than burn CPU, so on small
/// hosts a literal core count would serialize everything; four matches
/// the fixed pool the mailbox scheduler replaced.
pub const MIN_DEFAULT_WORKERS: usize = 4;

/// Consecutive jobs one worker drains from one mailbox before requeueing
/// it, so a hot object cannot starve the others parked behind it.
const BATCH_LIMIT: usize = 32;

/// Threads on the claim-plane lane. Two is enough: lane jobs (alias
/// calls, releases) are short, and the lane exists for isolation, not
/// throughput.
const CLAIM_LANE_THREADS: usize = 2;

/// The configured dispatch worker count: `PARC_DISPATCH_WORKERS` when set
/// and positive, otherwise `available_parallelism` floored at
/// [`MIN_DEFAULT_WORKERS`].
pub fn workers_from_env() -> usize {
    std::env::var(DISPATCH_WORKERS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(MIN_DEFAULT_WORKERS, |n| n.get().max(MIN_DEFAULT_WORKERS))
        })
}

struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    // 0 unless obs recording was enabled at enqueue time.
    enqueued_ns: u64,
}

struct MailboxQueue {
    jobs: VecDeque<Job>,
    /// True while the mailbox is on some run queue or held by a worker.
    /// Flipped under this lock only, which closes the lost-wakeup race at
    /// the idle transition: an enqueuer that sees `scheduled == false`
    /// is the one that puts the mailbox on its home run queue.
    scheduled: bool,
}

struct Mailbox {
    home: usize,
    queue: Mutex<MailboxQueue>,
}

/// Home worker for an object name: a stable hash spread over the workers.
fn home_of(object: &str, workers: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    object.hash(&mut h);
    (h.finish() % workers as u64) as usize
}

struct Shared {
    mailboxes: RwLock<HashMap<String, Arc<Mailbox>>>,
    runqs: Vec<Mutex<VecDeque<Arc<Mailbox>>>>,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Mailboxes currently sitting on run queues (not held by workers).
    ready: AtomicUsize,
    /// Jobs enqueued and not yet finished executing.
    pending: AtomicUsize,
    executed: AtomicU64,
    stolen: AtomicU64,
    busy: AtomicUsize,
    stop: AtomicBool,
}

impl Shared {
    fn mailbox(&self, object: &str) -> Arc<Mailbox> {
        if let Some(mb) = self.mailboxes.read().get(object) {
            return Arc::clone(mb);
        }
        let mut map = self.mailboxes.write();
        Arc::clone(map.entry(object.to_string()).or_insert_with(|| {
            Arc::new(Mailbox {
                home: home_of(object, self.runqs.len()),
                queue: Mutex::new(MailboxQueue { jobs: VecDeque::new(), scheduled: false }),
            })
        }))
    }

    fn push_runq(&self, at: usize, mb: Arc<Mailbox>) {
        self.runqs[at].lock().push_back(mb);
        self.ready.fetch_add(1, Ordering::SeqCst);
        let _g = self.idle_lock.lock();
        self.idle_cv.notify_one();
    }

    /// Pops the next scheduled mailbox: own queue front first (locality),
    /// then the back of each sibling queue (stealing).
    fn take_work(&self, worker: usize) -> Option<Arc<Mailbox>> {
        if let Some(mb) = self.runqs[worker].lock().pop_front() {
            self.ready.fetch_sub(1, Ordering::SeqCst);
            return Some(mb);
        }
        let n = self.runqs.len();
        for i in 1..n {
            if let Some(mb) = self.runqs[(worker + i) % n].lock().pop_back() {
                self.ready.fetch_sub(1, Ordering::SeqCst);
                self.stolen.fetch_add(1, Ordering::Relaxed);
                if parc_obs::is_enabled() {
                    parc_obs::counter(parc_obs::kinds::MAILBOX_STEAL).incr();
                }
                return Some(mb);
            }
        }
        None
    }

    /// Drains `mb` (up to [`BATCH_LIMIT`] jobs), preserving the
    /// one-in-flight invariant: this worker exclusively owns the mailbox
    /// until it either parks it (`scheduled = false`, queue empty) or
    /// hands it to a run queue with `scheduled` still true.
    fn run_mailbox(&self, worker: usize, mb: Arc<Mailbox>) {
        let mut ran = 0usize;
        loop {
            let job = {
                let mut q = mb.queue.lock();
                match q.jobs.pop_front() {
                    Some(job) => job,
                    None => {
                        q.scheduled = false;
                        return;
                    }
                }
            };
            parc_obs::record_wait(parc_obs::kinds::MAILBOX_WAIT, job.enqueued_ns);
            self.busy.fetch_add(1, Ordering::Relaxed);
            if parc_obs::is_enabled() {
                parc_obs::gauge(parc_obs::kinds::MAILBOX_BUSY).adjust(1);
            }
            // A panicking invocation must not take the worker (and with it
            // the mailbox, wedged at `scheduled == true`) down with it.
            let _ = std::panic::catch_unwind(AssertUnwindSafe(job.run));
            if parc_obs::is_enabled() {
                parc_obs::gauge(parc_obs::kinds::MAILBOX_BUSY).adjust(-1);
                parc_obs::gauge(parc_obs::kinds::MAILBOX_DEPTH).adjust(-1);
            }
            self.busy.fetch_sub(1, Ordering::Relaxed);
            self.executed.fetch_add(1, Ordering::Relaxed);
            self.pending.fetch_sub(1, Ordering::SeqCst);
            ran += 1;
            if ran >= BATCH_LIMIT {
                {
                    let mut q = mb.queue.lock();
                    if q.jobs.is_empty() {
                        q.scheduled = false;
                        return;
                    }
                    // Still scheduled — ownership moves to the run queue.
                }
                self.push_runq(worker, mb);
                return;
            }
        }
    }

    fn worker_loop(&self, worker: usize) {
        loop {
            if let Some(mb) = self.take_work(worker) {
                self.run_mailbox(worker, mb);
                continue;
            }
            let mut g = self.idle_lock.lock();
            // Re-check under the idle lock: an enqueuer that bumped
            // `ready` before we took the lock has already notified.
            if self.ready.load(Ordering::SeqCst) != 0 {
                continue;
            }
            if self.stop.load(Ordering::SeqCst) {
                if self.pending.load(Ordering::SeqCst) == 0 {
                    return;
                }
                // Remaining jobs are owned by a draining worker; they may
                // yet be requeued, so nap instead of exiting.
                self.idle_cv.wait_for(&mut g, Duration::from_millis(10));
                continue;
            }
            self.idle_cv.wait_for(&mut g, Duration::from_millis(100));
        }
    }
}

/// The claim-plane lane: a tiny dedicated executor for claim alias
/// objects (`__claim.*`). Claim waits *block* mailbox workers by design
/// — that is how a claim occupies an object's one-in-flight slot — so
/// the release that would unblock them must never depend on those same
/// workers. Routing alias traffic here makes the claim protocol
/// deadlock-free even with every pool worker parked in a claim wait.
struct ClaimLane {
    tx: std::sync::mpsc::Sender<Job>,
    threads: Vec<JoinHandle<()>>,
}

impl ClaimLane {
    fn spawn() -> ClaimLane {
        let (tx, rx) = std::sync::mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let threads = (0..CLAIM_LANE_THREADS)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("parc-claim-lane-{i}"))
                    .spawn(move || loop {
                        let job = { rx.lock().recv() };
                        match job {
                            Ok(job) => {
                                parc_obs::record_wait(
                                    parc_obs::kinds::MAILBOX_WAIT,
                                    job.enqueued_ns,
                                );
                                let _ = std::panic::catch_unwind(AssertUnwindSafe(job.run));
                            }
                            Err(_) => return,
                        }
                    })
                    .expect("spawning claim lane thread")
            })
            .collect();
        ClaimLane { tx, threads }
    }
}

/// The work-stealing per-object mailbox scheduler. Dropping it drains
/// every queued job, then joins the workers.
pub struct MailboxScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    claim_lane: Mutex<Option<ClaimLane>>,
}

impl MailboxScheduler {
    /// Spawns a scheduler with the configured worker count
    /// ([`workers_from_env`]).
    pub fn new() -> MailboxScheduler {
        MailboxScheduler::with_workers(workers_from_env())
    }

    /// Spawns a scheduler with an explicit worker count (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> MailboxScheduler {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            mailboxes: RwLock::new(HashMap::new()),
            runqs: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            ready: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            busy: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("parc-mailbox-{i}"))
                    .spawn(move || shared.worker_loop(i))
                    .expect("spawning mailbox worker")
            })
            .collect();
        MailboxScheduler { shared, workers: handles, claim_lane: Mutex::new(None) }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Appends an invocation to `object`'s mailbox. Jobs for one object
    /// run strictly in enqueue order, one at a time; jobs for distinct
    /// objects run in parallel. Enqueues after shutdown began are dropped.
    ///
    /// Claim-plane objects ([`crate::reserve::is_claim_plane`]) bypass
    /// the worker pool onto a dedicated lane: claim waits occupy pool
    /// workers on purpose, so the releases that end those waits must not
    /// compete with them for workers.
    pub fn enqueue(&self, object: &str, run: impl FnOnce() + Send + 'static) {
        if self.shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let job = Job { run: Box::new(run), enqueued_ns: parc_obs::timestamp_if_enabled() };
        if crate::reserve::is_claim_plane(object) {
            let mut lane = self.claim_lane.lock();
            let _ = lane.get_or_insert_with(ClaimLane::spawn).tx.send(job);
            return;
        }
        let mb = self.shared.mailbox(object);
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        if parc_obs::is_enabled() {
            parc_obs::gauge(parc_obs::kinds::MAILBOX_DEPTH).adjust(1);
        }
        let schedule = {
            let mut q = mb.queue.lock();
            q.jobs.push_back(job);
            if q.scheduled {
                false
            } else {
                q.scheduled = true;
                true
            }
        };
        if schedule {
            let home = mb.home;
            self.shared.push_runq(home, mb);
        }
    }

    /// Monitoring snapshot of the scheduler's counters.
    pub fn stats(&self) -> DispatchStats {
        DispatchStats {
            executed: self.shared.executed.load(Ordering::Relaxed),
            stolen: self.shared.stolen.load(Ordering::Relaxed),
            pending: self.shared.pending.load(Ordering::SeqCst),
            busy: self.shared.busy.load(Ordering::Relaxed),
        }
    }

    /// A cloneable live view of the scheduler's backlog (for `OmState`
    /// and placement policies).
    pub fn depth_handle(&self) -> DispatchDepth {
        DispatchDepth { shared: Arc::clone(&self.shared) }
    }
}

impl Default for MailboxScheduler {
    fn default() -> Self {
        MailboxScheduler::new()
    }
}

impl Drop for MailboxScheduler {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            let _g = self.shared.idle_lock.lock();
            self.shared.idle_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // The lane outlives the workers: a worker parked in a claim wait
        // can need a lane-borne release to finish draining. Only once
        // every worker has joined is it safe to retire the lane.
        if let Some(lane) = self.claim_lane.lock().take() {
            drop(lane.tx);
            for t in lane.threads {
                let _ = t.join();
            }
        }
    }
}

impl std::fmt::Debug for MailboxScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("MailboxScheduler")
            .field("workers", &self.workers.len())
            .field("pending", &stats.pending)
            .field("executed", &stats.executed)
            .field("stolen", &stats.stolen)
            .finish()
    }
}

/// Counter snapshot returned by [`MailboxScheduler::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchStats {
    /// Jobs fully executed.
    pub executed: u64,
    /// Mailboxes a worker took from a sibling's run queue.
    pub stolen: u64,
    /// Jobs enqueued but not yet finished.
    pub pending: usize,
    /// Workers currently inside an invocation.
    pub busy: usize,
}

/// Cloneable live view of a scheduler's backlog; outlives nothing — it
/// keeps the scheduler's shared state alive but not its workers.
#[derive(Clone)]
pub struct DispatchDepth {
    shared: Arc<Shared>,
}

impl DispatchDepth {
    /// Total jobs enqueued and not yet finished, across all mailboxes.
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::SeqCst)
    }

    /// Queued (not yet started) jobs in one object's mailbox.
    pub fn object_depth(&self, object: &str) -> usize {
        self.shared
            .mailboxes
            .read()
            .get(object)
            .map_or(0, |mb| mb.queue.lock().jobs.len())
    }

    /// Counter snapshot through the live handle — what the telemetry
    /// plane reads without holding the scheduler itself.
    pub fn stats(&self) -> DispatchStats {
        DispatchStats {
            executed: self.shared.executed.load(Ordering::Relaxed),
            stolen: self.shared.stolen.load(Ordering::Relaxed),
            pending: self.shared.pending.load(Ordering::SeqCst),
            busy: self.shared.busy.load(Ordering::Relaxed),
        }
    }

    /// The deepest single mailbox right now — the head-of-line hotspot.
    pub fn max_object_depth(&self) -> usize {
        self.shared
            .mailboxes
            .read()
            .values()
            .map(|mb| mb.queue.lock().jobs.len())
            .max()
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for DispatchDepth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DispatchDepth")
            .field("pending", &self.pending())
            .field("max_object_depth", &self.max_object_depth())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn drop_drains_all_jobs() {
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let sched = MailboxScheduler::with_workers(3);
            for i in 0..200 {
                let hits = Arc::clone(&hits);
                sched.enqueue(&format!("obj{}", i % 7), move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(hits.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn per_object_jobs_are_fifo_and_never_overlap() {
        let sched = MailboxScheduler::with_workers(4);
        let order: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let overlapped = Arc::new(AtomicBool::new(false));
        for i in 0..500 {
            let order = Arc::clone(&order);
            let in_flight = Arc::clone(&in_flight);
            let overlapped = Arc::clone(&overlapped);
            sched.enqueue("one", move || {
                if in_flight.fetch_add(1, Ordering::SeqCst) != 0 {
                    overlapped.store(true, Ordering::SeqCst);
                }
                order.lock().push(i);
                in_flight.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drop(sched);
        assert!(!overlapped.load(Ordering::SeqCst), "same-object jobs overlapped");
        let order = order.lock();
        assert_eq!(*order, (0..500).collect::<Vec<_>>(), "per-object FIFO violated");
    }

    #[test]
    fn distinct_objects_run_concurrently() {
        // Two jobs that must be in flight simultaneously to finish: each
        // sends its token and waits for the other's. With per-object
        // serialization but cross-object parallelism this completes; a
        // serial executor would deadlock (so: bounded wait + assert).
        let sched = MailboxScheduler::with_workers(2);
        let (tx_a, rx_a) = mpsc::channel::<()>();
        let (tx_b, rx_b) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<&'static str>();
        let done_a = done_tx.clone();
        sched.enqueue("alpha", move || {
            tx_a.send(()).unwrap();
            rx_b.recv_timeout(Duration::from_secs(5)).expect("beta never ran alongside");
            done_a.send("alpha").unwrap();
        });
        sched.enqueue("beta", move || {
            tx_b.send(()).unwrap();
            rx_a.recv_timeout(Duration::from_secs(5)).expect("alpha never ran alongside");
            done_tx.send("beta").unwrap();
        });
        let mut done = vec![
            done_rx.recv_timeout(Duration::from_secs(10)).expect("rendezvous"),
            done_rx.recv_timeout(Duration::from_secs(10)).expect("rendezvous"),
        ];
        done.sort_unstable();
        assert_eq!(done, vec!["alpha", "beta"]);
    }

    #[test]
    fn idle_worker_steals_from_a_loaded_sibling() {
        // Pick two object names that hash to the SAME home worker, block
        // that worker with the first, and verify the second still runs —
        // which is only possible if the sibling worker steals it.
        let workers = 2;
        let mut homed: Vec<String> = Vec::new();
        for i in 0.. {
            let name = format!("obj{i}");
            if home_of(&name, workers) == 0 {
                homed.push(name);
                if homed.len() == 2 {
                    break;
                }
            }
        }
        let sched = MailboxScheduler::with_workers(workers);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (ran_tx, ran_rx) = mpsc::channel::<()>();
        sched.enqueue(&homed[0], move || {
            gate_rx.recv_timeout(Duration::from_secs(10)).expect("gate released");
        });
        // Let worker 0 pick up the blocker before the stealable job lands.
        std::thread::sleep(Duration::from_millis(20));
        sched.enqueue(&homed[1], move || {
            ran_tx.send(()).unwrap();
        });
        ran_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("job homed to a blocked worker was never stolen");
        assert!(sched.stats().stolen > 0, "completion without a recorded steal");
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn hot_mailbox_yields_after_batch_limit() {
        // One object with far more than BATCH_LIMIT jobs plus one other
        // object enqueued later: with a single worker, the second object
        // must still run before the hot mailbox fully drains.
        let sched = MailboxScheduler::with_workers(1);
        let hot_done = Arc::new(AtomicUsize::new(0));
        let interleaved = Arc::new(AtomicUsize::new(usize::MAX));
        for _ in 0..(BATCH_LIMIT * 4) {
            let hot_done = Arc::clone(&hot_done);
            sched.enqueue("hot", move || {
                hot_done.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(200));
            });
        }
        {
            let hot_done = Arc::clone(&hot_done);
            let interleaved = Arc::clone(&interleaved);
            sched.enqueue("cold", move || {
                interleaved.store(hot_done.load(Ordering::SeqCst), Ordering::SeqCst);
            });
        }
        drop(sched);
        let at = interleaved.load(Ordering::SeqCst);
        assert!(
            at < BATCH_LIMIT * 4,
            "cold object only ran after the hot mailbox drained entirely"
        );
    }

    #[test]
    fn depth_handle_sees_backlog() {
        let sched = MailboxScheduler::with_workers(1);
        let depth = sched.depth_handle();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        sched.enqueue("blocked", move || {
            gate_rx.recv_timeout(Duration::from_secs(10)).expect("gate");
        });
        for _ in 0..5 {
            sched.enqueue("blocked", || {});
        }
        // The blocker may have started (leaving 5 queued) or not (6).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while depth.object_depth("blocked") > 5 {
            assert!(std::time::Instant::now() < deadline, "blocker never started");
            std::thread::yield_now();
        }
        assert!(depth.pending() >= 5);
        assert!(depth.max_object_depth() >= 5);
        gate_tx.send(()).unwrap();
        drop(sched);
        assert_eq!(depth.pending(), 0);
    }

    #[test]
    fn claim_plane_jobs_run_even_with_every_worker_blocked() {
        // The deadlock the lane exists to prevent: the only pool worker
        // is parked (a claim wait), and the job that would unpark it is
        // claim-plane traffic. It must run anyway.
        let sched = MailboxScheduler::with_workers(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        sched.enqueue("claimed-object", move || {
            gate_rx.recv_timeout(Duration::from_secs(10)).expect("release arrived");
        });
        std::thread::sleep(Duration::from_millis(20));
        sched.enqueue("__claim.c1.claimed-object", move || {
            gate_tx.send(()).unwrap();
        });
        // Drop drains: it only returns if the release ran and the worker
        // unblocked, i.e. the lane made progress with zero free workers.
        drop(sched);
    }

    #[test]
    fn worker_count_env_default_is_floored() {
        assert!(workers_from_env() >= 1);
        let sched = MailboxScheduler::with_workers(0);
        assert_eq!(sched.workers(), 1, "worker count is clamped to >= 1");
    }
}
