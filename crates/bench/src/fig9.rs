//! E4 — Fig. 9: parallel Ray Tracer execution time, 1–6 processors.
//!
//! The farm is simulated on the DES substrate: a master issues render
//! chunks to workers through delegates, each outstanding invocation
//! holding a managed-pool thread for its whole round trip (that is how
//! `BeginInvoke` behaves). ParC# runs on the Mono model — 1.4× JIT tax and
//! the bounded thread pool with ~500 ms injection the paper blames:
//! *"limiting the number of running threads in parallel applications
//! reduces the overlap among computation and communication and also
//! produces starvation in some application threads"*. The Java RMI
//! baseline spawns a native thread per worker (unbounded pool) but pays
//! RMI's higher per-call cost.
//!
//! Work per image line is **real**: the scene is rendered with
//! `parc-apps` and per-line intersection-test counts are scaled so the
//! whole-image sequential time matches the paper's Java baseline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parc_apps::raytracer::{render_line, Scene};
use parc_sim::{Job, SimTime, ThreadPoolModel};

use crate::stacks::StackModel;

/// Per-line compute demand on the reference machine.
#[derive(Debug, Clone, PartialEq)]
pub struct LineWork {
    per_line_secs: Vec<f64>,
}

impl LineWork {
    /// Derives line costs from a real rendering of `scene`, scaled so the
    /// sequential total equals `total_reference_secs`.
    ///
    /// # Panics
    ///
    /// Panics on an empty image.
    pub fn from_scene(
        scene: &Scene,
        width: usize,
        height: usize,
        total_reference_secs: f64,
    ) -> LineWork {
        assert!(width > 0 && height > 0, "image must be non-empty");
        let ops: Vec<u64> =
            (0..height).map(|y| render_line(scene, width, height, y).intersection_tests).collect();
        let total_ops: u64 = ops.iter().sum();
        assert!(total_ops > 0, "rendering produced no work");
        LineWork {
            per_line_secs: ops
                .iter()
                .map(|&o| o as f64 / total_ops as f64 * total_reference_secs)
                .collect(),
        }
    }

    /// Uniform per-line cost (for fast tests).
    pub fn uniform(height: usize, total_reference_secs: f64) -> LineWork {
        assert!(height > 0, "image must be non-empty");
        LineWork { per_line_secs: vec![total_reference_secs / height as f64; height] }
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        self.per_line_secs.len()
    }

    /// Sequential total on the reference machine.
    pub fn total_secs(&self) -> f64 {
        self.per_line_secs.iter().sum()
    }

    fn chunk_secs(&self, start: usize, len: usize) -> f64 {
        self.per_line_secs[start..(start + len).min(self.per_line_secs.len())]
            .iter()
            .sum()
    }
}

/// Managed-pool shape for the master's delegate threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolParams {
    /// Threads available immediately.
    pub core: usize,
    /// Hard thread cap.
    pub max: usize,
    /// Thread-injection delay.
    pub injection: SimTime,
}

impl PoolParams {
    /// The Mono 1.1.x shape used for ParC# in Fig. 9.
    pub fn mono() -> PoolParams {
        PoolParams { core: 2, max: 4, injection: SimTime::from_millis(500) }
    }
}

/// One Fig. 9 configuration (a curve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Config {
    /// Communication stack.
    pub stack: StackModel,
    /// Virtual-machine compute-time multiplier (Mono ≈ 1.4, JVM = 1.0).
    pub jit_factor: f64,
    /// Lines per farmed task.
    pub chunk_lines: usize,
    /// Image width in pixels (sizes the reply payload: one f64 per pixel).
    pub width: usize,
    /// Master pool; `None` = one native thread per outstanding call
    /// (the Java model).
    pub pool: Option<PoolParams>,
}

impl Fig9Config {
    /// The ParC# curve: Mono remoting + Mono JIT + bounded pool.
    pub fn parcsharp() -> Fig9Config {
        Fig9Config {
            stack: StackModel::mono_117_tcp(),
            jit_factor: 1.4,
            chunk_lines: 25,
            width: 500,
            pool: Some(PoolParams::mono()),
        }
    }

    /// The Java RMI curve: RMI costs, JVM JIT, unbounded native threads.
    pub fn java_rmi() -> Fig9Config {
        Fig9Config {
            stack: StackModel::java_rmi(),
            jit_factor: 1.0,
            chunk_lines: 25,
            width: 500,
            pool: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Reply { task: usize },
    Injection,
}

/// Simulates the farmed render and returns the makespan.
///
/// # Panics
///
/// Panics when `processors == 0` or the configuration is degenerate.
pub fn raytracer_execution_time(
    cfg: &Fig9Config,
    work: &LineWork,
    processors: usize,
) -> SimTime {
    assert!(processors > 0, "need at least one processor");
    assert!(cfg.chunk_lines > 0, "chunks must hold at least one line");
    let chunks: Vec<(usize, usize)> = (0..work.lines())
        .step_by(cfg.chunk_lines)
        .map(|start| (start, cfg.chunk_lines.min(work.lines() - start)))
        .collect();
    let n_tasks = chunks.len();
    let mut pool = match cfg.pool {
        Some(p) => ThreadPoolModel::new(p.core, p.max, p.injection),
        None => ThreadPoolModel::new(n_tasks.max(1), n_tasks.max(1), SimTime::ZERO),
    };

    // Task request: a couple of ints (start line, count). Reply: the
    // rendered pixels, one f64 per pixel → 2 ints each on the wire axis.
    let task_one_way = cfg.stack.one_way_ints(2);
    let reply_ints_per_line = cfg.width * 2;

    let mut worker_free = vec![SimTime::ZERO; processors];
    let mut heap: BinaryHeap<Reverse<(SimTime, usize, Event)>> = BinaryHeap::new();
    let mut seq = 0usize;
    let mut makespan = SimTime::ZERO;

    let send_chunk = |task: usize,
                      at: SimTime,
                      worker_free: &mut Vec<SimTime>,
                      heap: &mut BinaryHeap<Reverse<(SimTime, usize, Event)>>,
                      seq: &mut usize| {
        let (start_line, len) = chunks[task];
        let compute =
            SimTime::from_secs_f64(work.chunk_secs(start_line, len) * cfg.jit_factor);
        let (widx, free) = worker_free
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, t)| t)
            .expect("at least one worker");
        let arrive = at + task_one_way;
        let begin = arrive.max(free);
        let end = begin + compute;
        worker_free[widx] = end;
        let reply_at = end + cfg.stack.one_way_ints(reply_ints_per_line * len);
        heap.push(Reverse((reply_at, *seq, Event::Reply { task })));
        *seq += 1;
    };

    // The master issues every chunk up front through delegates; the pool
    // admits what it can.
    for task in 0..n_tasks {
        match pool.offer(SimTime::ZERO, Job::new(task as u64, SimTime::ZERO)) {
            parc_sim::threadpool::Offered::Started(s) => {
                send_chunk(s.job.id as usize, s.start, &mut worker_free, &mut heap, &mut seq);
            }
            parc_sim::threadpool::Offered::Queued { injection_at: Some(t) } => {
                heap.push(Reverse((t, seq, Event::Injection)));
                seq += 1;
            }
            parc_sim::threadpool::Offered::Queued { injection_at: None } => {}
        }
    }

    while let Some(Reverse((now, _, event))) = heap.pop() {
        match event {
            Event::Reply { .. } => {
                makespan = makespan.max(now);
                if let Some(s) = pool.complete(now) {
                    send_chunk(s.job.id as usize, s.start, &mut worker_free, &mut heap, &mut seq);
                }
            }
            Event::Injection => {
                let (started, next) = pool.inject(now);
                if let Some(s) = started {
                    send_chunk(s.job.id as usize, s.start, &mut worker_free, &mut heap, &mut seq);
                }
                if let Some(t) = next {
                    heap.push(Reverse((t, seq, Event::Injection)));
                    seq += 1;
                }
            }
        }
    }
    makespan
}

/// Convenience: both curves over 1..=6 processors, as `(parcsharp, java)`
/// second vectors — the exact series of Fig. 9.
pub fn fig9_curves(work: &LineWork) -> (Vec<f64>, Vec<f64>) {
    let parc = Fig9Config::parcsharp();
    let java = Fig9Config::java_rmi();
    let run = |cfg: &Fig9Config| {
        (1..=6)
            .map(|p| raytracer_execution_time(cfg, work, p).as_secs_f64())
            .collect::<Vec<f64>>()
    };
    (run(&parc), run(&java))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100 s of reference work over 500 uniform lines — the calibrated
    /// Java sequential time of the 500×500 render.
    fn paper_work() -> LineWork {
        LineWork::uniform(500, 100.0)
    }

    #[test]
    fn sequential_gap_is_the_jit_factor() {
        let work = paper_work();
        let parc = raytracer_execution_time(&Fig9Config::parcsharp(), &work, 1).as_secs_f64();
        let java = raytracer_execution_time(&Fig9Config::java_rmi(), &work, 1).as_secs_f64();
        let ratio = parc / java;
        // "The C# sequential execution time ... is 40% superior to the
        // Java version."
        assert!((1.30..1.50).contains(&ratio), "ratio {ratio}");
        assert!((95.0..115.0).contains(&java), "java 1p {java}");
        assert!((130.0..155.0).contains(&parc), "parc 1p {parc}");
    }

    #[test]
    fn java_scales_nearly_linearly() {
        let work = paper_work();
        let java = Fig9Config::java_rmi();
        let t1 = raytracer_execution_time(&java, &work, 1).as_secs_f64();
        let t6 = raytracer_execution_time(&java, &work, 6).as_secs_f64();
        let speedup = t1 / t6;
        assert!(speedup > 4.5, "java speedup at 6 procs {speedup}");
    }

    #[test]
    fn parcsharp_is_slower_at_every_processor_count() {
        let work = paper_work();
        let (parc, java) = fig9_curves(&work);
        for p in 0..6 {
            assert!(
                parc[p] > java[p],
                "Fig. 9 shape: ParC# above Java at {} procs ({} vs {})",
                p + 1,
                parc[p],
                java[p]
            );
        }
    }

    #[test]
    fn both_curves_decrease_with_processors() {
        let work = paper_work();
        let (parc, java) = fig9_curves(&work);
        for w in parc.windows(2) {
            assert!(w[1] <= w[0] * 1.01, "parc# not decreasing: {w:?}");
        }
        for w in java.windows(2) {
            assert!(w[1] <= w[0] * 1.01, "java not decreasing: {w:?}");
        }
    }

    #[test]
    fn pool_starvation_limits_parcsharp_beyond_its_thread_cap() {
        // With the Mono pool capped at 4 delegate threads, adding the 5th
        // and 6th processor barely helps — the starvation of §4.
        let work = paper_work();
        let parc = Fig9Config::parcsharp();
        let t4 = raytracer_execution_time(&parc, &work, 4).as_secs_f64();
        let t6 = raytracer_execution_time(&parc, &work, 6).as_secs_f64();
        assert!(t6 > t4 * 0.93, "capped pool cannot exploit 6 workers: {t4} -> {t6}");
        // Meanwhile the gap to Java widens with processor count.
        let (parc_curve, java_curve) = fig9_curves(&work);
        let gap1 = parc_curve[0] / java_curve[0];
        let gap6 = parc_curve[5] / java_curve[5];
        assert!(gap6 > gap1, "thread management must hurt more at scale: {gap1} vs {gap6}");
    }

    #[test]
    fn real_scene_work_matches_uniform_totals() {
        let scene = Scene::jgf(16);
        let work = LineWork::from_scene(&scene, 40, 40, 10.0);
        assert_eq!(work.lines(), 40);
        assert!((work.total_secs() - 10.0).abs() < 1e-9);
        // Non-uniform: some lines cost more than others.
        let max = work.per_line_secs.iter().cloned().fold(0.0, f64::max);
        let min = work.per_line_secs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > min);
    }

    #[test]
    fn makespan_with_real_scene_is_finite_and_ordered() {
        let scene = Scene::jgf(16);
        let work = LineWork::from_scene(&scene, 40, 40, 10.0);
        let mut cfg = Fig9Config::parcsharp();
        cfg.chunk_lines = 5;
        cfg.width = 40;
        let t2 = raytracer_execution_time(&cfg, &work, 2);
        let t4 = raytracer_execution_time(&cfg, &work, 4);
        assert!(t4 <= t2);
        assert!(t4 > SimTime::ZERO);
    }

    #[test]
    fn single_chunk_run_is_serial_plus_round_trip() {
        let work = LineWork::uniform(10, 1.0);
        let mut cfg = Fig9Config::java_rmi();
        cfg.chunk_lines = 10; // one task
        let t = raytracer_execution_time(&cfg, &work, 4).as_secs_f64();
        assert!(t >= 1.0, "compute floor");
        assert!(t < 1.2, "only one task's comm on top, got {t}");
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        raytracer_execution_time(&Fig9Config::java_rmi(), &LineWork::uniform(1, 1.0), 0);
    }
}
