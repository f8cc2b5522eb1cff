//! `callpath` — the repo's one benchmark.
//!
//! Three ways in, all through `benchmark/run.sh`:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload once
//!   and prints one JSON object as the last line of stdout (what the
//!   acceptance driver calls);
//! * no `--trace` runs every workload (or the one named) untraced and then
//!   traced, prints every metric by name and writes `out/results.json`;
//! * `--calibrate` measures run-to-run spread (the source of the bounds in
//!   `BENCHMARK.json`).

mod placement;
mod procfs;
mod replay;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use placement::Placement;
use procfs::{proc_self, StealClock};
use spec::WORKLOADS;
use stats::{median, percentile};
use trace::Recorder;
use workloads::{Inputs, Workload};

/// Fresh instances of the workload per untraced run: `setup_s` is the
/// median of their set-ups.
const SETUPS: usize = 3;
/// Default `--seconds` outside the driver (the driver passes `run_seconds`).
const DEFAULT_SECONDS: f64 = 10.0;
/// How a traced run divides `--seconds`: an untraced baseline window, the
/// traced window, the isolated replay.
const TRACED_SPLIT: (f64, f64, f64) = (0.3, 0.4, 0.3);

/// Where trace files and `results.json` go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--calibrate" => args.calibrate = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let outcome = parse_args().and_then(|args| {
        if args.calibrate {
            suite::calibrate(&args)
        } else if let Some(traced) = args.trace {
            let workload = args.workload.as_deref().ok_or("--trace needs --workload")?;
            run_once(workload, &args, traced, started)
        } else {
            suite::run_all(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("callpath: {e}");
            ExitCode::from(2)
        }
    }
}

/// What the timed rounds of one or more windows measured.
#[derive(Default)]
struct Samples {
    /// Wall-clock seconds of every round.
    walls: Vec<f64>,
    /// Remote invocations and payload bytes of all rounds together.
    ops: u64,
    payload_bytes: u64,
    /// Every two-way round trip the caller waited out by itself, in ns.
    rtts: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    /// Runs rounds until `seconds` have passed (always at least one).
    fn window(&mut self, workload: &mut dyn Workload, seconds: f64, rec: &mut Recorder) {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        loop {
            let round = workload.round(rec, &mut self.rtts);
            self.walls.push(round.wall.as_secs_f64());
            self.ops += round.ops;
            self.payload_bytes += round.payload_bytes;
            self.attempted += round.attempted;
            self.failed += round.failed;
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    /// Seconds spent inside timed rounds.
    fn timed_s(&self) -> f64 {
        self.walls.iter().sum()
    }

    // The three throughput figures are totals over the window, not
    // medians of rounds: with both vCPUs busy a round has a fast and a
    // slow mode (a farmed frame: 33 or 47 ms, depending on what the host
    // does with the two vCPUs that second), the median of a run lands in
    // either, and the share of time spent in each moves smoothly.

    /// Mean wall-clock of one round.
    fn wall_s(&self) -> f64 {
        self.timed_s() / self.walls.len() as f64
    }

    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.timed_s()
    }

    fn mb_per_s(&self) -> f64 {
        self.payload_bytes as f64 / self.timed_s() / 1e6
    }

    /// Median, in µs, of the round trips the caller waited out; where a
    /// workload has none (4–6), its wall-clock per remote invocation.
    fn rtt_p50_us(&mut self) -> f64 {
        if self.rtts.is_empty() {
            return 1e6 / self.ops_per_s();
        }
        self.rtts.sort_by(f64::total_cmp);
        percentile(&self.rtts, 50.0) / 1e3
    }

    /// 99th percentile of the same round trips; on 4–6, of the rounds'
    /// wall-clock per remote invocation.
    fn rtt_p99_us(&mut self) -> f64 {
        if self.rtts.is_empty() {
            let ops_per_round = self.ops as f64 / self.walls.len() as f64;
            let mut walls = self.walls.clone();
            walls.sort_by(f64::total_cmp);
            return percentile(&walls, 99.0) / ops_per_round * 1e6;
        }
        self.rtts.sort_by(f64::total_cmp);
        percentile(&self.rtts, 99.0) / 1e3
    }
}

/// One run of one workload: the driver's contract. Returns whether every
/// output check passed.
fn run_once(name: &str, args: &Args, traced: bool, started: Instant) -> Result<bool, String> {
    let stolen = StealClock::start();
    let mut placement = Placement::detect()?;
    info(name, "cpus", placement.cpus() as f64, "count");
    let (metrics, attempted, failed) = if traced {
        traced_run(name, args, &mut placement)?
    } else {
        untraced_run(name, args, &mut placement, started)?
    };
    info(name, "steal_ratio", stolen.ratio(), "ratio");

    let declared: &[spec::Metric] = if traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let body: Vec<String> = declared
        .iter()
        .map(|m| {
            let value = metrics
                .iter()
                .find(|(n, _)| *n == m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name))
                .1;
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

/// A line for people and for `suite`: never the last line of stdout.
fn info(workload: &str, name: &str, value: f64, unit: &str) {
    println!("# {workload} {name} {value} {unit}");
}

type Rows = Vec<(&'static str, f64)>;

/// The untraced run: `SETUPS` fresh instances of the workload, each set
/// up on the clock — input generation to the end of the warm-up, the first
/// one from process start — and then measured for an equal share of
/// `seconds`. The other end-to-end metrics are taken over the timed
/// rounds of all instances together.
fn untraced_run(
    name: &str,
    args: &Args,
    placement: &mut Placement,
    started: Instant,
) -> Result<(Rows, u64, u64), String> {
    let mut setups = Vec::new();
    let mut all = Samples::default();
    for instance in 0..SETUPS {
        let t = if instance == 0 {
            started
        } else {
            Instant::now()
        };
        let inputs = Inputs::generate(name, args.seed);
        let mut workload = workloads::setup(name, &inputs, placement)?;
        setups.push((t.elapsed() - placement.take_spent()).as_secs_f64());
        all.window(
            workload.as_mut(),
            args.seconds / SETUPS as f64,
            &mut Recorder::off(),
        );
    }
    info(name, "rounds", all.walls.len() as f64, "count");
    info(name, "rtt_samples", all.rtts.len() as f64, "count");
    info(name, "rtt_p99_us", all.rtt_p99_us(), "us");
    info(name, "wall_p50_s", median(&mut all.walls), "s");
    let metrics = vec![
        ("setup_s", median(&mut setups)),
        ("rtt_p50_us", all.rtt_p50_us()),
        ("payload_mb_per_s", all.mb_per_s()),
        ("posts_per_s", all.ops_per_s()),
        ("wall_s", all.wall_s()),
    ];
    Ok((metrics, all.attempted, all.failed))
}

/// The traced run: baseline window, traced window with the span recorder
/// and `parc_obs` on, then the isolated replay.
fn traced_run(
    name: &str,
    args: &Args,
    placement: &mut Placement,
) -> Result<(Rows, u64, u64), String> {
    let seconds = args.seconds;
    let inputs = Inputs::generate(name, args.seed);
    let mut workload = workloads::setup(name, &inputs, placement)?;
    let (mut base, mut traced) = (Samples::default(), Samples::default());
    base.window(
        workload.as_mut(),
        seconds * TRACED_SPLIT.0,
        &mut Recorder::off(),
    );

    let mut rec = Recorder::on();
    let counters_before = workload.counters();
    let pool_before = parc_remoting::bufpool::global().stats();
    parc_obs::set_enabled(true);
    parc_obs::reset();
    traced.window(workload.as_mut(), seconds * TRACED_SPLIT.1, &mut rec);
    parc_obs::set_enabled(false);
    let pool_after = parc_remoting::bufpool::global().stats();
    let counters = workload.counters();
    let (cpu_s, peak_rss_mb, threads) = proc_self();
    drop(workload);

    // The isolated costs are path lengths: one CPU, whatever the workload.
    placement.calling_side()?;
    let base_rtt_ns = (!base.rtts.is_empty()).then(|| base.rtt_p50_us() * 1e3);
    let mut rows = replay::replay(
        &workloads::shape(name, &inputs),
        Duration::from_secs_f64(seconds * TRACED_SPLIT.2),
        base_rtt_ns,
    )?;

    let rounds = traced.walls.len() as f64;
    let (base_wall_s, traced_wall_s) = (base.wall_s(), traced.wall_s());
    let delta = counters.since(&counters_before);
    let (hits, misses) = (pool_after.0 - pool_before.0, pool_after.1 - pool_before.1);
    let one_way_messages = (delta.messages - delta.sync_calls) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let obs_mean = |kind: &str| parc_obs::histogram(kind).mean();
    // The farm's yardstick, and every run's: the frame rendered line by
    // line with no runtime.
    let seq_render_s = workloads::sequential_render_s();
    let farm = |value: f64| {
        if name == "raytracer_farm" {
            value
        } else {
            0.0
        }
    };
    // What the frame would cost if the runtime were free: the sequential
    // render spread over the CPUs the workers have.
    let ideal_s = seq_render_s / workloads::FARM_WORKERS.min(placement.cpus()) as f64;
    rows.extend([
        (
            "bufpool.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        ("mailbox.executed", delta.executed as f64 / rounds),
        ("mailbox.stolen", delta.stolen as f64 / rounds),
        ("mailbox.max_depth", delta.max_depth as f64),
        (
            "batch.calls_per_message",
            ratio(delta.async_calls as f64, one_way_messages),
        ),
        ("batch.batches_sent", delta.batches as f64 / rounds),
        ("sieve.hops", inputs.sieve_hops as f64),
        (
            "raytracer.render_line_us",
            seq_render_s / workloads::FRAME as f64 * 1e6,
        ),
        (
            "raytracer.result_bytes_per_line",
            (workloads::FRAME * std::mem::size_of::<f64>()) as f64,
        ),
        ("farm.speedup_vs_seq", farm(seq_render_s / base_wall_s)),
        (
            "farm.runtime_share",
            farm((base_wall_s - ideal_s) / base_wall_s),
        ),
        ("rtt_p99_us", base.rtt_p99_us()),
        (
            "obs.serialize_mean_ns",
            obs_mean(parc_obs::kinds::SERIALIZE),
        ),
        (
            "obs.channel_send_mean_ns",
            obs_mean(parc_obs::kinds::CHANNEL_SEND),
        ),
        (
            "obs.mailbox_wait_mean_ns",
            obs_mean(parc_obs::kinds::MAILBOX_WAIT),
        ),
        ("obs.dispatch_mean_ns", obs_mean(parc_obs::kinds::DISPATCH)),
        ("obs.trace_overhead_ratio", traced_wall_s / base_wall_s),
        ("proc.cpu_s", cpu_s),
        ("proc.peak_rss_mb", peak_rss_mb),
        ("proc.threads", threads),
    ]);

    let path = out_dir().join(format!("trace-{name}.jsonl"));
    rec.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    info(name, "baseline_rounds", base.walls.len() as f64, "count");
    info(name, "traced_rounds", rounds, "count");
    info(name, "trace_spans", rec.spans() as f64, "count");
    info(name, "trace_dropped_ops", rec.dropped() as f64, "count");
    info(name, "baseline_rtt_p50_us", base.rtt_p50_us(), "us");
    // Rows that exist on some workloads only, so not declared for all.
    if inputs.sieve_hops > 0 {
        let per_hop = base_wall_s * 1e9 / inputs.sieve_hops as f64;
        info(name, "sieve.ns_per_hop", per_hop, "ns");
    }
    let queue_wait = obs_mean(parc_obs::kinds::QUEUE_WAIT);
    if queue_wait > 0.0 {
        info(name, "obs.queue_wait_mean_ns", queue_wait, "ns");
    }
    Ok((
        rows,
        base.attempted + traced.attempted,
        base.failed + traced.failed,
    ))
}
