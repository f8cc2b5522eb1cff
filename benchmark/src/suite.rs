//! Whole-suite modes: every workload untraced then traced
//! (`benchmark/run.sh`), and the calibration of run-to-run spread
//! (`benchmark/run.sh --calibrate`).
//!
//! Each run is a child process of this same binary, so set-up time, peak
//! memory and thread counts start from zero for every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use parc_obs::json::{self, Json};

use crate::spec::{self, WORKLOADS};
use crate::stats::quartiles;
use crate::{out_dir, Args};

/// What one child run printed.
struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// Metrics of the final JSON line: `(name, value, unit)`.
    metrics: Vec<(String, f64, String)>,
    /// The `# workload name value unit` lines: sample counts and the like.
    info: Vec<(String, f64, String)>,
}

fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last).map_err(|e| {
        format!(
            "{workload} (trace {}) printed no result ({e}); stderr: {stderr}",
            u8::from(traced)
        )
    })?;
    let number = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let mut run = Run {
        correct: result.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: number("attempted"),
        failed: number("failed"),
        metrics: Vec::new(),
        info: Vec::new(),
    };
    if let Some(Json::Object(members)) = result.get("metrics") {
        for (name, entry) in members {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            run.metrics.push((name.clone(), value, unit.to_string()));
        }
    }
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let ["#", _, name, value, unit] = fields[..] {
            if let Ok(value) = value.parse() {
                run.info.push((name.to_string(), value, unit.to_string()));
            }
        }
    }
    Ok(run)
}

fn selected(args: &Args) -> Vec<&str> {
    match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, arguments: &[&str]) -> String {
    Command::new(program)
        .args(arguments)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where the measurement was taken: machine, code, toolchain, and the
/// settings the program's defaults resolve to here.
fn environment_json() -> String {
    format!(
        "\"nproc\": {}, \"commit\": \"{}\", \"rustc\": \"{}\", \"dispatch_workers\": {}, \"tcp_pool\": {}, \"transport\": \"{:?}\"",
        nproc(),
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
        parc_remoting::mailbox::workers_from_env(),
        parc_remoting::tcp::pool_size_from_env(),
        parc_remoting::tcp::TcpChannelProvider::new().transport(),
    )
}

fn metrics_json(rows: &[(String, f64, String)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Every workload (or the one named) untraced, then traced. Prints
/// `workload metric value unit` for every metric, writes
/// `out/results.json`, and reports whether every output check passed.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut entries = Vec::new();
    for workload in selected(args) {
        let untraced = run_child(workload, args.seed, args.seconds, false)?;
        let traced = run_child(workload, args.seed, args.seconds, true)?;
        for run in [&untraced, &traced] {
            for (name, value, unit) in run.metrics.iter().chain(&run.info) {
                println!("{workload} {name} {value} {unit}");
            }
        }
        // End-to-end metrics come from the untraced run only; so does the
        // failure ratio, counted against operations attempted.
        let failed_ratio = untraced.failed / untraced.attempted;
        println!("{workload} failed_ratio {failed_ratio} ratio");
        let ok =
            untraced.correct && traced.correct && untraced.failed == 0.0 && traced.failed == 0.0;
        if !ok {
            println!("{workload} OUTPUT CHECK FAILED");
        }
        all_correct &= ok;
        entries.push(format!(
            "\"{workload}\": {{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"failed_ratio\": {failed_ratio}, \"end_to_end\": {}, \"per_layer\": {}, \"samples\": {}, \"traced_samples\": {}}}",
            untraced.attempted,
            untraced.failed,
            metrics_json(&untraced.metrics),
            metrics_json(&traced.metrics),
            metrics_json(&untraced.info),
            metrics_json(&traced.info),
        ));
    }
    let results = format!(
        "{{{}, \"seed\": {}, \"seconds\": {}, \"workloads\": {{{}}}}}\n",
        environment_json(),
        args.seed,
        args.seconds,
        entries.join(", ")
    );
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, results))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Runs per set and workload in `--calibrate`: the acceptance driver's ten.
const CALIBRATION_RUNS: usize = 10;

/// Two sets of ten untraced runs per workload, each run on its own
/// seed, the second set visiting the workloads in reverse order. Prints,
/// per workload × metric, each set's median and quartile spread (as a
/// share of the median — the acceptance driver's rule) and how much worse
/// the second set's median is than the first's.
pub fn calibrate(args: &Args) -> Result<bool, String> {
    // (workload, metric) → values of set A, values of set B.
    let mut table: BTreeMap<(usize, String), [Vec<f64>; 2]> = BTreeMap::new();
    // Share of the CPU the hypervisor took away, per run, per set.
    let mut stolen: [Vec<f64>; 2] = Default::default();
    let mut all_correct = true;
    for (set, stolen) in stolen.iter_mut().enumerate() {
        for run in 0..CALIBRATION_RUNS {
            let seed = args.seed + (set * CALIBRATION_RUNS + run) as u64;
            let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
            if set == 1 {
                order.reverse();
            }
            for w in order {
                if args
                    .workload
                    .as_deref()
                    .is_some_and(|only| only != WORKLOADS[w])
                {
                    continue;
                }
                let result = run_child(WORKLOADS[w], seed, args.seconds, false)?;
                all_correct &= result.correct && result.failed == 0.0;
                for (name, value, _) in &result.metrics {
                    table.entry((w, name.clone())).or_default()[set].push(*value);
                }
                stolen.extend(
                    result
                        .info
                        .iter()
                        .filter(|(name, ..)| name == "steal_ratio")
                        .map(|i| i.1),
                );
                eprintln!(
                    "set {} run {} seed {seed} {} done",
                    set + 1,
                    run + 1,
                    WORKLOADS[w]
                );
            }
        }
    }
    let mut report = String::new();
    writeln!(
        report,
        "nproc {} · commit {} · {} · {} s window · 2 sets × {} runs · seeds {}..{} · CPU stolen by the host: {:.1} % of set A, {:.1} % of set B\n",
        nproc(),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"]),
        args.seconds,
        CALIBRATION_RUNS,
        args.seed,
        args.seed + 2 * CALIBRATION_RUNS as u64 - 1,
        mean(&stolen[0]) * 100.0,
        mean(&stolen[1]) * 100.0,
    )
    .and_then(|()| {
        writeln!(report, "| workload | metric | median A | spread A | median B | spread B | B worse than A |")
    })
    .and_then(|()| writeln!(report, "|---|---|---|---|---|---|---|"))
    .expect("writing to a string");
    // Per metric: widest spread and widest difference between the sets'
    // medians over the workloads. The same code ran in both sets, so a
    // difference either way is what an unchanged program can be charged with.
    let mut widest: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for ((w, metric), sets) in &table {
        let summary = |values: &[f64]| {
            let (q1, q2, q3) = quartiles(values);
            (q2, (q3 - q1) / q2)
        };
        let (median_a, spread_a) = summary(&sets[0]);
        let (median_b, spread_b) = summary(&sets[1]);
        let drift = (median_b - median_a) / median_a;
        let declared = spec::END_TO_END.iter().find(|m| m.name == metric);
        let worse = if declared.is_some_and(|m| m.higher_is_better) {
            -drift
        } else {
            drift
        };
        writeln!(
            report,
            "| {} | {metric} | {median_a:.6} | {:.2} % | {median_b:.6} | {:.2} % | {:+.2} % |",
            WORKLOADS[*w],
            spread_a * 100.0,
            spread_b * 100.0,
            worse * 100.0
        )
        .expect("writing to a string");
        let (spread, worsening) = widest.entry(metric.clone()).or_default();
        *spread = spread.max(spread_a).max(spread_b);
        *worsening = worsening.max(worse.abs());
    }
    writeln!(
        report,
        "\n| metric | widest spread | widest difference between A and B | bound in force |"
    )
    .and_then(|()| writeln!(report, "|---|---|---|---|"))
    .expect("writing to a string");
    for (metric, (spread, worsening)) in &widest {
        let bound = match spec::END_TO_END.iter().find(|m| m.name == metric) {
            Some(m) => format!("{:.0} %", m.bound * 100.0),
            None => "none (per-layer)".to_string(),
        };
        writeln!(
            report,
            "| {metric} | {:.2} % | {:.2} % | {bound} |",
            spread * 100.0,
            worsening * 100.0
        )
        .expect("writing to a string");
    }
    print!("{report}");
    Ok(all_correct)
}
