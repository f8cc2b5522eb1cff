//! Tooling self-test: the benchmark's names, counts and manifest.
//!
//! Runs the real binary through every workload with a 200 ms window —
//! nothing here asserts on a time.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use parc_obs::json::{self, Json};

#[path = "../src/spec.rs"]
mod spec;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one of BENCHMARK.json's lists
/// (workloads have no unit).
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    let Some(Json::Array(entries)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list}")
    };
    let text = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    entries
        .iter()
        .map(|e| (text(e, "name"), text(e, "unit")))
        .collect()
}

fn in_spec(metrics: &[spec::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one workload once and returns `(name, unit)` and the value of
/// every metric of its last stdout line.
fn run(workload: &str, trace: &str) -> (Vec<(String, String)>, Vec<f64>) {
    let output = Command::new(env!("CARGO_BIN_EXE_callpath"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            trace,
        ])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = json::parse(stdout.lines().last().unwrap_or("")).expect("last line is JSON");
    let Json::Object(keys) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: an output check failed"
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics")
    };
    metrics
        .iter()
        .map(|(name, entry)| {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{workload} {name} is not finite");
            let unit = entry
                .get("unit")
                .and_then(Json::as_str)
                .expect("every metric has a unit");
            ((name.clone(), unit.to_string()), value)
        })
        .unzip()
}

#[test]
fn emitted_names_equal_declared_names_and_counts_repeat() {
    let doc = benchmark_json();
    let workloads: Vec<String> = declared(&doc, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    assert_eq!(
        workloads,
        spec::WORKLOADS,
        "BENCHMARK.json and spec.rs name different workloads"
    );
    assert_eq!(end_to_end, in_spec(&spec::END_TO_END));
    let Some(Json::Array(entries)) = doc.get("end_to_end") else {
        unreachable!()
    };
    for (entry, metric) in entries.iter().zip(&spec::END_TO_END) {
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(metric.bound),
            "{}",
            metric.name
        );
        // Where these numbers come from: CALIBRATION.md. Nothing may get
        // looser without a new calibration saying why.
        let loosest = if metric.name == "setup_s" { 0.2 } else { 0.15 };
        assert!(
            metric.bound > 0.0 && metric.bound <= loosest,
            "{}",
            metric.name
        );
        let better = if metric.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(better),
            "{}",
            metric.name
        );
    }
    assert_eq!(per_layer, in_spec(&spec::PER_LAYER));
    assert!(per_layer.len() <= 128);
    let names: Vec<&String> = workloads
        .iter()
        .chain(end_to_end.iter().chain(&per_layer).map(|m| &m.0))
        .collect();
    for name in &names {
        assert!(well_formed(name), "{name:?} is not [A-Za-z0-9_.-]+");
    }
    assert_eq!(
        names.iter().collect::<BTreeSet<_>>().len(),
        names.len(),
        "a name is used twice"
    );
    assert!(end_to_end.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));

    let exact = [
        "message.call_wire_bytes",
        "message.reply_wire_bytes",
        "serial.encoded_bytes",
        "sieve.hops",
    ];
    for workload in &workloads {
        let (emitted, values) = run(workload, "0");
        assert_eq!(emitted, end_to_end, "{workload} --trace 0");
        assert!(
            values.iter().all(|v| *v > 0.0),
            "{workload}: an end-to-end metric read 0"
        );
        let (emitted, first) = run(workload, "1");
        let (_, second) = run(workload, "1");
        assert_eq!(emitted, per_layer, "{workload} --trace 1");
        for ((name, _), (a, b)) in emitted.iter().zip(first.iter().zip(&second)) {
            if exact.contains(&name.as_str()) {
                assert_eq!(a, b, "{workload} {name} must repeat exactly");
            }
        }
        let trace = manifest_dir().join(format!("out/trace-{workload}.jsonl"));
        let spans = std::fs::read_to_string(&trace).expect("the traced run wrote its spans");
        json::parse(spans.lines().next().expect("at least one span")).expect("a span is JSON");
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_callpath"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary starts");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}

/// Same rule `scripts/verify.sh` enforces for the workspace: path
/// dependencies only, so the benchmark builds offline on a bare toolchain.
#[test]
fn manifest_has_no_registry_dependency() {
    let manifest = std::fs::read_to_string(manifest_dir().join("Cargo.toml")).unwrap();
    let mut in_dependencies = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_dependencies = line.contains("dependencies");
        } else if in_dependencies && !line.is_empty() && !line.starts_with('#') {
            assert!(
                line.contains("path = \"../crates/"),
                "not a path dependency: {line}"
            );
            assert!(
                !line.contains("version") && !line.contains("git ="),
                "{line}"
            );
        }
    }
    let lock = std::fs::read_to_string(manifest_dir().join("Cargo.lock")).unwrap();
    assert!(
        !lock.contains("source = "),
        "Cargo.lock references a registry or git source"
    );
}
