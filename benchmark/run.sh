#!/usr/bin/env bash
# callpath: the repo's one benchmark. One command, three uses:
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S]
#       every workload (or the one named), untraced then traced; prints
#       `workload metric value unit` for every metric, writes
#       benchmark/out/results.json and one benchmark/out/trace-<workload>.jsonl
#       per workload; exits non-zero when any output check fails.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is one JSON object (the form the
#       acceptance driver calls, see BENCHMARK.json).
#   benchmark/run.sh --calibrate [--seconds S]
#       two sets of ten runs per workload; prints the spread table behind the
#       bounds in BENCHMARK.json (see benchmark/CALIBRATION.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# The program reads 29 PARC_* knobs; a benchmark number must not depend on
# what the caller's shell happened to export. Fault injection is refused
# outright rather than silently dropped: someone asked for it.
if [ -n "${PARC_CHAOS:-}" ]; then
    echo "benchmark/run.sh: refusing to run under PARC_CHAOS=${PARC_CHAOS}" >&2
    exit 2
fi
for var in $(compgen -e); do
    case "$var" in PARC_*) unset "$var" ;; esac
done

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/callpath" "$@"
