#!/usr/bin/env bash
# A/B the `callpath` benchmark between a parent revision and this
# checkout, in alternating pairs.
#
#   scripts/ab.sh <parent-rev> [--seeds A..B] [--workloads W1,W2,...] [--seconds S]
#
# The parent is exported with `git archive` into the git-ignored
# .bench_build/<rev>/ and built there; the change is this checkout,
# uncommitted edits included. Pair i runs seed A+i-1 on both sides, the
# parent first on odd pairs and the change first on even pairs, so a
# drift in the machine lands on both sides alike. Every run is
# `benchmark/run.sh --workload W --seed N --seconds S --trace 0` in its
# side's tree; its last stdout line (one JSON object) is appended to
# .bench_build/ab-<stamp>/runs.jsonl.
#
# Prints, per workload and end-to-end metric of BENCHMARK.json: q1 /
# median / q3 on each side, change ÷ parent of the medians, wins (pairs
# in which the change was on the better side) and the metric's bound,
# then failed operations and correctness per side. Defaults: seeds 1..3,
# every workload, 3 s. Needs python3 for the summary.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

usage() {
    sed -n '5p' "$0" | sed 's/^#  *//' >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_rev=$1
shift
seeds=1..3
workloads=
seconds=3
while [ $# -gt 0 ]; do
    case "$1" in
        --seeds) seeds=$2; shift 2 ;;
        --workloads) workloads=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        *) usage ;;
    esac
done
first=${seeds%..*}
last=${seeds#*..}
if [ -z "$workloads" ]; then
    workloads=$(python3 -c 'import json; print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

parent_sha=$(git rev-parse --short "$parent_rev")
parent_root="$root/.bench_build/$parent_sha"
if [ ! -d "$parent_root" ]; then
    mkdir -p "$parent_root"
    git archive "$parent_sha" | tar -x -C "$parent_root"
fi
# Each side builds into its own benchmark/target.
unset CARGO_TARGET_DIR
for side_root in "$parent_root" "$root"; do
    cargo build --release --offline --quiet --manifest-path "$side_root/benchmark/Cargo.toml"
done

out="$root/.bench_build/ab-$(date -u +%Y%m%dT%H%M%S)"
mkdir -p "$out"
runs="$out/runs.jsonl"
: >"$runs"

run_one() { # side root workload pair seed
    local line
    line=$(bash "$2/benchmark/run.sh" --workload "$3" --seed "$5" --seconds "$seconds" --trace 0 | tail -n 1)
    printf '{"side": "%s", "workload": "%s", "pair": %d, "seed": %d, "run": %s}\n' \
        "$1" "$3" "$4" "$5" "$line" >>"$runs"
}

echo "parent $parent_sha vs change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+dirty'):" \
    "seeds $first..$last, ${seconds} s, nproc $(nproc), $(rustc --version)" >&2
IFS=, read -r -a names <<<"$workloads"
for w in "${names[@]}"; do
    for seed in $(seq "$first" "$last"); do
        pair=$((seed - first + 1))
        if [ $((pair % 2)) -eq 1 ]; then
            run_one parent "$parent_root" "$w" "$pair" "$seed"
            run_one change "$root" "$w" "$pair" "$seed"
        else
            run_one change "$root" "$w" "$pair" "$seed"
            run_one parent "$parent_root" "$w" "$pair" "$seed"
        fi
        echo "  $w pair $pair (seed $seed) done" >&2
    done
done

echo "raw runs: $runs" >&2
python3 - "$runs" BENCHMARK.json <<'EOF'
import json, statistics, sys
from collections import defaultdict

runs = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
metrics = spec["end_to_end"]
by = defaultdict(dict)  # (workload, side) -> pair -> run
order = []
for r in runs:
    by[(r["workload"], r["side"])][r["pair"]] = r["run"]
    if r["workload"] not in order:
        order.append(r["workload"])

def fmt(x):
    return f"{x:.4g}"

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print("| workload | metric | parent | change | change ÷ parent | wins | bound |")
print("|---|---|---|---|---|---|---|")
for w in order:
    parent, change = by[(w, "parent")], by[(w, "change")]
    pairs = sorted(set(parent) & set(change))
    for m in metrics:
        name = m["name"]
        if name not in parent[pairs[0]]["metrics"]:
            continue
        p = [parent[i]["metrics"][name]["value"] for i in pairs]
        c = [change[i]["metrics"][name]["value"] for i in pairs]
        lower = m["better"] == "lower"
        wins = sum((ci < pi) if lower else (ci > pi) for pi, ci in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        print(f"| `{w}` | `{name}` | {fmt(pq[0])} / **{fmt(pq[1])}** / {fmt(pq[2])} "
              f"| {fmt(cq[0])} / **{fmt(cq[1])}** / {fmt(cq[2])} | {ratio:.3f} "
              f"| {wins}/{len(pairs)} | {round(m['bound'] * 100)} % |")
print()
bad = False
for w in order:
    for side in ("parent", "change"):
        rs = by[(w, side)].values()
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        correct = all(r["correct"] for r in rs)
        bad |= failed > 0 or not correct
        print(f"{w} {side}: failed {failed} of {attempted}, correct {correct}")
sys.exit(1 if bad else 0)
EOF
