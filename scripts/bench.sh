#!/usr/bin/env bash
# Runs every bench target and collects the machine-readable reports in
# target/bench-json/BENCH_<name>.json (override the directory with
# PARC_BENCH_JSON_DIR). Pass bench names to run a subset:
#
#   scripts/bench.sh                   # everything
#   scripts/bench.sh obs_overhead      # just the observability costs
#   scripts/bench.sh tcp_scaling       # reactor vs mux at 1/64/1024 sockets
#
# The full run includes fault_recovery, whose BENCH_fault_recovery.json
# records farm call throughput before/during/after killing one of three
# runtime nodes mid-run plus the p99 recovery latency from the runtime's
# own recovery.latency histogram (recovery_throughput_ratio is the
# acceptance ratio: post-recovery throughput must stay >= 0.8x
# pre-fault), and tcp_scaling, whose BENCH_tcp_scaling.json sweeps the
# reactor transport against the thread-per-connection mux client at
# 1/64/1024 sockets — reactor_vs_mux_64_conns is the acceptance ratio
# (must stay >= 0.9x) and reactor_resident_threads_1024_conns shows the
# fixed-pool thread count while 1024 sockets are live, and
# obs_propagation, whose BENCH_obs_propagation.json prices cross-node
# trace-context injection on the mux call path
# (propagation_vs_recording_calls_ratio is the acceptance ratio: must
# stay >= 0.95, i.e. injection costs <= 5% on top of span recording),
# and rebalance, whose BENCH_rebalance.json compares O(1) ring
# placement against the least-loaded probe scan at 8 nodes
# (create_p99_speedup_ring_vs_scan must stay >= 5x) and measures
# skewed-load throughput before/during/after the rebalancer
# live-migrates the hot node's objects (rebalance_throughput_ratio:
# post-rebalance throughput must stay >= 0.8x the evenly-spread
# baseline, with at least one migration observed), and
# adaptive_batching, whose BENCH_adaptive_batching.json races the
# closed-loop batch controller against fixed batch sizes {1, 8, 64}
# over mux and reactor (uniform_controller_vs_best_fixed must stay
# >= 0.9; bursty_controller_vs_best_fixed, deadline goodput under
# periodic floods, must stay >= 1.5), and reservations, whose
# BENCH_reservations.json prices multi-object claims against a coarse
# global lock (reservation_ratio_1obj >= 0.5: claim overhead bounded
# at 2x under full contention; reservation_ratio_8obj >= 2.0: disjoint
# compound ops must overlap where the global lock serializes them).
# The last numbers of the retired tcp_concurrency / mailbox_scaling /
# flat-vs-list ratios are in EXPERIMENTS.md ("Retired baselines").
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    for name in "$@"; do
        cargo bench --offline -p parc-bench --bench "$name"
    done
else
    cargo bench --offline -p parc-bench --benches
fi

dir="${PARC_BENCH_JSON_DIR:-target/bench-json}"
echo
echo "bench reports in ${dir}:"
ls -1 "${dir}" 2>/dev/null || echo "  (none written)"
