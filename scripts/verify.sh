#!/usr/bin/env bash
# Hermetic verification: the workspace must build and test offline with
# zero registry dependencies. Run from anywhere; exits non-zero on the
# first violation.
set -euo pipefail

cd "$(dirname "$0")/.."

# Gate 1: no crates.io dependency may reappear in any manifest. Path-only
# dependencies have no `version`/`registry` key, so any of these names in
# a manifest means a registry dep snuck back in.
banned='parking_lot|crossbeam|proptest|criterion|rand'
if grep -rEn "^\s*(${banned})\s*=" Cargo.toml crates/*/Cargo.toml; then
    echo "FAIL: registry dependency found in a manifest (see above)" >&2
    exit 1
fi
# The lockfile must contain only this workspace's own path crates.
if grep -En 'source = "registry' Cargo.lock; then
    echo "FAIL: Cargo.lock references a registry source" >&2
    exit 1
fi
echo "ok: manifests and lockfile are registry-free"

# Gate 2: everything builds and tests with the network forbidden.
cargo build --release --offline
cargo test -q --offline --workspace
echo "ok: offline build + test passed"

# Gate 3: observability smoke test. A traced sieve run must record
# aggregation activity (batch_flushed events in the metrics summary) and
# produce a structurally valid Chrome trace.
obs_out=$(PARC_OBS=1 cargo run --release --offline -q --example prime_sieve 2>&1)
batch_flushed=$(printf '%s\n' "$obs_out" | awk '$1 == "batch_flushed" { print $2 }')
if [ -z "${batch_flushed}" ] || [ "${batch_flushed}" -eq 0 ]; then
    printf '%s\n' "$obs_out" >&2
    echo "FAIL: traced sieve run recorded no batch_flushed events" >&2
    exit 1
fi
cargo run --release --offline -q -p parc-obs --bin parc-trace-check -- \
    target/prime_sieve_trace.json --min-events 10
echo "ok: obs smoke test passed (${batch_flushed} batch_flushed events, trace valid)"

# Gate 4: failure injection against the multiplexed TCP channel. Dead
# servers must surface as transport/timeout errors promptly — a broken
# connection has to fail pending and future calls, not leave callers
# parked until the 30 s reply deadline — and a stopped inproc endpoint
# must fail the calls still queued for it at once. The run is timed
# (built first, so compiling is not counted): over 10 s means some call
# waited out its deadline. Then the suite runs again under --release,
# the profile in which a farm map used to finish before its mid-run kill.
cargo test -q --offline --test failure_injection --no-run
started_ns=$(date +%s%N)
cargo test -q --offline --test failure_injection
elapsed_ms=$(( ($(date +%s%N) - started_ns) / 1000000 ))
if [ "${elapsed_ms}" -gt 10000 ]; then
    echo "FAIL: failure injection took ${elapsed_ms} ms (limit 10000): a call waited out its deadline" >&2
    exit 1
fi
cargo test -q --release --offline --test failure_injection
echo "ok: failure injection passes against the multiplexed channel (${elapsed_ms} ms debug, and under --release)"

# Gate 5: mailbox dispatch. The suite proves per-object FIFO under
# concurrent clients, cross-object overlap, stalled-object isolation, and
# — the obs smoke half — that dispatch.mailbox_wait samples and
# dispatch.steal events are actually non-zero under load.
cargo test -q --offline --test mailbox_dispatch
echo "ok: mailbox dispatch suite passes (ordering, isolation, obs signals)"

# Gate 6: chaos + recovery. Gate 4's suite already proves the seeded
# in-process chaos properties (exactly-once idempotent retries,
# at-most-once plain calls, same-seed => identical fault traces, node
# kills mid-run). This gate exercises the *env-var* chaos path end to
# end: a traced sieve run under PARC_CHAOS must actually inject faults
# (fault.injected > 0 in the metrics summary), still produce the correct
# primes (the example asserts them), and emit a structurally valid
# trace. Two fixed seeds, so a plan that only ever injects at one
# specific seed can't sneak through. Delay faults only: the sieve's
# one-way posts have no retry path, so lossy faults would (correctly)
# change its output.
for seed in 11 12; do
    chaos_out=$(PARC_OBS=1 PARC_CHAOS="${seed}:delay=0.4:1" \
        cargo run --release --offline -q --example prime_sieve 2>&1)
    injected=$(printf '%s\n' "$chaos_out" | awk '$1 == "fault.injected" { print $2 }')
    if [ -z "${injected}" ] || [ "${injected}" -eq 0 ]; then
        printf '%s\n' "$chaos_out" >&2
        echo "FAIL: chaos run (seed ${seed}) injected no faults" >&2
        exit 1
    fi
    cargo run --release --offline -q -p parc-obs --bin parc-trace-check -- \
        target/prime_sieve_trace.json --min-events 10
    echo "ok: chaos sieve run (seed ${seed}) injected ${injected} faults, output correct, trace valid"
done

# Gate 7: the transports. The conformance suite pins the contracts
# every transport keeps over TCP, inproc and HTTP alike (FIFO ordering,
# one-way/two-way interleaving, replies reaching their own caller, one
# call in flight per object, a fault for a two-way call marked one-way,
# claim/release) and TCP's wire contracts (poison-on-death,
# unknown-frame tolerance, hostile request frames, the mux client's
# leader/follower reads). Then a traced sieve hosted over
# real TCP sockets must compute the correct primes (the example asserts
# them) and emit a structurally valid Chrome trace, and the live HTTP
# channel must answer a SOAP call over a loopback socket.
if ! cargo test -q --offline --test transport_conformance; then
    echo "FAIL: transport conformance suite (tcp, inproc, http) failed" >&2
    exit 1
fi
PARC_OBS=1 cargo run --release --offline -q --example tcp_sieve >/dev/null
cargo run --release --offline -q -p parc-obs --bin parc-trace-check -- \
    target/tcp_sieve_trace.json --min-events 10
if ! http_out=$(cargo run --release --offline -q --example http_channel 2>&1) \
    || ! printf '%s\n' "$http_out" | grep -q '^355 / 113 over SOAP = 3.14159'; then
    printf '%s\n' "${http_out:-}" >&2
    echo "FAIL: the live HTTP channel did not answer its SOAP call (transports: tcp, inproc, http)" >&2
    exit 1
fi
echo "ok: transports pass (conformance suite over tcp + inproc + http, sieve over sockets, trace valid, live http call answered)"

# Gate 8: cross-node distributed tracing. A traced 3-node sieve writes
# one JSONL trace file per node; parc-trace-merge must join them into a
# single Chrome trace, and parc-trace-check --cross-node must prove the
# causal graph: span ids unique, every remote dispatch parented under
# the originating client's send, parent links acyclic and ordered
# within clock skew, and at least one dispatch edge actually crossing a
# node boundary.
node_dir=target/obs-nodes
rm -rf "${node_dir}"
PARC_OBS=1 PARC_OBS_NODE_DIR="${node_dir}" \
    cargo run --release --offline -q --example prime_sieve -- 200 3 >/dev/null
jsonl_count=$(ls "${node_dir}"/*.jsonl 2>/dev/null | wc -l)
if [ "${jsonl_count}" -lt 3 ]; then
    echo "FAIL: traced 3-node sieve wrote only ${jsonl_count} per-node jsonl files" >&2
    exit 1
fi
cargo run --release --offline -q -p parc-obs --bin parc-trace-merge -- \
    "${node_dir}" -o target/merged_trace.json
cargo run --release --offline -q -p parc-obs --bin parc-trace-check -- \
    target/merged_trace.json --cross-node --min-events 100
echo "ok: cross-node tracing passed (${jsonl_count} node files merged, causal graph valid)"

# Gate 9: sharded directory + live migration. The property suite proves
# the consistent-hash ring (deterministic seeded lookup, minimal
# remapping on node death, epoch safety, bounded-memory resolution at
# 1M keys) and the migration suite proves state transfer, forwarding,
# proxy repointing, clean aborts, and per-client FIFO across a mid-run
# migration. Then a traced skewed run must observe the rebalancer
# actually live-migrate objects (migration.completed > 0 in the metrics
# summary, the example also asserts no increment was lost) and emit a
# structurally valid Chrome trace.
cargo test -q --offline --test directory_properties
cargo test -q --offline --test migration
rebalance_out=$(PARC_OBS=1 cargo run --release --offline -q --example ring_rebalance 2>&1)
migrations=$(printf '%s\n' "$rebalance_out" | awk '$1 == "migration.completed" { print $2 }')
if [ -z "${migrations}" ] || [ "${migrations}" -eq 0 ]; then
    printf '%s\n' "$rebalance_out" >&2
    echo "FAIL: traced skewed run completed no live migrations" >&2
    exit 1
fi
cargo run --release --offline -q -p parc-obs --bin parc-trace-check -- \
    target/ring_rebalance_trace.json --min-events 10
echo "ok: sharded directory passed (ring + migration suites, ${migrations} live migrations, trace valid)"

# Gate 10: closed-loop adaptive aggregation. A traced adaptive run must
# ship aggregate messages (batch_flushed > 0), and the batch controller
# must actually close the loop in both directions — the example asserts
# at least one grow over drained queues, and the metrics summary must
# show at least one shrink under backlog (batch.shrink > 0). The trace
# must stay structurally valid.
adaptive_out=$(PARC_OBS=1 cargo run --release --offline -q --example adaptive_batch 2>&1)
flushed=$(printf '%s\n' "$adaptive_out" | awk '$1 == "batch_flushed" { print $2 }')
shrinks=$(printf '%s\n' "$adaptive_out" | awk '$1 == "batch.shrink" { print $2 }')
if [ -z "${flushed}" ] || [ "${flushed}" -eq 0 ]; then
    printf '%s\n' "$adaptive_out" >&2
    echo "FAIL: adaptive run shipped no aggregate messages" >&2
    exit 1
fi
if [ -z "${shrinks}" ] || [ "${shrinks}" -eq 0 ]; then
    printf '%s\n' "$adaptive_out" >&2
    echo "FAIL: adaptive run never shrank the batch target under backlog" >&2
    exit 1
fi
cargo run --release --offline -q -p parc-obs --bin parc-trace-check -- \
    target/adaptive_batch_trace.json --min-events 10
echo "ok: adaptive aggregation passed (${flushed} flushes, ${shrinks} controller shrinks, trace valid)"

# Gate 11: multi-object reservations. The integration suite proves
# deadlock freedom under adversarial acquisition orders (canonical-order
# claims), conservation + same-seed replay under per-client seeded chaos,
# lease reclaim of leaked claims, fencing of stalled holders, the
# never-split migration interaction, and the dropped-guard-during-failover
# regression. Then the bank-transfer example runs under two fixed
# PARC_CHAOS seeds (drops + delays on every channel): faults must
# actually be injected, the claim plane must be exercised
# (claim.acquired > 0), the conservation invariant must hold
# (invariant_violations == 0 — the example also asserts it), and the
# trace must stay structurally valid.
cargo test -q --offline --test reservations
for seed in 21 22; do
    bank_out=$(PARC_OBS=1 PARC_CHAOS="${seed}:drop=0.05,delay=0.3:1" \
        cargo run --release --offline -q --example bank_transfer 2>&1)
    bank_injected=$(printf '%s\n' "$bank_out" | awk '$1 == "fault.injected" { print $2 }')
    bank_claims=$(printf '%s\n' "$bank_out" | awk '$1 == "claim.acquired" { print $2 }')
    violations=$(printf '%s\n' "$bank_out" \
        | awk '$1 == "bank_transfer:" && $2 == "invariant_violations" { print $3 }')
    if [ -z "${bank_injected}" ] || [ "${bank_injected}" -eq 0 ]; then
        printf '%s\n' "$bank_out" >&2
        echo "FAIL: chaos bank-transfer run (seed ${seed}) injected no faults" >&2
        exit 1
    fi
    if [ -z "${bank_claims}" ] || [ "${bank_claims}" -eq 0 ]; then
        printf '%s\n' "$bank_out" >&2
        echo "FAIL: chaos bank-transfer run (seed ${seed}) acquired no claims" >&2
        exit 1
    fi
    if [ "${violations:-1}" -ne 0 ]; then
        printf '%s\n' "$bank_out" >&2
        echo "FAIL: chaos bank-transfer run (seed ${seed}) violated conservation" >&2
        exit 1
    fi
    cargo run --release --offline -q -p parc-obs --bin parc-trace-check -- \
        target/bank_transfer_trace.json --min-events 10
    echo "ok: chaos bank transfer (seed ${seed}) injected ${bank_injected} faults, ${bank_claims} claims, conserved, trace valid"
done

# Gate 12: the knob count. Every "PARC_*" string literal the libraries
# read (crates/ and src/) must have a row in README's "Environment
# variables" table and vice versa, so an option cannot appear, or
# linger in the docs after its code is gone, without this gate moving.
code_knobs=$(grep -rhoE '"PARC_[A-Z_]+"' crates src | tr -d '"' | sort -u)
doc_knobs=$(sed -n '/^## Environment variables/,/^## /p' README.md \
    | grep -oE '^\| `PARC_[A-Z_]+`' | grep -oE 'PARC_[A-Z_]+' | sort -u)
if [ "${code_knobs}" != "${doc_knobs}" ]; then
    echo "FAIL: PARC_* knobs in code and in README's environment table differ:" >&2
    echo "  (< only in code, > only in README)" >&2
    diff <(printf '%s\n' "${code_knobs}") <(printf '%s\n' "${doc_knobs}") >&2 || true
    exit 1
fi
echo "ok: $(printf '%s\n' "${code_knobs}" | wc -l) PARC_* knobs, each read in code and documented in README"

# Gate 13: exact wire counts. The byte counts behind Fig. 8a/8b come out
# of the encoders, so an encoder change that moves one byte must fail
# here. tests/wire_format.rs pins the encodings (tree-free envelope ==
# value tree on all three formatters, golden vectors, bulk array codec ==
# element-wise reference) and the decoders (tree-free envelope decode ==
# `from_value` of the formatter's tree, error for error: on generated
# messages for all three formatters, on every cut and byte flip of a
# binary envelope, and on hand-built duplicate-field, wrong-type,
# wrong-name and trailing-byte envelopes); then one traced
# `echo_bulk_tcp` run must report the three counts that repeat exactly
# from run to run.
cargo test -q --offline --test wire_format
wire_json=$(bash benchmark/run.sh --workload echo_bulk_tcp --seed 1 --seconds 3 --trace 1 | tail -n 1)
wire_counts=""
for pin in serial.encoded_bytes=262153 message.call_wire_bytes=262217 message.reply_wire_bytes=262189; do
    got=$(printf '%s\n' "$wire_json" | grep -oE "\"${pin%%=*}\": \{\"value\": [0-9]+" | grep -oE '[0-9]+$' || true)
    if [ "${got}" != "${pin##*=}" ]; then
        echo "FAIL: ${pin%%=*} on echo_bulk_tcp is '${got}', pinned at ${pin##*=}" >&2
        exit 1
    fi
    wire_counts="${wire_counts} ${pin%%=*}=${got}"
done
echo "ok: wire format pinned (${wire_counts# })"

# Gate 14: lints. Clippy over every target of every workspace crate,
# warnings denied, so a lint cannot accumulate unnoticed.
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "ok: clippy clean (workspace, all targets, -D warnings)"
