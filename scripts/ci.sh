#!/usr/bin/env bash
# Offline-friendly CI gate: everything a PR must pass, with no network.
#
#   scripts/ci.sh               # full local gate (everything below)
#   scripts/ci.sh --quick       # fmt, build, test, edp_lint, one-parse-path
#                               # grep, telemetry smoke, paper-reproduction pin
#   scripts/ci.sh --gate        # fmt, clippy, golden_order at 5000 cases,
#                               # edp_lint (+ SARIF artifact),
#                               # one-parse-path grep, telemetry smoke,
#                               # pcap fixture round-trip, replay smoke,
#                               # paper-reproduction pin, benchmark smoke
#
# The CI pipeline runs `--quick` (the one tier-1 run) and `--gate` side
# by side; the default (no-flag) mode runs their union locally.
#
# The workspace vendors all third-party crates (see vendor/), so the
# whole gate runs with the cargo registry unreachable.
#
# The bench gate is the benchmark's own smoke (`benchmark/run.sh
# --smoke`) plus two exact work counters read from its result:
# correctness of the one ledger, not a wall-clock threshold — compare two
# full runs with `benchmark/run.sh compare A.json B.json`.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

mode=full
case "${1:-}" in
"") mode=full ;;
--quick) mode=quick ;;
--gate) mode=gate ;;
*)
    echo "usage: scripts/ci.sh [--quick | --gate]" >&2
    exit 2
    ;;
esac

step_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --check
}

step_build() {
    echo "==> cargo build --release"
    cargo build --offline --release -q
}

step_test() {
    echo "==> cargo test"
    cargo test --offline -q
}

step_lint() {
    echo "==> edp_lint --deny warnings (static hazard/lint gate)"
    # Static analysis over every registered app: shared-state hazards,
    # merge op algebra, table rule reachability, event coverage, and the
    # effect-summary cross-check (EDP-W008/EDP-E007). Stable codes are
    # documented in DESIGN.md §9; intentional findings are allowed
    # per-(code, subject) in the app's manifest, never
    # blanket-suppressed.
    cargo run --offline --release -q -p edp-analyze --bin edp_lint -- --deny warnings
}

step_parse_path() {
    echo "==> one parse path (no parse_packet( on a per-packet path outside edp-packet)"
    # The switch and the host read the frame's memoised parse
    # (Packet::parsed): a frame nobody rewrites is parsed once for its
    # whole path. A direct parse_packet( call in their non-test code
    # (everything above the file's #[cfg(test)] module) would quietly
    # re-parse per hop, which no test notices — parsing is pure. A listed
    # file that is gone fails the step: sed erroring inside the `if`
    # would otherwise pass it without checking anything.
    local f bad=0
    for f in crates/core/src/sume.rs crates/netsim/src/host.rs; do
        if [ ! -f "$f" ]; then
            echo "$f: listed in step_parse_path but missing" >&2
            bad=1
        elif sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'parse_packet('; then
            echo "$f: calls parse_packet( directly; use Packet::parsed()" >&2
            bad=1
        fi
    done
    [ "$bad" -eq 0 ]
}

step_lint_sarif() {
    echo "==> edp_lint --sarif (code-scanning artifact)"
    # The same catalog rendered as SARIF 2.1.0 for code-scanning UIs;
    # the gate job uploads target/edp_lint.sarif as a build artifact.
    # python3 validates it parses — SARIF consumers are strict.
    mkdir -p target
    cargo run --offline --release -q -p edp-analyze --bin edp_lint -- --sarif \
        >target/edp_lint.sarif
    if command -v python3 >/dev/null 2>&1; then
        python3 -c 'import json,sys; json.load(open(sys.argv[1]))' target/edp_lint.sarif
    fi
}

step_top_smoke() {
    echo "==> edp_top --json smoke (telemetry layer end-to-end)"
    # Drives two registered apps under a full telemetry session and
    # checks the JSON report is non-degenerate: the switch saw traffic
    # and the trace ring recorded it. Grep keeps this dependency-free.
    local app out
    for app in microburst ndp-trim; do
        out="$(cargo run --offline --release -q -p edp-bench --bin edp_top -- \
            "$app" --seeds 2 --duration-ms 2 --json)"
        echo "$out" | grep -q "\"app\":\"$app\"" || {
            echo "edp_top --json: missing app field for $app" >&2
            exit 1
        }
        echo "$out" | grep -q '"name":"events_ingress","scope":"sw0","value":[1-9]' || {
            echo "edp_top --json: no ingress events recorded for $app" >&2
            exit 1
        }
        echo "$out" | grep -q '"trace_records":[1-9]' || {
            echo "edp_top --json: empty trace ring for $app" >&2
            exit 1
        }
    done
}

step_reproduction() {
    echo "==> edp_exp all vs docs/experiment_output.txt (paper reproduction pin)"
    # The archive is the repo's claim to reproduce the paper's tables,
    # figures and §5 experiments: modelled results only, identical in
    # debug and release and under any EDP_SWEEP_THREADS. A
    # change that re-orders same-instant events moves these numbers, and
    # must do so as a reviewed diff.
    cargo run --offline --release -q -p edp-bench --bin edp_exp -- all |
        diff -u docs/experiment_output.txt - || {
        echo "edp_exp all differs from docs/experiment_output.txt (diff above)." >&2
        echo "If the change is intended, regenerate it, never hand-edit it:" >&2
        echo "  cargo run --offline --release -q -p edp-bench --bin edp_exp -- all >docs/experiment_output.txt" >&2
        echo "and explain the diff (which numbers moved, and why) in CHANGES.md." >&2
        exit 1
    }
}

step_pcap() {
    echo "==> pcap fixtures (deterministic regeneration check)"
    # The committed fixtures are pure functions of their seeds: pcap_gen
    # regenerates both in memory and fails on any byte difference with
    # what is on disk.
    cargo run --offline --release -q -p edp-bench --bin pcap_gen -- --check tests/fixtures

    echo "==> pcap codec round-trip (byte-identical re-encode)"
    # parse -> write -> parse must be a fixpoint, and canonical inputs
    # (which the fixtures are) must survive byte-for-byte.
    local f
    for f in tests/fixtures/*.pcap; do
        cargo run --offline --release -q -p edp-bench --bin edp_top -- --pcap-roundtrip "$f"
    done

    echo "==> edp_top --pcap smoke (capture replay + per-protocol telemetry)"
    # Replays the mixed-protocol fixture through a registered app and
    # checks the per-protocol counters saw every traffic class the
    # fixture carries (ARP proves the non-IPv4 path is alive).
    local out
    out="$(cargo run --offline --release -q -p edp-bench --bin edp_top -- \
        microburst --pcap tests/fixtures/mixed_protocols.pcap \
        --seeds 1 --duration-ms 2 --json)"
    local scope
    for scope in "eth:arp" "ip:udp" "port:kv" "port:rpc"; do
        echo "$out" | grep -q "\"name\":\"proto_pkts\",\"scope\":\"$scope\",\"value\":[1-9]" || {
            echo "edp_top --pcap: no proto_pkts for $scope" >&2
            exit 1
        }
    done
}

step_golden_order() {
    echo "==> golden_order at 5000 cases (the event queue's order contract)"
    # The key queue's run beside the heap is specified only by this
    # property: every firing order equals the linear-scan reference's.
    PROPTEST_CASES=5000 cargo test --offline --release -q -p edp-evsim --test golden_order
}

step_clippy() {
    echo "==> cargo clippy (-D warnings)"
    cargo clippy --offline --all-targets -q -- -D warnings
}

step_bench_gate() {
    echo "==> benchmark/run.sh --smoke (the repo's one benchmark, end to end)"
    # The standalone benchmark package's own fmt + clippy + unit tests,
    # then a tiny run of all five workloads whose result is schema-checked
    # and must pass packet conservation and the sim_digest pins — a change
    # that moves the scalar path's observable behaviour fails here. Full
    # runs (`bash benchmark/run.sh`) and `compare` are taken manually.
    bash benchmark/run.sh --smoke
    # Then the line's work counters, which repeat bit for bit. One
    # scheduled event per hop: 10 events per packet on the classic engine
    # (generator tick, a delivery per switch, the sink's delivery — a
    # transmit attempt runs inside the cascade that created its backlog
    # and is scheduled only for a future instant, which the line's idle
    # wires never need) and 11 through the 2-shard engine, where exactly
    # 7 frames per packet cross shards: a fused hop must not change what
    # crosses. No allocation per hop in the Network glue — what is left is
    # the frame and its host-side bookkeeping (3.3 at smoke size). The
    # 2-shard engine's synchronization is pinned too: its negotiated
    # windows and barrier rendezvous at smoke size.
    if command -v python3 >/dev/null 2>&1; then
        python3 - benchmark/out/smoke.json <<'PYEOF'
import json, sys
workloads = json.load(open(sys.argv[1]))["workloads"]
def metric(workload, name):
    return workloads[workload]["per_layer"]["metrics"][name]["value"]
events = metric("line8_fwd64", "evsim.events_per_pkt")
allocs = metric("line8_fwd64", "host.allocs_per_pkt")
sharded = metric("line8_shards2", "evsim.events_per_pkt")
crossed = metric("line8_shards2", "netsim.shard.cross_msgs_per_pkt")
windows = metric("line8_shards2", "netsim.shard.windows")
barriers = metric("line8_shards2", "netsim.shard.barriers")
assert events == 10, f"line8_fwd64 evsim.events_per_pkt = {events}, expected 10"
assert allocs <= 4, f"line8_fwd64 host.allocs_per_pkt = {allocs}, expected <= 4"
assert sharded == 11, f"line8_shards2 evsim.events_per_pkt = {sharded}, expected 11"
assert crossed == 7, f"line8_shards2 netsim.shard.cross_msgs_per_pkt = {crossed}, expected 7"
assert windows == 32, f"line8_shards2 netsim.shard.windows = {windows}, expected 32"
assert barriers == 1074, f"line8_shards2 netsim.shard.barriers = {barriers}, expected 1074"
# Handler firings per switch receive (Σ events_total / Σ rx of the traced
# pass): exact, so any change in which events fire shows up here.
handler_events = {
    "line8_fwd64": 5,
    "top_microburst": 4.067025862068966,
    "fattree4_rpc": 5.006219765031099,
    "pcap_imix_replay": 5,
    "line8_shards2": 5,
}
for name, expected in handler_events.items():
    got = metric(name, "core.handler_events_per_pkt")
    assert abs(got - expected) < 1e-12, \
        f"{name} core.handler_events_per_pkt = {got}, expected {expected}"
print(f"hop work counters ok: {events} events/pkt, {allocs} allocs/pkt; "
      f"2 shards: {sharded} events/pkt, {crossed} cross msgs/pkt, "
      f"{windows} windows, {barriers} barriers; "
      f"handler events/pkt match on all {len(handler_events)} workloads")
PYEOF
    else
        echo "python3 not found: hop work counters not checked" >&2
    fi
}

case "$mode" in
quick)
    step_fmt
    step_build
    step_test
    step_lint
    step_parse_path
    step_top_smoke
    step_reproduction
    ;;
gate)
    # The CI leg beside `--quick`: style, static analysis, fixtures, smoke
    # drives, the reproduction pin and the benchmark smoke.
    step_fmt
    step_build
    step_clippy
    step_golden_order
    step_lint
    step_parse_path
    step_lint_sarif
    step_top_smoke
    step_pcap
    step_reproduction
    step_bench_gate
    ;;
full)
    step_fmt
    step_build
    step_test
    step_lint
    step_parse_path
    step_top_smoke
    step_pcap
    step_reproduction
    step_clippy
    step_golden_order
    step_bench_gate
    ;;
esac

echo "==> CI gate passed (mode: ${mode})"
