#!/usr/bin/env bash
# Offline-friendly CI gate: everything a PR must pass, with no network.
#
#   scripts/ci.sh               # full local gate (everything below)
#   scripts/ci.sh --quick       # fmt, build, test, edp_lint, one-parse-path
#                               # grep, one-event-vocabulary grep, caller-less
#                               # pub API audit, telemetry smoke,
#                               # paper-reproduction pin, export pins
#   scripts/ci.sh --gate        # fmt, clippy, golden_order at 5000 cases,
#                               # the fleet's due-queue property at 2000,
#                               # edp_lint (+ SARIF artifact),
#                               # one-parse-path and one-event-vocabulary
#                               # greps, telemetry smoke,
#                               # pcap fixture round-trip, replay smoke,
#                               # paper-reproduction pin, export pins,
#                               # benchmark smoke
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

step_net_events() {
    echo "==> one event vocabulary (no closure scheduled by crates/netsim/src)"
    # The network's own events (traffic sources, faults, stalls,
    # control-plane sends) are NetEvent data; closures are for apps,
    # experiments and tests. A closure over the network (`|w: &mut
    # Network`), or a `move |` handed to a schedule_* / rearm_at call, in
    # the non-test code (above each file's #[cfg(test)] module) fails.
    local f bad=0
    for f in crates/netsim/src/*.rs; do
        if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n '|[a-z_]*: &mut Network'; then
            echo "$f: closure over the network; add a NetEvent variant" >&2
            bad=1
        elif sed '/^#\[cfg(test)\]/,$d' "$f" | tr '\n' ' ' |
            grep -oE '(schedule_[a-z_]+|rearm_at)\([^;]*move \|'; then
            echo "$f: schedules a closure; add a NetEvent variant" >&2
            bad=1
        fi
    done
    [ "$bad" -eq 0 ]
}

step_api_audit() {
    echo "==> api audit (no caller-less pub item outside scripts/api_allow.txt)"
    # A pub fn/const/static that nothing but tests calls, or a pub
    # struct/enum/trait/type that nothing but tests and its own impls
    # names, is dead API; one that stays names its reason in the
    # allow-list, and a listed item that gains a user or goes away fails
    # as stale. The summary line counts both passes.
    python3 scripts/api_audit.py
}

step_lint_sarif() {
    echo "==> edp_lint --sarif (code-scanning artifact)"
    # The same catalog rendered as SARIF 2.1.0 for code-scanning UIs;
    # the gate job uploads target/edp_lint.sarif as a build artifact
    # (step_pins parses it).
    mkdir -p target
    cargo run --offline --release -q -p edp-analyze --bin edp_lint -- --sarif \
        >target/edp_lint.sarif
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

step_pins() {
    echo "==> scripts/top_pins.sh vs docs/top_output.txt (byte pins of the exports)"
    # edp_top --json/--prom for every app, both pcap fixtures and the
    # endpoint fleet, edp_lint in all four renderings and the six
    # examples' stdout, byte for byte. A change to an app's handlers, the
    # telemetry hooks, a JSON writer or what an example reads from the
    # network (aqm_fairness reads the sink's per-flow statistics) shows
    # up here as a reviewed diff.
    mkdir -p target
    scripts/top_pins.sh >target/top_output.txt
    diff -u docs/top_output.txt target/top_output.txt || {
        echo "scripts/top_pins.sh differs from docs/top_output.txt (diff above)." >&2
        echo "If the change is intended, regenerate it, never hand-edit it:" >&2
        echo "  scripts/top_pins.sh >docs/top_output.txt" >&2
        echo "and explain the diff (which outputs moved, and why) in CHANGES.md." >&2
        exit 1
    }
    # Every JSON the tools print must parse: each edp_top --json report,
    # edp_lint --json and edp_lint --sarif (SARIF consumers are strict).
    python3 - target/top_output.txt <<'PYEOF'
import json, re, sys
sections = re.split(r"^== (.*) ==$", open(sys.argv[1]).read(), flags=re.M)[1:]
parsed = 0
for head, body in zip(sections[::2], sections[1::2]):
    if head.endswith(("--json", "--sarif")):
        try:
            json.loads(body)
        except ValueError as e:
            sys.exit(f"{head}: not JSON: {e}")
        parsed += 1
print(f"pins ok: {len(sections) // 2} outputs identical, {parsed} JSON parsed")
PYEOF
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

    echo "==> the endpoint fleet's due-queue at 2000 cases (equal to a full scan)"
    # A pacer tick visits only the due endpoints; this property holds its
    # frames and FleetStats equal to a visit of every endpoint.
    PROPTEST_CASES=2000 cargo test --offline --release -q -p edp-netsim --lib \
        endpoint::tests::due_queue_fleet_equals_the_full_scan
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
    # Then the exact work counters, which repeat bit for bit, against
    # scripts/bench_counters.json ("workload/metric": value; a string
    # "<= N" is a bound). One scheduled event per hop: 10 events per
    # packet on the classic engine (generator tick, a delivery per switch,
    # the sink's delivery) and 11 through the 2-shard engine, where
    # exactly 7 frames per packet cross shards; no allocation per hop in
    # the Network glue (what is left is the frame and its host-side
    # bookkeeping, 3.3 at smoke size); no closure box per replayed frame
    # (pcap_imix_replay's allocations per packet, 5.24 at smoke size, were
    # 6.24 with one); bytes allocated per packet on the line and the
    # replay (the sinks' flow table: a small sink pays for no large first
    # chunk, and growth never moves the replay's 64-byte flow stats);
    # the 2-shard engine's windows and
    # barriers; the other three workloads' events per packet (a replayed
    # frame costs one scheduled event, a burst one for all its frames);
    # and every workload's handler firings per switch receive.
    if command -v python3 >/dev/null 2>&1; then
        python3 - benchmark/out/smoke.json scripts/bench_counters.json <<'PYEOF'
import json, sys
workloads = json.load(open(sys.argv[1]))["workloads"]
expected = json.load(open(sys.argv[2]))
for key, want in expected.items():
    workload, name = key.split("/", 1)
    got = workloads[workload]["per_layer"]["metrics"][name]["value"]
    if isinstance(want, str):
        op, bound = want.split()
        assert op == "<=", f"{key}: unknown bound {want!r}"
        assert got <= float(bound), f"{key} = {got}, expected {want}"
    else:
        assert abs(got - want) < 1e-12, f"{key} = {got}, expected {want}"
print(f"bench counters ok: all {len(expected)} match {sys.argv[2]}")
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
    step_net_events
    step_api_audit
    step_top_smoke
    step_reproduction
    step_pins
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
    step_net_events
    step_lint_sarif
    step_top_smoke
    step_pcap
    step_reproduction
    step_pins
    step_bench_gate
    ;;
full)
    step_fmt
    step_build
    step_test
    step_lint
    step_parse_path
    step_net_events
    step_api_audit
    step_lint_sarif
    step_top_smoke
    step_pcap
    step_reproduction
    step_pins
    step_clippy
    step_golden_order
    step_bench_gate
    ;;
esac

echo "==> CI gate passed (mode: ${mode})"
