#!/usr/bin/env bash
# Prints the byte pins of the tools' exports, in a fixed order:
#
#   edp_top --json and --prom for every registered app,
#   edp_top --pcap on both fixtures and --endpoints (--json and --prom),
#   the line count and sha256 of microburst's --trace-out file, at the
#   default ring capacity and at one small enough to wrap,
#   edp_lint plain, --effects, --json and --sarif,
#   the stdout of each of the six examples (`== example <name> ==`).
#
# Each output follows a header line `== <tool> <args> ==`. The archive is
# docs/top_output.txt; regenerate it, never hand-edit it:
#
#   scripts/top_pins.sh >docs/top_output.txt
#
# `scripts/ci.sh` (step_pins) regenerates it, diffs it against the
# archive and parses every JSON section.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

cargo build --offline --release -q -p edp-bench -p edp-analyze
cargo build --offline --release -q -p edp-harness --examples
bin="${CARGO_TARGET_DIR:-target}/release"

run() {
    echo "== $* =="
    local tool="$1"
    shift
    "$bin/$tool" "$@"
}

short=(--seeds 2 --duration-ms 2)
for app in $("$bin/edp_top" --list); do
    run edp_top "$app" "${short[@]}" --json
    run edp_top "$app" "${short[@]}" --prom
done
# Each workload is a flag and its value, split on purpose.
for workload in "--pcap tests/fixtures/kv_burst.pcap" \
    "--pcap tests/fixtures/mixed_protocols.pcap" "--endpoints 64"; do
    run edp_top microburst $workload "${short[@]}" --json
    run edp_top microburst $workload "${short[@]}" --prom
done
# The trace file is too long to archive whole: its line count and digest
# pin every record, their order and the ring's eviction footer.
trace="$(mktemp)"
trap 'rm -f "$trace"' EXIT
for capacity in "" "--trace-capacity 1000"; do
    echo "== edp_top microburst ${short[*]} $capacity${capacity:+ }--trace-out FILE =="
    "$bin/edp_top" microburst "${short[@]}" $capacity --trace-out "$trace" >/dev/null
    wc -l <"$trace"
    sha256sum <"$trace"
done
run edp_lint
run edp_lint --effects
run edp_lint --json
run edp_lint --sarif
for example in quickstart microburst hula_loadbalancer fast_reroute aqm_fairness ndp_trimming; do
    echo "== example $example =="
    "$bin/examples/$example"
done
