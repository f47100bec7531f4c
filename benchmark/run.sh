#!/usr/bin/env bash
# The benchmark's one entry point: builds the standalone package offline,
# then forwards to its binary.
#
#   benchmark/run.sh                         every workload, both passes -> benchmark/out/result.json
#   benchmark/run.sh --smoke                 lint + unit tests + a tiny schema-checked run
#   benchmark/run.sh compare A.json B.json   verdict per (workload, end-to-end metric)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1    one measurement, one JSON result line
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
export CARGO_NET_OFFLINE=true

if [[ "${1:-}" == "--smoke" ]]; then
  cargo fmt --manifest-path "$manifest" --check
  cargo clippy --offline --release --manifest-path "$manifest" --all-targets -- -D warnings
  cargo test --offline --release --manifest-path "$manifest" -q
fi
cargo build --offline --release --manifest-path "$manifest" -q 1>&2

# Recorded in every result's host fingerprint.
export EDP_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export EDP_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"

bin="${CARGO_TARGET_DIR:-$here/target}/release/edp-benchmark"
case "${1:-}" in
  "")        exec "$bin" all ;;
  --smoke)   shift; exec "$bin" all --smoke "$@" ;;
  *)         exec "$bin" "$@" ;;
esac
