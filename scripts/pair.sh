#!/usr/bin/env bash
# Alternating pairs of one benchmark workload on two revisions.
#
#   scripts/pair.sh <rev-A> <rev-B> [--pairs N] [--seed S] [--workload W] [--seconds T]
#
# Builds each revision's benchmark package (benchmark/) offline in a
# temporary checkout of that revision (`git archive`, so the repository's
# own tree and git state are untouched), then runs
#
#   edp-benchmark --workload W --seed S --seconds T --trace 0
#
# N times per side, alternating which side runs first (odd pairs A first,
# even pairs B first). Defaults: 10 pairs, seed 1, fattree4_rpc, 20 s (the
# run length BENCHMARK.json sets). Never run it beside another build or
# benchmark: the pairs share the machine.
#
# Prints every pair, then per end-to-end metric each side's median and
# quartiles, each side's best run, B / A of the medians, how many pairs B
# won, and the verdict: "better" when B wins at least 9 of 10 pairs and
# the medians differ by more than A's interquartile range, "worse" when A
# does, else "unresolved". The best run (max pkts_per_s, min wall_s,
# setup_s and peak_rss_mb) is the least disturbed one, since another
# tenant of the host can only slow a run down; it is shown, not judged.
# Exits non-zero if any run reported a failed correctness check.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

usage() {
    echo "usage: scripts/pair.sh <rev-A> <rev-B> [--pairs N] [--seed S] [--workload W] [--seconds T]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
rev_a="$1" rev_b="$2"
shift 2
pairs=10 seed=1 workload=fattree4_rpc seconds=20
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
    --pairs) pairs="$2" ;;
    --seed) seed="$2" ;;
    --workload) workload="$2" ;;
    --seconds) seconds="$2" ;;
    *) usage ;;
    esac
    shift 2
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

build() { # <rev> <side>
    local dir="$tmp/$2"
    mkdir -p "$dir"
    git archive "$(git rev-parse --verify "$1^{commit}")" | tar -x -C "$dir"
    echo "==> building $2 = $1" >&2
    cargo build --offline --release -q --manifest-path "$dir/benchmark/Cargo.toml" \
        --target-dir "$tmp/target-$2" 1>&2
}
build "$rev_a" A
build "$rev_b" B

run() { # <side> -> appends the run's JSON result line to $tmp/<side>.jsonl
    (cd "$tmp/$1" && "$tmp/target-$1/release/edp-benchmark" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0) | tail -n 1 >>"$tmp/$1.jsonl"
}
for ((i = 1; i <= pairs; i++)); do
    echo "==> pair $i of $pairs" >&2
    if ((i % 2)); then run A; run B; else run B; run A; fi
done

python3 - "$tmp/A.jsonl" "$tmp/B.jsonl" "$workload" "$seed" "$rev_a" "$rev_b" <<'PYEOF'
import json, statistics, sys

a_runs, b_runs = ([json.loads(l) for l in open(p)] for p in sys.argv[1:3])
workload, seed, rev_a, rev_b = sys.argv[3:7]
# Direction of each end-to-end metric, as BENCHMARK.json declares it.
metrics = {"pkts_per_s": True, "wall_s": False, "setup_s": False, "peak_rss_mb": False}

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q1, q2, q3

print(f"{workload}, seed {seed}: A = {rev_a}, B = {rev_b}, {len(a_runs)} pairs")
print("pair | ran first | " + " | ".join(f"{m} A -> B" for m in metrics))
for i, (a, b) in enumerate(zip(a_runs, b_runs), 1):
    cells = [f"{a['metrics'][m]['value']:.6g} -> {b['metrics'][m]['value']:.6g}" for m in metrics]
    print(f"{i} | {'A' if i % 2 else 'B'} | " + " | ".join(cells))
print()
print("metric | A median [q1, q3] | A best | B median [q1, q3] | B best | B / A | B ahead | gap vs A IQR | verdict")
ok = True
for m, higher in metrics.items():
    a = [r["metrics"][m]["value"] for r in a_runs]
    b = [r["metrics"][m]["value"] for r in b_runs]
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    best = max if higher else min
    ahead = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    behind = sum((y < x) if higher else (y > x) for x, y in zip(a, b))
    gap, iqr = abs(bm - am), a3 - a1
    need = -(-9 * len(a) // 10)  # nine tenths of the pairs, rounded up
    if ahead >= need and gap > iqr:
        verdict = "better"
    elif behind >= need and gap > iqr:
        verdict = "worse"
    else:
        verdict = "unresolved"
    print(f"{m} | {am:.6g} [{a1:.6g}, {a3:.6g}] | {best(a):.6g} | {bm:.6g} [{b1:.6g}, {b3:.6g}] | {best(b):.6g} | "
          f"{bm / am:.3f} | {ahead} of {len(a)} | {gap:.3g} {'>' if gap > iqr else '<='} {iqr:.3g} | {verdict}")
for side, runs in (("A", a_runs), ("B", b_runs)):
    bad = [r for r in runs if not r.get("correct") or r.get("failed", 0)]
    if bad:
        ok = False
        print(f"{side}: {len(bad)} run(s) failed a correctness check", file=sys.stderr)
sys.exit(0 if ok else 1)
PYEOF
