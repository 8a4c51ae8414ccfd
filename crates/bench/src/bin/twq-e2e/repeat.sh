#!/usr/bin/env bash
# Run twq-e2e several times per workload, each run in a fresh process, and
# print every end-to-end metric's median and interquartile range (IQR) as
# a share of the median, beside the metric's bound from BENCHMARK.json.
# A metric whose IQR share exceeds its bound is flagged with "!!" and the
# script exits 1. setup_s is exempt from the flag: its bound limits how far
# the median may move between two sets of runs, not the spread within one.
#
# usage: repeat.sh [-n RUNS] [-s SEED] [-S] [-t SECONDS] [WORKLOAD...]
#   -n RUNS     runs per workload (default 5)
#   -s SEED     the seed (default 1)
#   -S          vary the seed: run k uses SEED+k
#   -t SECONDS  measured seconds per run (default: run_seconds)
#   WORKLOAD    default: every workload in BENCHMARK.json
#
# Run from the repository root. Quartiles are Python's
# statistics.quantiles(values, n=4).
set -euo pipefail

runs=5 seed=1 vary=0 seconds=
while getopts "n:s:St:" opt; do
  case $opt in
    n) runs=$OPTARG ;;
    s) seed=$OPTARG ;;
    S) vary=1 ;;
    t) seconds=$OPTARG ;;
    *) sed -n '2,16p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))

dir=$(dirname "$0")
bench=BENCHMARK.json
[ -f "$bench" ] || { echo "repeat.sh: run from the repository root" >&2; exit 2; }
seconds=${seconds:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench")}
if [ $# -eq 0 ]; then
  set -- $(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$bench")
fi

cargo build --release --offline -q --manifest-path "$dir/Cargo.toml"
out=$(mktemp)
trap 'rm -f "$out"' EXIT
for w in "$@"; do
  for k in $(seq 0 $((runs - 1))); do
    s=$((seed + vary * k))
    cargo run --release --offline -q --manifest-path "$dir/Cargo.toml" -- \
      --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 | tail -n 1 |
      python3 -c 'import json,sys; r=json.load(sys.stdin); r["workload"]=sys.argv[1]; print(json.dumps(r))' "$w" >>"$out"
  done
done

python3 - "$bench" "$out" <<'EOF'
import json, statistics, sys
bench = json.load(open(sys.argv[1]))
runs = [json.loads(l) for l in open(sys.argv[2])]
bounds = {m["name"]: m for m in bench["end_to_end"]}
bad = False
print(f"{'workload':<10} {'metric':<16} {'median':>14} {'IQR/median':>11} {'bound':>7} runs")
for w in dict.fromkeys(r["workload"] for r in runs):
    rs = [r for r in runs if r["workload"] == w]
    if not all(r["correct"] for r in rs):
        print(f"{w:<10} !! {sum(r['failed'] for r in rs)} failed requests")
        bad = True
    for name, spec in bounds.items():
        vals = [r["metrics"][name]["value"] for r in rs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "!!" if spread > spec["bound"] and name != "setup_s" else "  "
        bad |= flag == "!!"
        print(f"{w:<10} {name:<16} {med:>14.6g} {spread:>10.2%} {spec['bound']:>6.0%} {flag} "
              + " ".join(f"{v:.6g}" for v in vals))
sys.exit(1 if bad else 0)
EOF
