#!/usr/bin/env bash
# A/B one workload: cacd built at <ref> against cacd built from the work
# tree, both driven by the *current* cacbench, in alternating pairs on
# this machine. Prints each side's median and quartiles per end-to-end
# metric, pairs won, and a verdict by the rule of the choosing-metrics
# guide: a difference counts only when one side wins at least 9/10 of the
# pairs (ties count for neither) and the medians are further apart than
# the distance between the parent's own quartiles.
#
#   bench/ab.sh <ref> [workload] [pairs] [seconds]
#
# Run from the repository root. Everything lands in bench/out/ab/.
set -euo pipefail

ref=${1:?usage: bench/ab.sh <ref> [workload] [pairs] [seconds]}
workload=${2:-churn_loaded}
pairs=${3:-10}
seconds=${4:-26}

[ -f BENCHMARK.json ] && [ -d cmd/cacd ] || { echo "run from the repository root" >&2; exit 2; }
[ "$pairs" -ge 10 ] || { echo "need at least 10 pairs, got $pairs" >&2; exit 2; }

out=bench/out/ab
rm -rf "$out"
mkdir -p "$out/src"
git archive "$ref" | tar -x -C "$out/src"
(cd "$out/src" && go build -o ../cacd.parent ./cmd/cacd)
go build -o "$out/cacd.change" ./cmd/cacd
go build -o "$out/cacbench" ./bench/cacbench

run() { # side seed -> one JSON line
	"$out/cacbench" --cacd "$out/cacd.$1" --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0 | tail -n 1
}

: >"$out/parent.jsonl"
: >"$out/change.jsonl"
for i in $(seq 1 "$pairs"); do
	# Same seed within a pair; alternate which side goes first.
	if [ $((i % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
	echo "pair $i/$pairs: $first then $second" >&2
	run "$first" "$i" >>"$out/$first.jsonl"
	run "$second" "$i" >>"$out/$second.jsonl"
done

python3 - "$out" "$ref" "$workload" <<'EOF'
import json, statistics, sys
out, ref, workload = sys.argv[1:4]
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
load = lambda side: [json.loads(l) for l in open(f"{out}/{side}.jsonl")]
parent, change = load("parent"), load("change")
wrong = [r for r in parent + change if not r["correct"]]
print(f"{workload}: {len(parent)} pairs, parent = {ref}, change = work tree; {len(wrong)} runs with failed operations")
print(f"{'metric':18} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'won':>7}  verdict")
for name, direction in better.items():
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    sign = -1 if direction == "lower" else 1
    won = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    lost = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
    pm, cm = statistics.median(p), statistics.median(c)
    apart = abs(cm - pm) > pq[2] - pq[0]
    if won >= 0.9 * len(p) and apart:
        verdict = f"change better ({(cm - pm) / pm:+.1%} of parent {pm:.4g})"
    elif lost >= 0.9 * len(p) and apart:
        verdict = f"change WORSE ({(cm - pm) / pm:+.1%} of parent {pm:.4g})"
    else:
        verdict = "no difference shown"
    fmt = lambda q, m: f"{q[0]:10.4g}/{m:10.4g}/{q[2]:10.4g}"
    print(f"{name:18} {fmt(pq, pm):>32} {fmt(cq, cm):>32} {won:3}/{len(p):<3}  {verdict}")
sys.exit(1 if wrong else 0)
EOF
