#!/usr/bin/env sh
# Alternating parent/change pairs of one bench/run.py workload: the
# evidence a performance claim needs (choosing-metrics section 8).
#
#   sh scripts/bench_pairs.sh <parent-sha> [workload|all] [pairs] [seed]
#   make bench-pairs PARENT=<sha> WORKLOAD=cg_wide PAIRS=10 SEED=0
#
# WORKLOAD=all runs every workload BENCHMARK.json lists, one after
# another, each with its own pairs, log and table, so the evidence for
# a change covers all of them at the same pair count.
#
# The parent commit is unpacked with `git archive` into the ignored
# artifacts/parent/; the change is the working tree.  Each pair runs the
# unmodified `bench/run.py --workload W --seed S --trace 0` on both
# sides, and the side that goes first alternates from pair to pair, so
# a slow spell on a shared box lands on both.  Every result line is
# kept in artifacts/bench_pairs_<workload>_seed<seed>.jsonl; the table
# printed at the end gives, per end-to-end metric, both medians with
# quartiles, the pairs the change won (ties count for neither side),
# the ratio of medians and the parent's interquartile range -- a gain
# may be claimed when the change wins at least nine tenths of the pairs
# and the medians differ by more than that range.  Leaves `git status`
# clean.
set -eu

cd "$(dirname "$0")/.."
parent=${1:?usage: bench_pairs.sh <parent-sha> [workload|all] [pairs] [seed]}
workload=${2:-cg_wide}
pairs=${3:-10}
seed=${4:-0}

rm -rf artifacts/parent
mkdir -p artifacts/parent
git archive "$parent" | tar -x -C artifacts/parent

if [ "$workload" = all ]; then
    workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
else
    workloads=$workload
fi

run_side() {
    # $1: side name, $2: workload; prints the harness's one-line JSON result.
    if [ "$1" = parent ]; then dir=artifacts/parent; else dir=.; fi
    (cd "$dir" && python3 bench/run.py --workload "$2" \
        --seed "$seed" --trace 0 | tail -n 1)
}

for workload in $workloads; do
    log="artifacts/bench_pairs_${workload}_seed${seed}.jsonl"
    : > "$log"
    pair=0
    while [ "$pair" -lt "$pairs" ]; do
        if [ $((pair % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            printf '{"pair": %d, "side": "%s", "result": %s}\n' \
                "$pair" "$side" "$(run_side "$side" "$workload")" >> "$log"
        done
        pair=$((pair + 1))
        echo "$workload: pair $pair/$pairs done ($order)" >&2
    done
    python3 - "$log" "$parent" "$workload" "$seed" <<'EOF'
import json
import statistics
import sys

log, parent, workload, seed = sys.argv[1:5]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
sides = {"parent": {}, "change": {}}
failed = {"parent": 0, "change": 0}
for line in open(log):
    row = json.loads(line)
    result = row["result"]
    failed[row["side"]] += result["failed"]
    for name, entry in result["metrics"].items():
        sides[row["side"]].setdefault(name, []).append(entry["value"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


print(f"\n{workload}, seed {seed}: {parent} (parent) vs working tree (change), "
      f"{len(sides['parent'][next(iter(spec))])} alternating pairs")
print("| metric | parent median [q1, q3] | change median [q1, q3] | "
      "change/parent | wins | parent IQR | verdict |")
print("|---|---|---|---|---|---|---|")
for name, meta in spec.items():
    a, b = sides["parent"][name], sides["change"][name]
    lower = meta["better"] == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    ma, mb = statistics.median(a), statistics.median(b)
    (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
    gain = (ma - mb) if lower else (mb - ma)
    if wins >= 0.9 * len(a) and gain > a3 - a1:
        verdict = "improved"
    elif ties == len(a):
        verdict = "identical"
    elif -gain > meta["bound"] * abs(ma):
        verdict = "REGRESSED"
    else:
        verdict = "within bound"
    ratio = f"{mb / ma:.4f}" if ma else "n/a"
    print(f"| {name} | {ma:.6g} [{a1:.6g}, {a3:.6g}] | {mb:.6g} [{b1:.6g}, {b3:.6g}] "
          f"| {ratio} | {wins}/{len(a)} | {a3 - a1:.3g} | {verdict} |")
print(f"failed operations: parent {failed['parent']}, change {failed['change']}")
EOF
done
