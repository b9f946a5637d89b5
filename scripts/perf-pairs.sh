#!/usr/bin/env bash
# Paired A/B runs of the benchmark: a parent revision against the working
# tree, on one workload or a comma-separated list of them.
#
#   scripts/perf-pairs.sh <parent-rev> <workload>[,<workload>...] <pairs> [seconds] [first-seed]
#
# Builds perfbench twice under target/perf-pairs/: once from an export of
# <parent-rev> (git archive, so no worktree is registered and the working
# tree may be dirty), once from the working tree, each with its own
# target directory. Then, for each workload in turn, runs <pairs> pairs
# of untraced runs, each pair on its own seed (first-seed, first-seed+1,
# ...; default 101) and alternating which side runs first. Every run must
# report "correct":true. Prints one table per workload: per end-to-end
# metric, each side's median and quartiles, the change/parent ratio of
# the medians and how many pairs the change won (direction from
# BENCHMARK.json). Nothing is written under perfbench/; the raw result
# lines go to target/perf-pairs/<workload>.jsonl.
set -euo pipefail

if [ $# -lt 3 ]; then
    echo "usage: $0 <parent-rev> <workload>[,<workload>...] <pairs> [seconds] [first-seed]" >&2
    exit 2
fi
rev=$1
IFS=, read -r -a workloads <<< "$2"
pairs=$3
seconds=${4:-30}
first_seed=${5:-101}

cd "$(dirname "$0")/.."
out=target/perf-pairs
parent_src=$out/parent-src
mkdir -p "$out"

# Re-export only when the revision changes: fresh file times would make
# cargo rebuild the parent from scratch.
commit=$(git rev-parse --verify "$rev^{commit}")
if [ "$(cat "$parent_src/.perf-pairs-rev" 2>/dev/null)" != "$commit" ]; then
    rm -rf "$parent_src"
    mkdir -p "$parent_src"
    git archive "$commit" | tar -x -C "$parent_src"
    echo "$commit" > "$parent_src/.perf-pairs-rev"
fi
build() { # <manifest> <target-dir>
    cargo build --release --offline --locked --quiet \
        --manifest-path "$1" --target-dir "$2" >&2
}
build "$parent_src/perfbench/Cargo.toml" "$out/parent-target"
build perfbench/Cargo.toml "$out/change-target"
parent_bin=$out/parent-target/release/wmx-perfbench
change_bin=$out/change-target/release/wmx-perfbench

run() { # <workload> <runs-file> <side> <binary> <seed>
    local line
    line=$("$4" --workload "$1" --seed "$5" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    case $line in
        *'"correct":true'*) ;;
        *) echo "$1: $3 run on seed $5 failed its checks: $line" >&2; exit 1 ;;
    esac
    printf '{"side":"%s","seed":%s,"result":%s}\n' "$3" "$5" "$line" >> "$2"
}
table() { # <workload> <runs-file>
python3 - "$2" BENCHMARK.json "$rev" "$1" <<'PY'
import json, statistics, sys

runs_path, bench_path, rev, workload = sys.argv[1:5]
better = {m["name"]: m["better"] for m in json.load(open(bench_path))["end_to_end"]}
by_side = {"parent": {}, "change": {}}
for line in open(runs_path):
    run = json.loads(line)
    for name, metric in run["result"]["metrics"].items():
        by_side[run["side"]].setdefault(name, {})[run["seed"]] = metric["value"]

def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

print(f"{workload}: parent {rev} vs working tree, one pair per seed")
print(f"{'metric':<22} {'parent median':>13} {'[q1, q3]':>22} {'change median':>13} {'[q1, q3]':>22} {'ratio':>6} {'wins':>5}")
for name in sorted(by_side["parent"]):
    parent, change = by_side["parent"][name], by_side["change"].get(name, {})
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        continue
    p1, pm, p3 = quartiles([parent[s] for s in seeds])
    c1, cm, c3 = quartiles([change[s] for s in seeds])
    ratio = cm / pm if pm else float("nan")
    direction = better.get(name)
    if direction == "higher":
        wins = f"{sum(change[s] > parent[s] for s in seeds)}/{len(seeds)}"
    elif direction == "lower":
        wins = f"{sum(change[s] < parent[s] for s in seeds)}/{len(seeds)}"
    else:
        wins = "-"
    print(f"{name:<22} {pm:>13.4g} {f'[{p1:.4g}, {p3:.4g}]':>22} {cm:>13.4g} "
          f"{f'[{c1:.4g}, {c3:.4g}]':>22} {ratio:>6.3f} {wins:>5}")
PY
}
for workload in "${workloads[@]}"; do
    runs=$out/$workload.jsonl
    : > "$runs"
    for i in $(seq 0 $((pairs - 1))); do
        seed=$((first_seed + i))
        if [ $((i % 2)) -eq 0 ]; then
            run "$workload" "$runs" parent "$parent_bin" "$seed"
            run "$workload" "$runs" change "$change_bin" "$seed"
        else
            run "$workload" "$runs" change "$change_bin" "$seed"
            run "$workload" "$runs" parent "$parent_bin" "$seed"
        fi
        echo "$workload: pair $((i + 1))/$pairs done (seed $seed)" >&2
    done
    table "$workload" "$runs"
done
