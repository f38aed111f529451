#!/usr/bin/env bash
# Pairs benchmark runs of two revisions and prints how each gated metric moved.
#
# Usage (from anywhere inside the repository):
#   scripts/bench_compare.sh [--pairs N] [--seed S0] [--workloads "W ..."] <base-rev> [<rev>]
#
# Both sides are exported with `git archive` into target/bench_compare/{base,rev}/src and
# built there, each with its own CARGO_TARGET_DIR (target/bench_compare/{base,rev}/target,
# kept between invocations so a rebuild is incremental).  A commit is exported as a fresh
# checkout has it, and nothing is registered in the repository, so an interrupted run leaves
# no stale worktree behind.  Without <rev> the other side is the working tree: every tracked
# or untracked, non-ignored file (what `git add -A` would commit) but BENCH_trajectory.json,
# which this script writes.  A commit is labelled by its short hash, the working tree by
# `tree:` and the short hash of the git tree of exactly the files it exported, so a label
# names the measured content and no other.
#
# Per workload (default: all six of BENCHMARK.json), N pairs (default 10) of
#   benchmark/run.sh --workload W --seed S --seconds <BENCHMARK.json's run_seconds> --trace 0
# with the seed counting up from S0 (default 21) and the order inside a pair alternating
# (base first on even pairs), so that a drift of the host falls on both sides alike.
# A run that fails or reports "correct": false stops the script.
#
# Prints a markdown table, one row per workload and one column per end-to-end metric of
# BENCHMARK.json: `base median [Q1–Q3] → rev median [Q1–Q3] (wins/N)`, where a win is a
# pair in which <rev> is strictly better in the metric's direction.  Then appends one row
# per (workload, metric) to BENCH_trajectory.json at the repository root (a JSON array,
# one row per line).  Raw result lines go to target/bench_compare/runs.jsonl, run.sh's
# stderr to target/bench_compare/log.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"
dir="$root/target/bench_compare"

pairs=10
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
seed0=21
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
usage() {
    sed -n '4,5p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seed) seed0="$2"; shift 2 ;;
        --workloads) workloads="$2"; shift 2 ;;
        -*) usage ;;
        *) break ;;
    esac
done
[ $# -ge 1 ] && [ $# -le 2 ] || usage
[ "$pairs" -ge 1 ] 2>/dev/null || usage
mkdir -p "$dir"

# export <side> <tree-ish>: the files of <tree-ish> into $dir/<side>/src.
export_tree() {
    rm -rf "$dir/$1/src"
    mkdir -p "$dir/$1/src"
    git archive --format=tar "$2" | tar -x -C "$dir/$1/src"
}

base="$(git rev-parse --short "$(git rev-parse --verify "$1^{commit}")")"
export_tree base "$base"
if [ $# -eq 2 ]; then
    rev="$(git rev-parse --short "$(git rev-parse --verify "$2^{commit}")")"
    export_tree rev "$rev"
else
    index="$dir/index"
    rm -f "$index"
    GIT_INDEX_FILE="$index" git add -A
    GIT_INDEX_FILE="$index" git rm -q --cached --ignore-unmatch BENCH_trajectory.json
    tree="$(GIT_INDEX_FILE="$index" git write-tree)"
    rm -f "$index"
    rev="tree:$(git rev-parse --short "$tree")"
    export_tree rev "$tree"
fi

for side in base rev; do
    echo "building $side in $dir/$side" >&2
    (cd "$dir/$side/src" && CARGO_TARGET_DIR="$dir/$side/target" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

runs="$dir/runs.jsonl"
: > "$runs"
# run <side> <workload> <pair> <seed>: one run, its result line appended to $runs.
run() {
    local line
    line="$(cd "$dir/$1/src" && CARGO_TARGET_DIR="$dir/$1/target" \
        benchmark/run.sh --workload "$2" --seed "$4" --seconds "$seconds" --trace 0 \
        2>>"$dir/log" | tail -n 1)" || { echo "run failed: $1 $2 seed $4 (see $dir/log)" >&2; exit 1; }
    case "$line" in
        *'"correct": true'*) ;;
        *) echo "incorrect run: $1 $2 seed $4: $line" >&2; exit 1 ;;
    esac
    printf '{"side": "%s", "workload": "%s", "pair": %d, "seed": %d, "result": %s}\n' \
        "$1" "$2" "$3" "$4" "$line" >> "$runs"
}

for workload in $workloads; do
    for pair in $(seq 0 $((pairs - 1))); do
        seed=$((seed0 + pair))
        echo "$workload pair $((pair + 1))/$pairs (seed $seed)" >&2
        if [ $((pair % 2)) -eq 0 ]; then
            run base "$workload" "$pair" "$seed"
            run rev "$workload" "$pair" "$seed"
        else
            run rev "$workload" "$pair" "$seed"
            run base "$workload" "$pair" "$seed"
        fi
    done
done

BASE="$base" REV="$rev" RUNS="$runs" SECONDS_PER_RUN="$seconds" NPROC="$(nproc)" \
    TRAJECTORY="$root/BENCH_trajectory.json" python3 - "$root/BENCHMARK.json" <<'EOF'
import datetime, json, os, statistics, sys

declared = json.load(open(sys.argv[1]))
metrics = declared["end_to_end"]
base, rev = os.environ["BASE"], os.environ["REV"]
runs = [json.loads(line) for line in open(os.environ["RUNS"])]

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3

def fmt(value):
    size = abs(value)
    if size >= 1000:
        return f"{value:,.0f}"
    if size >= 100:
        return f"{value:.1f}"
    if size >= 10:
        return f"{value:.2f}"
    return f"{value:.4g}"

workloads = list(dict.fromkeys(run["workload"] for run in runs))
rows, table, identical = [], [], []
date = datetime.date.today().isoformat()
for workload in workloads:
    by_pair = {}
    for run in runs:
        if run["workload"] == workload:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = sorted(by_pair)
    seeds = [by_pair[pair]["base"]["seed"] for pair in pairs]
    cells = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        value = lambda pair, side: by_pair[pair][side]["result"]["metrics"][name]["value"]
        olds = [value(pair, "base") for pair in pairs]
        news = [value(pair, "rev") for pair in pairs]
        wins = sum((new < old) if lower else (new > old) for old, new in zip(olds, news))
        (old_m, old_q1, old_q3), (new_m, new_q1, new_q3) = quartiles(olds), quartiles(news)
        if len(set(olds + news)) == 1:
            identical.append(f"{workload} {name} = {olds[0]!r}")
        cells.append(
            f"{fmt(old_m)} [{fmt(old_q1)}–{fmt(old_q3)}] → "
            f"{fmt(new_m)} [{fmt(new_q1)}–{fmt(new_q3)}] ({wins}/{len(pairs)})"
        )
        rows.append({
            "rev": rev, "base": base, "workload": workload, "metric": name,
            "unit": metric["unit"], "better": metric["better"],
            "median": new_m, "q1": new_q1, "q3": new_q3,
            "base_median": old_m, "base_q1": old_q1, "base_q3": old_q3,
            "wins": wins, "pairs": len(pairs), "seeds": seeds,
            "seconds": float(os.environ["SECONDS_PER_RUN"]),
            "nproc": int(os.environ["NPROC"]), "date": date,
        })
    table.append(f"| {workload} ({len(pairs)}, {seeds[0]}–{seeds[-1]}) | " + " | ".join(cells) + " |")

names = [f"`{metric['name']}`" for metric in metrics]
print(f"{base} → {rev}: median [Q1–Q3] per side, (pairs {rev} wins / pairs)\n")
print("| workload (pairs, seeds) | " + " | ".join(names) + " |")
print("|---" * (len(names) + 1) + "|")
print("\n".join(table))
if identical:
    print("\nIdentical in every run of both sides: " + "; ".join(identical))

path = os.environ["TRAJECTORY"]
history = json.load(open(path)) if os.path.exists(path) else []
history.extend(rows)
with open(path, "w") as out:
    out.write("[\n" + ",\n".join(json.dumps(row, ensure_ascii=False) for row in history) + "\n]\n")
print(f"\n{len(rows)} rows appended to {os.path.relpath(path)}", file=sys.stderr)
EOF
