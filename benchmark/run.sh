#!/usr/bin/env bash
# Builds the benchmark offline and runs it.  Run from the repository root.
#
#   benchmark/run.sh [--seed N] [--traced] [--quick]
#       every workload, each in its own fresh process; exits non-zero if any fails.
#       --traced adds a traced run (per-layer metrics, span files) after each untraced
#       one; --quick measures 2 s phases (smoke use only, not for numbers).
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload (the form BENCHMARK.json's command takes); the last
#       line of standard output is the result object.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
binary="$target/release/crn-benchmark"

for argument in "$@"; do
    if [ "$argument" = "--workload" ]; then
        exec "$binary" "$@"
    fi
done

seed=42
seconds=7
traced=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --traced) traced=1; shift ;;
        --quick) seconds=2; shift ;;
        *) echo "usage: benchmark/run.sh [--seed N] [--traced] [--quick]" >&2; exit 2 ;;
    esac
done

failed=0
for workload in point_closed cluster_point open_sessions planner_feedback bulk_sync train_step; do
    for trace in $(seq 0 "$traced"); do
        "$binary" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            || { echo "FAILED: $workload (trace $trace)" >&2; failed=1; }
    done
done
exit "$failed"
