#!/usr/bin/env python3
"""Runs every workload once per seed and reports the run-to-run spread of each metric.

    python3 benchmark/calibrate.py [--seeds 1..10] [--seconds 8] [--workloads a,b]
                                   [--write-baseline]

For each end-to-end metric x workload it prints the median over the runs, the
interquartile spread as a share of the median (the figure the driver bounds; quartiles
as `statistics.quantiles(values, n=4)` gives them) and the max-min spread.  With
--write-baseline it writes benchmark/baseline/results.json (every run) and
benchmark/baseline/spread.json (the summary, with host facts).  Exits non-zero if a run
fails or a spread exceeds its bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if ".." in text:
        first, last = text.split("..")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result


def host_facts():
    flags = ""
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("flags"):
                flags = line
                break
    # The rule crn-nn's GEMM dispatch applies at run time.
    if " avx512f" in flags:
        simd = "avx512"
    elif " avx2" in flags and " fma" in flags:
        simd = "avx2+fma"
    else:
        simd = "scalar"
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    return {"cores": os.cpu_count(), "simd_tier": simd, "parent_commit": commit or None}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    seeds = parse_seeds(args.seeds)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [workload["name"] for workload in spec["workloads"]])

    runs = []
    for seed in seeds:
        for workload in workloads:
            result = run_once(spec["command"], workload, seed, seconds)
            runs.append({"workload": workload, "seed": seed, **result})
            print(f"seed {seed:>3} {workload:<17}" + " ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
                flush=True)

    summary = {}
    over = []
    print(f"\n{'workload':<17}{'metric':<17}{'median':>14}{'iqr/median':>12}{'(max-min)/median':>18}{'bound':>8}")
    for workload in workloads:
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [run["metrics"][name]["value"] for run in runs if run["workload"] == workload]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                iqr = (q3 - q1) / median
            else:
                iqr = 0.0
            spread = (max(values) - min(values)) / median
            summary[workload][name] = {
                "unit": metric["unit"], "median": median, "min": min(values),
                "max": max(values), "iqr_over_median": iqr,
                "max_minus_min_over_median": spread, "bound": metric["bound"], "runs": len(values),
            }
            flag = ""
            if name != "setup_s" and iqr > metric["bound"]:
                flag = "  OVER BOUND"
                over.append((workload, name))
            elif name != "setup_s" and iqr > metric["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"{workload:<17}{name:<17}{median:>14.6g}{iqr:>12.4f}{spread:>18.4f}{metric['bound']:>8}{flag}")

    if args.write_baseline:
        baseline = os.path.join(HERE, "baseline")
        os.makedirs(baseline, exist_ok=True)
        host = host_facts()
        with open(os.path.join(baseline, "results.json"), "w") as out:
            json.dump({"host": host, "seeds": seeds, "run_seconds": seconds, "runs": runs},
                      out, indent=1)
            out.write("\n")
        with open(os.path.join(baseline, "spread.json"), "w") as out:
            json.dump({"host": host, "seeds": seeds, "run_seconds": seconds,
                       "spread": summary}, out, indent=1)
            out.write("\n")
    if over:
        sys.exit(f"spread over bound: {over}")


if __name__ == "__main__":
    main()
