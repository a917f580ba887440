#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each end-to-end metric's
run-to-run spread: the distance between the first and third quartile of
its values as a share of their median, beside the bound BENCHMARK.json
fixes for the metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--seconds s]

Run it from the repository root. Each run's result line is appended to
--log (default: <target dir>/perfbench-spread.jsonl).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """Interquartile distance over the median, with the quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed with code {out.returncode}")
    conditions = json.loads(lines[-2])["conditions"] if len(lines) > 1 else {}
    return json.loads(lines[-1]), conditions


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--log")
    args = parser.parse_args()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    log_path = args.log or os.path.join(ROOT, target, "perfbench-spread.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)

    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            result, conditions = run_once(workload, seed, args.seconds)
            with open(log_path, "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result, "conditions": conditions}) + "\n")
            if not result["correct"] or result["failed"]:
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: steal {conditions.get('steal_share', 0):.3f}",
                  file=sys.stderr)
        print(f"{workload}:")
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            s = spread(vals)
            flag = "ok" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
            if m["name"] != "setup_s" and s > m["bound"]:
                steady = False
            print(f"  {m['name']:24} median {statistics.median(vals):14.4f} {m['unit']:6} "
                  f"spread {s:7.4f}  bound {m['bound']:.3f}  {flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
