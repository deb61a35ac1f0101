"""Steadiness check: run each workload once per seed and report spreads.

    python3 perfbench/steady.py --workloads sim-long --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --out perfbench/steadiness.json

For every end-to-end metric it prints the ten values' median, quartiles
and interquartile spread as a share of the median, next to the metric's
bound in BENCHMARK.json (the target is a spread under a third of it).
``--pin`` writes each clean run's digests to golden.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if sys.path[0] == HERE:          # run as a script: import the package
    sys.path[0] = ROOT

from perfbench import check, stats  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def seed_list(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    process = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, timeout=600)
    wall_s = time.perf_counter() - start
    if process.returncode != 0:
        return {"seed": seed, "error": process.stderr.strip()[-500:],
                "wall_s": wall_s}
    result = json.loads(process.stdout.strip().splitlines()[-1])
    result.update(seed=seed, wall_s=wall_s)
    return result


def summarize(runs, bounds):
    summary = {}
    clean = [run for run in runs if "metrics" in run]
    for name in bounds:
        values = [run["metrics"][name]["value"] for run in clean]
        if not values:
            continue
        q1, q2, q3 = stats.quartiles(values)
        summary[name] = {"median": q2, "q1": q1, "q3": q3,
                         "spread": stats.spread(values),
                         "bound": bounds[name], "values": values}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = args.seconds or benchmark["run_seconds"]
    record = {"seconds": seconds, "seeds": seed_list(args.seeds),
              "host": {"python": sys.version.split()[0],
                       "nproc": len(os.sched_getaffinity(0)),
                       "loadavg_before": list(os.getloadavg())},
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            run = run_once(workload, seed, seconds)
            runs.append(run)
            status = (f"{run['attempted']} ops, {run['failed']} failed"
                      if "metrics" in run else f"ERROR {run['error']}")
            print(f"{workload} seed {seed}: {run['wall_s']:.1f} s, {status}",
                  flush=True)
            if args.pin and "metrics" in run and run["correct"]:
                path = os.path.join(ROOT, ".perfbench", "results",
                                    f"{workload}-s{seed}-t0.json")
                with open(path) as handle:
                    entry = json.load(handle)["golden"]
                if entry:
                    check.pin(workload, seed, entry)
        summary = summarize(runs, bounds)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, item in summary.items():
            flag = ("ok" if item["spread"] < item["bound"] / 3 else
                    "WIDE" if item["spread"] >= item["bound"] else "near")
            print(f"  {name:12s} median {item['median']:12.6f}  q1 "
                  f"{item['q1']:12.6f}  q3 {item['q3']:12.6f}  spread "
                  f"{item['spread']:.4f}  bound {item['bound']}  {flag}",
                  flush=True)
    record["host"]["loadavg_after"] = list(os.getloadavg())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
