"""Same-runner perfbench A/B of a change's tree against its parent's.

    python3 .github/perf_ab.py PARENT_TREE CHANGE_TREE

Runs perfbench's sim-long and fig7-cold workloads in both trees, ten
pairs per workload, alternating which tree runs first in each pair, so
that host speed and its drift fall on both sides alike.  Ten pairs, not
three: on a shared 2-vCPU host the quartile spread of one tree's runs
is about 13% of their median, so with three pairs two slow runs on one
side can push an unchanged tree past a 25% bound or hide a 30%
slowdown.  The forty runs take about nine minutes.

Exits 1 when a run printed no JSON result line, when a run's golden
check did not report ``"correct": true``, or when the change's median
``run_s`` or ``sim_kips`` is worse than the parent's by more than that
metric's bound.  The bounds and their directions come from the parent
tree's BENCHMARK.json, so a change cannot loosen its own gate.

Standard library only; each tree's perfbench imports that tree's
``src/`` itself.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("sim-long", "fig7-cold")
METRICS = ("run_s", "sim_kips")
PAIRS = 10
SEED = 12345
SECONDS = 20


def read_bounds(tree):
    """{metric: (better, bound)} for METRICS, from ``tree``'s BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]
    return {entry["name"]: (entry["better"], entry["bound"])
            for entry in declared if entry["name"] in METRICS}


def run_once(tree, workload):
    """One perfbench run in ``tree``; returns {metric: value}."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"FAIL: {workload} in {tree} printed no JSON line "
                         f"(exit {proc.returncode})")
    if result.get("correct") is not True:
        raise SystemExit(f"FAIL: {workload} in {tree} reported "
                         f"correct={result.get('correct')!r}: {lines[-1]}")
    return {name: result["metrics"][name]["value"] for name in METRICS}


def worse_by(better, parent, change):
    """How much worse ``change`` is than ``parent``, as a fraction of it."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    trees = {"parent": os.path.abspath(argv[0]),
             "change": os.path.abspath(argv[1])}
    bounds = read_bounds(trees["parent"])
    failed = False
    for workload in WORKLOADS:
        samples = {"parent": [], "change": []}
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else \
                ("change", "parent")
            for side in order:
                values = run_once(trees[side], workload)
                samples[side].append(values)
                shown = ", ".join(f"{name} {values[name]:.4g}"
                                  for name in METRICS)
                print(f"{workload} pair {pair + 1} {side}: {shown}",
                      flush=True)
        for name in METRICS:
            better, bound = bounds[name]
            parent = statistics.median(v[name] for v in samples["parent"])
            change = statistics.median(v[name] for v in samples["change"])
            over = worse_by(better, parent, change) > bound
            failed = failed or over
            print(f"{workload} {name}: parent median {parent:.4g}, change "
                  f"median {change:.4g}, ratio {change / parent:.3f} "
                  f"({better} is better, bound {bound:.0%})"
                  f"{' FAIL' if over else ''}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
