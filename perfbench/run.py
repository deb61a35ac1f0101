"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 20 \\
        --trace 0

Runs fresh-interpreter passes of the workload (passrun.py) for about
``--seconds``, checks every simulated result, and prints a summary
followed by one JSON line::

    {"correct": true, "attempted": 54, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
run's passes; with ``--trace 1`` they are the per-layer ones of one
traced pass, next to an untraced pass for the tracing overhead.  Run
files go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if sys.path[0] == HERE:          # run as a script: import the package
    sys.path[0] = ROOT

from perfbench import check, probes, stats  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

PASSRUN = os.path.join(ROOT, "perfbench", "passrun.py")
WORK_DIR = os.path.join(ROOT, ".perfbench")
#: The run must end within 180 s; no pass starts after this point.
HARD_LIMIT_S = 150.0
#: Untraced runs top up their passes with set-up-only probes to this
#: many set-up samples.
MIN_SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "sim_kips": "kinstr/s",
    "job_s_p50": "s", "job_s_tail": "s", "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, failed set-up)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------
def launch(workload, seed, pass_dir, deadline, mode="pass", trace=False,
           workers=None, warm=None):
    """Run one passrun.py process; returns its result dict, or an
    ``error`` dict when it failed or ran past ``deadline``."""
    command = [sys.executable, PASSRUN, "--workload", workload.name,
               "--seed", str(seed), "--dir", pass_dir, "--mode", mode]
    if trace:
        command.append("--trace")
    if workers:
        command += ["--workers", str(workers)]
    if warm:
        command += ["--warm", warm]
    shutil.rmtree(pass_dir, ignore_errors=True)
    launched = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        _out, err = process.communicate(
            timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": f"{mode} timed out", "wall_s":
                time.perf_counter() - launched}
    wall_s = time.perf_counter() - launched
    if process.returncode != 0:
        last = (err.strip().splitlines() or ["no output"])[-1]
        return {"error": f"{mode} exited {process.returncode}: {last}",
                "wall_s": wall_s}
    with open(os.path.join(pass_dir, "result.json")) as handle:
        result = json.load(handle)
    result["setup_s"] = result["t_ready"] - launched
    result["wall_s"] = wall_s
    return result


def warm_cache(workload, seed, deadline):
    """The filled cache specs-warm reads, built once per seed and code
    version and kept under .perfbench/warm (preparation, not timed)."""
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from repro.jobs.cache import code_salt

    fingerprint = hashlib.sha256(repr(
        (workload.specs, workload.instructions, workload.gap_graphs,
         workload.hpcdb, workload.knobs)).encode())
    for path in workload.specs:
        with open(os.path.join(ROOT, path), "rb") as handle:
            fingerprint.update(handle.read())
    warm = os.path.join(WORK_DIR, "warm", f"{code_salt()}-"
                        f"{fingerprint.hexdigest()[:12]}-s{seed}")
    ready = os.path.join(warm, "READY")
    if not os.path.exists(ready):
        shutil.rmtree(warm, ignore_errors=True)
        result = launch(workload, seed, warm + ".fill", deadline,
                        mode="fill", warm=warm)
        shutil.rmtree(warm + ".fill", ignore_errors=True)
        if "error" in result:
            raise BenchmarkError(f"filling the warm cache: "
                                 f"{result['error']}")
        with open(ready, "w") as handle:
            handle.write(f"{result['wall_s']:.3f}\n")
    return warm


def planned_ops(passes):
    return max((len(p["ops"]) for p in passes if "ops" in p), default=1)


def run_untraced(workload, seed, seconds, run_dir, deadline, warm):
    """The workload's passes for ``seconds``, then set-up probes."""
    passes, probes = [], []
    for index in range(workload.passes(seconds)):
        if passes and time.perf_counter() + passes[-1]["wall_s"] > deadline:
            break
        passes.append(launch(workload, seed,
                             os.path.join(run_dir, f"pass-{index}"),
                             deadline, warm=warm))
    while len(passes) + len(probes) < MIN_SETUP_SAMPLES:
        probe = launch(workload, seed, os.path.join(run_dir, "probe"),
                       deadline, mode="probe", warm=warm)
        if "error" in probe:
            raise BenchmarkError(f"set-up probe: {probe['error']}")
        probes.append(probe)
    return passes, probes


def run_traced(workload, seed, run_dir, deadline, warm):
    """An untraced pass, a traced one, and for a pooled workload an
    untraced serial one: tracing runs every job in one process, so its
    overhead is measured against the same serial schedule."""
    def one(name, **kwargs):
        return launch(workload, seed, os.path.join(run_dir, name), deadline,
                      warm=warm, **kwargs)

    untraced = one("untraced")
    traced = one("traced", trace=True, workers=1)
    serial = one("serial", workers=1) if workload.workers > 1 else None
    return untraced, traced, serial


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def committed(result):
    return sum(op.get("committed", 0) for op in result["ops"])


def job_times(passes):
    return [row["wall_s"] for result in passes
            for row in result["ledger"] if row["status"] != "failed"]


def gc_probe(result):
    """GC pauses of one pass: the pass process's own (its measured window)
    plus those of pool workers, from the per-job probe."""
    totals = dict(result["gc"])
    for job in result.get("jobs", []):
        if job["pid"] != result["pid"]:
            totals["pause_s"] += job["gc_pause_s"]
            totals["collections"] += job["gc_collections"]
            totals["gen2"] += job["gc_gen2"]
    return totals


def end_to_end(passes, probes):
    runs = [p for p in passes if "error" not in p]
    if not runs:
        raise BenchmarkError("every pass failed: "
                             + "; ".join(p["error"] for p in passes))
    times = job_times(runs)
    tail_value, percentile, samples, beyond = stats.tail(times)
    metrics = {
        "setup_s": stats.median([p["setup_s"] for p in runs + probes]),
        "run_s": stats.median([p["run_s"] for p in runs]),
        "sim_kips": stats.median([committed(p) / p["run_s"] / 1000
                                  for p in runs]),
        "job_s_p50": stats.median(times),
        "job_s_tail": tail_value,
        "peak_rss_mb": stats.median([max(p["rss"].values()) for p in runs]),
    }
    notes = {
        "setup_s": f"median of {len(runs) + len(probes)} set-ups",
        "run_s": f"median of {len(runs)} passes",
        "sim_kips": f"median of {len(runs)} passes",
        "job_s_p50": f"median of {samples} jobs",
        "job_s_tail": (f"p{percentile:.1f} of {samples} jobs, {beyond} "
                       f"beyond" if beyond else
                       f"max of {samples} jobs (too few for a tail with "
                       f"{stats.TAIL_BEYOND} beyond)"),
        "peak_rss_mb": f"median of {len(runs)} passes",
    }
    gcs = [gc_probe(p) for p in runs]
    probe = {
        "gc_pause_s": stats.median([g["pause_s"] for g in gcs]),
        "gc_share_of_run": stats.median([g["pause_s"] / p["run_s"]
                                         for g, p in zip(gcs, runs)]),
        "gc_collections": stats.median([g["collections"] for g in gcs]),
        "gc_gen2": stats.median([g["gen2"] for g in gcs]),
        "rss_pass_mb": stats.median([p["rss"]["self_mb"] for p in runs]),
        "rss_children_mb": stats.median([p["rss"]["children_mb"]
                                         for p in runs]),
    }
    return ({name: (value, END_TO_END_UNITS[name])
             for name, value in metrics.items()}, notes, probe)


def transfer_s(result):
    """Pool jobs: parent-observed time minus the worker's own wall_s.

    A worker takes its next job as soon as it finishes the last, so a
    job is observed from the later of its submission and the arrival of
    the same worker's previous result, until its own result arrives."""
    total = 0.0
    previous = {}
    for job in sorted(result.get("pool", []), key=lambda j: j["arrived"]):
        start = max(job["submitted"], previous.get(job["worker"], 0.0))
        total += job["arrived"] - start - job["wall_s"]
        previous[job["worker"]] = job["arrived"]
    return total


def per_layer(workload, untraced, traced, serial):
    for name, result in (("untraced", untraced), ("traced", traced),
                         ("serial", serial)):
        if result is not None and "error" in result:
            raise BenchmarkError(f"{name} pass: {result['error']}")
    counters = traced["counters"]

    def total(prefix):
        return probes.sum_counters(counters, prefix)

    layers = traced["layers"]
    attributed = sum(layers.values())
    if abs(attributed - traced["run_s"]) > 1e-6 * traced["run_s"]:
        raise BenchmarkError(f"self times add up to {attributed} s, not the "
                             f"traced run_s {traced['run_s']} s")
    sim = traced["sim"]
    _calls, loop_s = total("uarch.run")
    stepped = sim["cycles"] - sim["ff_cycles"]
    gets, get_s = total("jobs.cache_get")
    puts, put_s = total("jobs.cache_put")
    rows, ledger_s = total("jobs.ledger")
    hits = sum(1 for row in traced["ledger"] if row["cache"] == "hit")
    baseline = serial or untraced
    busy = sum(row["wall_s"] for row in untraced["ledger"])
    m = {
        "workloads.csr_s": (total("workloads.csr")[1], "s"),
        "workloads.csr_builds": (traced["csr_builds"], "count"),
        "workloads.build_s": (total("workloads.build")[1], "s"),
        "workloads.builds": (total("workloads.build")[0], "count"),
        "workloads.image_mb": (stats.median(traced["image_mb"])
                               if traced["image_mb"] else 0.0, "MB"),
        "workloads.self_s": (layers["workloads"], "s"),
        "harness.build_sim_s": (total("harness.build_sim")[1], "s"),
        "harness.collect_s": (total("harness.collect")[1], "s"),
        "harness.self_s": (layers["harness"], "s"),
        "gc.pause_s": (traced["gc"]["pause_s"], "s"),
        "gc.collections": (traced["gc"]["collections"], "count"),
        "gc.gen2_collections": (traced["gc"]["gen2"], "count"),
        "uarch.loop_s": (loop_s, "s"),
        "uarch.self_s": (layers["uarch"], "s"),
        "uarch.committed": (sim["committed"], "count"),
        "uarch.cycles": (sim["cycles"], "count"),
        "uarch.ff_cycles": (sim["ff_cycles"], "count"),
        "uarch.ff_share": (sim["ff_cycles"] / sim["cycles"]
                           if sim["cycles"] else 0.0, "ratio"),
        "uarch.loop_kips": (sim["committed"] / loop_s / 1000
                            if loop_s else 0.0, "kinstr/s"),
        "uarch.ns_per_stepped_cycle": (loop_s / stepped * 1e9
                                       if stepped else 0.0, "ns"),
    }
    for layer in ("memsys", "branch", "core", "runahead"):
        m[f"{layer}.self_s"] = (layers[layer], "s")
        m[f"{layer}.calls"] = (total(f"{layer}.")[0], "count")
    m.update({
        "jobs.cache_get_s": (get_s, "s"),
        "jobs.cache_gets": (gets, "count"),
        "jobs.cache_hit_ratio": (hits / gets if gets else 0.0, "ratio"),
        "jobs.ledger_s": (ledger_s, "s"),
        "jobs.ledger_rows": (rows, "count"),
        "jobs.cache_put_s": (put_s, "s"),
        "jobs.cache_puts": (puts, "count"),
        "jobs.retries": (sum(row["retries"] or 0 for result in
                             (untraced, traced) for row in result["ledger"]),
                         "count"),
        "jobs.transfer_s": (transfer_s(untraced), "s"),
        "jobs.worker_busy_frac": (busy / (workload.workers
                                          * untraced["run_s"]), "ratio"),
        "jobs.self_s": (layers["jobs"], "s"),
        "specs.analysis_s": (total("specs.analysis")[1], "s"),
        "specs.artifact_hits": (traced["artifact_hits"], "count"),
        "specs.concretize_s": (traced["concretize_s"], "s"),
        "specs.sim_nodes": (traced["sim_nodes"], "count"),
        "specs.dedup_leaves": (traced["leaves"] - traced["sim_nodes"],
                               "count"),
        "specs.self_s": (layers["specs"], "s"),
        "other.self_s": (layers["other"], "s"),
        "trace.run_s": (traced["run_s"], "s"),
        "trace.untraced_run_s": (baseline["run_s"], "s"),
        "trace.overhead": (traced["run_s"] / baseline["run_s"], "ratio"),
    })
    return m


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def host_context(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg_before": list(os.getloadavg()), "seed": seed}


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    for path in ("src/repro/__init__.py",) + workload.specs:
        if not os.path.exists(os.path.join(ROOT, path)):
            print(f"perfbench: {path} is missing; run from a checkout of "
                  f"the repository", file=sys.stderr)
            return 2
    deadline = time.perf_counter() + HARD_LIMIT_S
    host = host_context(args.seed)
    label = f"{workload.name}-s{args.seed}-t{args.trace}"
    run_dir = os.path.join(WORK_DIR, "runs", f"{label}-{os.getpid()}")
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src", "repro"),
                    os.path.join(ROOT, "perfbench")], check=True,
                   stdout=subprocess.DEVNULL)
    try:
        warm = (warm_cache(workload, args.seed, deadline)
                if workload.cache == "warm" else None)
        if args.trace:
            untraced, traced, serial = run_traced(
                workload, args.seed, run_dir, deadline, warm)
            checked = [p for p in (untraced, traced, serial) if p]
            metrics = per_layer(workload, untraced, traced, serial)
            notes, probe = {}, {}
        else:
            checked, probes = run_untraced(workload, args.seed, args.seconds,
                                           run_dir, deadline, warm)
            metrics, notes, probe = end_to_end(checked, probes)
        if args.trace and os.path.exists(os.path.join(run_dir, "traced",
                                                      "spans.jsonl")):
            shutil.copy(os.path.join(run_dir, "traced", "spans.jsonl"),
                        os.path.join(WORK_DIR, "results",
                                     f"{label}-spans.jsonl"))
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    golden = check.load_goldens(workload.name, args.seed)
    for result in checked:
        if "error" in result:
            result["planned_ops"] = planned_ops(checked)
    attempted, failed, problems = check.check_passes(checked, golden)
    host["loadavg_after"] = list(os.getloadavg())
    host["check"] = "golden" if golden else "consistency across passes"
    clean = [p for p in checked if "error" not in p]
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "notes": notes, "probes": probe, "problems": problems,
        "passes": [{key: p.get(key) for key in
                    ("setup_s", "run_s", "wall_s", "error", "rss")}
                   for p in checked],
        "golden": check.golden_entry(clean) if not failed else None,
        "job_times": job_times(clean),
    }
    with open(os.path.join(WORK_DIR, "results", f"{label}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"# host {json.dumps(host)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {value:14.6f} {unit}{note}")
    if probe:
        print(f"# probes (medians per pass; GC of the pass process and its "
              f"pool workers): {json.dumps(probe)}")
    for problem in problems[:20]:
        print(f"# check: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
