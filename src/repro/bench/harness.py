"""Bench harness: cold timing, report files, regression comparison.

Methodology notes, learned the hard way:

* **Workload construction is excluded from timing.**  Graph builds are
  memoized in-process (``workloads.graphs._csr_cache``), so including
  them would charge the first configuration timed with the build and
  hand every later one a free ride.
* **GC is disabled inside the timed region** and a collection is forced
  right before it; the simulator allocates enough per cycle for
  collection pauses to dominate run-to-run variance otherwise.
* **Best-of-N** (``repeats``, default 3) guards against scheduler noise;
  wall times are minima, not means.
"""

from __future__ import annotations

import cProfile
import gc
import io
import json
import os
import platform
import pstats
import time

from ..harness.runner import build_sim
from .workloads import SCALE_INSTRUCTIONS, SMOKE_MATRIX, bench_config, \
    build_case

#: Schema 2 adds per-case sanitized timings (wall_s_sanitize /
#: sanitize_overhead) and the equivalent totals.  Schema 3 adds
#: free-form ``notes``; older schema-3 reports also carry a
#: ``lanes_sweep`` section, which still loads and is ignored.
SCHEMA = 3
#: Regression gate metric: simulated cycles per host second, aggregated
#: over the matrix with fast-forward on (the configuration users run).
METRIC = "cycles_per_sec"


def _time_once(workload, config):
    """One cold simulation; returns (wall seconds, CoreStats)."""
    built = build_case(workload, config)
    core = build_sim(built, config)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        stats = core.run()
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return wall, stats


def _time_best(workload, config, repeats):
    best, stats = _time_once(workload, config)
    for _ in range(repeats - 1):
        wall, stats = _time_once(workload, config)
        best = min(best, wall)
    return best, stats


def _profile_case(workload, config, top):
    """cProfile one run; returns the top-``top`` rows by cumulative time."""
    profiler = cProfile.Profile()
    profiler.enable()
    _time_once(workload, config)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=io.StringIO())
    rows = []
    for func, (ccalls, ncalls, tottime, cumtime, _callers) in \
            sorted(stats.stats.items(), key=lambda kv: -kv[1][3])[:top]:
        filename, line, name = func
        rows.append({
            "function": f"{os.path.basename(filename)}:{line}({name})",
            "ncalls": ncalls,
            "tottime_s": round(tottime, 4),
            "cumtime_s": round(cumtime, 4),
        })
    return rows


def run_bench(scale="smoke", repeats=3, fast_forward=True, profile=False,
              profile_top=15, matrix=None, progress=None):
    """Time the pinned matrix; returns the report dict.

    Each case is timed with fast-forward on *and* off so the report
    carries the speedup the event-driven scheduler delivers; the
    regression metric uses the ``fast_forward`` configuration (the one
    users actually run).  Each case is additionally timed with the
    runtime sanitizer enabled, so the report records the sanitize-on
    cost -- and the sanitized run doubles as a smoke check: it must
    produce exactly the same cycle/instruction counts as the timed run,
    with every assertion live.
    """
    if matrix is None:
        matrix = SMOKE_MATRIX
    instructions = SCALE_INSTRUCTIONS[scale]
    cases = []
    profiles = {}
    for workload, technique in matrix:
        label = f"{workload}/{technique}"
        if progress:
            progress(f"bench {label} ...")
        cfg_on = bench_config(technique, instructions, fast_forward=True)
        cfg_off = bench_config(technique, instructions, fast_forward=False)
        wall_off, _ = _time_best(workload, cfg_off, repeats)
        wall_on, core = _time_best(
            workload, cfg_on if fast_forward else cfg_off, repeats)
        cfg_san = bench_config(technique, instructions,
                               fast_forward=fast_forward, sanitize=True)
        wall_san, core_san = _time_best(workload, cfg_san, repeats)
        if (core_san.cycles, core_san.committed) != \
                (core.cycles, core.committed):
            raise AssertionError(
                f"sanitized run of {label} diverged: "
                f"{core_san.cycles}/{core_san.committed} vs "
                f"{core.cycles}/{core.committed} cycles/instructions")
        cases.append({
            "workload": workload,
            "technique": technique,
            "wall_s": round(wall_on, 4),
            "wall_s_no_ff": round(wall_off, 4),
            "ff_speedup": round(wall_off / wall_on, 3),
            "wall_s_sanitize": round(wall_san, 4),
            "sanitize_overhead": round(wall_san / wall_on, 3),
            "cycles": core.cycles,
            "instructions": core.committed,
            "cycles_per_sec": round(core.cycles / wall_on, 1),
            "instructions_per_sec": round(core.committed / wall_on, 1),
            "fast_forward_cycles": core.fast_forward_cycles,
            "fast_forward_spans": core.fast_forward_spans,
        })
        if profile:
            profiles[label] = _profile_case(
                workload, cfg_on if fast_forward else cfg_off, profile_top)

    wall = sum(c["wall_s"] for c in cases)
    wall_off = sum(c["wall_s_no_ff"] for c in cases)
    wall_san = sum(c["wall_s_sanitize"] for c in cases)
    cycles = sum(c["cycles"] for c in cases)
    committed = sum(c["instructions"] for c in cases)
    report = {
        "schema": SCHEMA,
        "scale": scale,
        "repeats": repeats,
        "fast_forward": fast_forward,
        "host": {"python": platform.python_version(),
                 "platform": platform.platform()},
        "cases": cases,
        "totals": {
            "wall_s": round(wall, 4),
            "wall_s_no_ff": round(wall_off, 4),
            "ff_speedup": round(wall_off / wall, 3),
            "wall_s_sanitize": round(wall_san, 4),
            "sanitize_overhead": round(wall_san / wall, 3),
            "cycles": cycles,
            "instructions": committed,
            "cycles_per_sec": round(cycles / wall, 1),
            "instructions_per_sec": round(committed / wall, 1),
        },
    }
    if profiles:
        report["profiles"] = profiles
    return report


# ----------------------------------------------------------------------
# Persistence + comparison
# ----------------------------------------------------------------------
def write_report(report, label, bench_dir="benchmarks"):
    os.makedirs(bench_dir, exist_ok=True)
    path = os.path.join(bench_dir, f"BENCH_{label}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path):
    with open(path) as handle:
        return json.load(handle)


def compare_reports(current, baseline, threshold_pct=25.0):
    """Regression check on aggregate cycles/sec.

    Returns ``(ok, lines)``: ``ok`` is False when throughput dropped by
    more than ``threshold_pct`` percent relative to the baseline.  Host
    differences between the machines that produced the two reports make
    small deltas meaningless -- hence a generous default threshold that
    only catches algorithmic regressions (e.g. the fast-forward path
    silently disabled), not micro-level drift.
    """
    lines = []
    cur = current["totals"][METRIC]
    base = baseline["totals"][METRIC]
    delta_pct = (cur - base) / base * 100.0
    lines.append(f"total {METRIC}: {cur:,.0f} vs baseline {base:,.0f} "
                 f"({delta_pct:+.1f}%)")
    base_cases = {(c["workload"], c["technique"]): c
                  for c in baseline["cases"]}
    for case in current["cases"]:
        ref = base_cases.get((case["workload"], case["technique"]))
        if ref is None:
            continue
        case_delta = (case[METRIC] - ref[METRIC]) / ref[METRIC] * 100.0
        lines.append(f"  {case['workload']}/{case['technique']}: "
                     f"{case[METRIC]:,.0f} vs {ref[METRIC]:,.0f} "
                     f"({case_delta:+.1f}%)")
    ok = delta_pct >= -threshold_pct
    if not ok:
        lines.append(f"REGRESSION: throughput dropped {-delta_pct:.1f}% "
                     f"(> {threshold_pct:.0f}% threshold)")
    return ok, lines


def render_report(report):
    """Human-readable summary table."""
    lines = [f"bench scale={report['scale']} repeats={report['repeats']} "
             f"fast_forward={report['fast_forward']}"]
    header = (f"{'case':18s} {'wall_s':>8s} {'no_ff':>8s} {'speedup':>8s} "
              f"{'san':>7s} {'cyc/s':>12s} {'skip%':>6s}")
    lines.append(header)
    for case in report["cases"]:
        skip = (case["fast_forward_cycles"] / case["cycles"]
                if case["cycles"] else 0.0)
        san = case.get("sanitize_overhead")
        san_text = f"{san:6.2f}x" if san is not None else f"{'-':>7s}"
        lines.append(
            f"{case['workload'] + '/' + case['technique']:18s} "
            f"{case['wall_s']:8.3f} {case['wall_s_no_ff']:8.3f} "
            f"{case['ff_speedup']:7.2f}x {san_text} "
            f"{case['cycles_per_sec']:12,.0f} {skip:6.1%}")
    totals = report["totals"]
    total_san = totals.get("sanitize_overhead")
    total_san_text = (f"{total_san:6.2f}x" if total_san is not None
                      else f"{'-':>7s}")
    lines.append(
        f"{'TOTAL':18s} {totals['wall_s']:8.3f} "
        f"{totals['wall_s_no_ff']:8.3f} {totals['ff_speedup']:7.2f}x "
        f"{total_san_text} {totals['cycles_per_sec']:12,.0f}")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    return "\n".join(lines)
