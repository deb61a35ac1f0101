"""Simulator performance benchmarking (``python -m repro bench``).

Times the simulator itself -- host wall-clock, not guest cycles -- over a
pinned memory-bound workload matrix, so that perf regressions in the core
loop are caught before they land.  Reports are JSON files
(``benchmarks/BENCH_<label>.json``) that later runs compare against with
a percentage regression threshold.
"""

from .harness import (compare_reports, load_report, render_report,
                      run_bench, write_report)
from .workloads import SMOKE_MATRIX, bench_config, build_case, build_chase

__all__ = [
    "SMOKE_MATRIX",
    "bench_config",
    "build_case",
    "build_chase",
    "compare_reports",
    "load_report",
    "render_report",
    "run_bench",
    "write_report",
]
