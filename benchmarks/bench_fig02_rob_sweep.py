"""Figure 2: OoO & VR performance and full-ROB stall time vs ROB size.

Paper shape: VR's speedup over the same-size OoO core shrinks as the ROB
grows, and the fraction of time stalled on a full ROB collapses.
"""

from repro.harness.experiments import run_figure

from conftest import run_and_print, bench_scale


def test_fig2_rob_sizes(benchmark):
    result = run_and_print(benchmark, run_figure, "fig2", bench_scale())
    stalls = {row[0]: row[3] for row in result.rows}
    # Full-ROB stall time decreases with ROB size (paper: 51% -> 5%).
    assert stalls[128] >= stalls[512]
    # The baseline improves with more ROB entries.
    speedups = {row[0]: row[1] for row in result.rows}
    assert speedups[512] >= speedups[128]
