"""Figure 11: where the main thread finds DVR-prefetched lines.

Paper shape: most lines are already in the L1-D; a consistent 10-20%
arrive late ('Off-chip': still in flight or fetched incorrectly).
"""

from repro.harness.experiments import run_figure

from conftest import run_and_print, bench_scale


def test_fig11_timeliness(benchmark):
    result = run_and_print(benchmark, run_figure, "fig11", bench_scale())
    covered = [row for row in result.rows if sum(row[1:]) > 0]
    assert covered, "DVR produced no used prefetches anywhere"
    for row in covered:
        label, l1, l2, l3, offchip = row
        on_chip = l1 + l2 + l3
        assert on_chip > 40.0, f"{label}: prefetches mostly too late"
