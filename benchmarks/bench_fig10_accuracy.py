"""Figure 10: DRAM accesses normalized to the baseline, split between the
main thread and runahead, for VR and DVR.

Paper shape: DVR covers most main-thread misses without over-fetching;
VR lacks loop-length analysis and can over-fetch substantially.
"""

from repro.harness.experiments import run_figure

from conftest import run_and_print, bench_scale


def test_fig10_accuracy(benchmark):
    result = run_and_print(benchmark, run_figure, "fig10", bench_scale())
    for label, vr_main, vr_ra, dvr_main, dvr_ra in result.rows:
        total_dvr = dvr_main + dvr_ra
        assert total_dvr < 3.0, f"{label}: DVR should not blow up traffic"
    # DVR shifts traffic from the main thread to runahead on GAP rows.
    gap = [row for row in result.rows if row[0].startswith("bfs")]
    assert any(row[3] < 0.9 for row in gap)
