"""Figure 12: DVR performance as the ROB grows.

Paper shape: unlike VR (Fig 2), DVR's gain over the same-size baseline
*holds or grows* with ROB size (1.9x at 128 entries to 2.5x at 512).
"""

from repro.harness.experiments import run_figure

from conftest import run_and_print, bench_scale


def test_fig12_dvr_rob(benchmark):
    result = run_and_print(benchmark, run_figure, "fig12", bench_scale())
    gains = {row[0]: row[3] for row in result.rows}  # DVR/OoO per size
    assert gains[512] > 1.0, "DVR keeps helping at huge ROBs"
    assert gains[512] >= 0.8 * gains[128], \
        "DVR's relative gain must not collapse with ROB size"
