"""Figure 8: DVR performance breakdown -- VR, +Offload, +Discovery Mode,
+Nested Runahead Mode (= full DVR).

Paper shape: offloading to a decoupled subthread is the single biggest
step (VR 1.2x -> ~1.5x); the full technique is best overall.
"""

from repro.harness.experiments import run_figure

from conftest import run_and_print, bench_scale


def test_fig8_breakdown(benchmark):
    result = run_and_print(benchmark, run_figure, "fig8", bench_scale())
    hmean_row = result.rows[-1]
    means = dict(zip(result.headers[1:], hmean_row[1:]))
    assert means["dvr-offload"] > means["vr"], \
        "decoupling from full-ROB stalls must help (Key Insight #1/#2)"
    assert means["dvr"] >= 0.95 * max(means.values()), \
        "full DVR is (near-)uniformly best"
