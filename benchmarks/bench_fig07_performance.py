"""Figure 7: speedups of PRE, IMP, VR, DVR and the Oracle over the
baseline OoO core, per benchmark-input.

Paper shape: DVR 2.4x harmonic mean (up to 6.4x), VR ~1.2x, PRE ~1x,
Oracle on top.
"""

from repro.harness.experiments import run_figure

from conftest import run_and_print, bench_scale


def test_fig7_speedups(benchmark):
    result = run_and_print(benchmark, run_figure, "fig7", bench_scale())
    hmean_row = result.rows[-1]
    assert hmean_row[0] == "H-mean"
    headers = result.headers
    means = dict(zip(headers[1:], hmean_row[1:]))
    assert means["dvr"] > 1.2, "DVR must clearly beat the baseline"
    assert means["dvr"] > means["vr"], "DVR must beat VR (paper: 2x)"
    assert means["oracle"] >= means["dvr"], "Oracle bounds DVR"
    assert 0.9 < means["pre"] < 1.5, "PRE is near-baseline on a big ROB"
