"""Figure 9: memory-level parallelism (average MSHRs used per cycle).

Paper shape: the OoO baseline averages <4 on the branchy GAP workloads;
DVR raises the average above 10 by keeping vectorized gathers in flight.
"""

from repro.harness.experiments import run_figure

from conftest import run_and_print, bench_scale


def test_fig9_mlp(benchmark):
    result = run_and_print(benchmark, run_figure, "fig9", bench_scale())
    mean_row = result.rows[-1]
    means = dict(zip(result.headers[1:], mean_row[1:]))
    assert means["DVR"] > means["OoO"], "DVR must raise MLP"
    gap_rows = [row for row in result.rows[:-1]
                if row[0].startswith(("bfs", "bc", "sssp"))]
    assert any(row[1] < 8 for row in gap_rows), \
        "branchy GAP baselines have low raw MLP"
