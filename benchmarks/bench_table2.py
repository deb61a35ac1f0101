"""Table 2: graph inputs and their measured LLC MPKI over the GAP suite."""

from repro.harness.experiments import run_figure

from conftest import run_and_print, bench_scale


def test_table2_graph_inputs(benchmark):
    result = run_and_print(benchmark, run_figure, "table2", bench_scale())
    # Every input row carries nodes, edges, and a positive MPKI.
    for name, nodes, edges, mpki in result.rows:
        assert nodes > 0 and edges > 0
        assert mpki > 0, f"{name} produced no LLC misses"
