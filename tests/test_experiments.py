"""The paper's tables and figures through ``run_figure`` at a micro scale.

One module-scoped run regenerates every table and figure (the eight
simulated ones through their ``specs/*.toml`` DAGs).  ``TestGoldenTables``
requires each simulated table to equal, exactly, the table that the
hand-coded figure pipelines the specs replaced (one function per figure
in ``harness.experiments``) recorded at the same scale:
``tests/data/golden_figures.json``.  The structural checks below
keep the trends the benches assert on computable.  The heavyweight,
paper-scale runs live under ``benchmarks/``.
"""

import json
import os

import pytest

from repro.harness.experiments import (FIGURES, SPECS_DIR, ExperimentScale,
                                       run_figure)
from repro.workloads.graphs import GRAPH_INPUTS, GraphSpec, _csr_cache

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_figures.json")
SIMULATED = [name for name in FIGURES if name != "table1"]


def payload(table):
    """A table as ``--out`` writes it, in canonical JSON."""
    return json.dumps({"name": table.name, "headers": table.headers,
                       "rows": table.rows, "notes": table.notes},
                      sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def figures(golden):
    """Every figure, run once at the golden scale: one tiny RMAT input
    plus two small hpc-db kernels, 1.5k-instruction ROIs (Table 2 always
    covers the paper's five graphs)."""
    spec = GraphSpec(*golden["graph"])
    GRAPH_INPUTS[spec.name] = spec
    scale = ExperimentScale(
        gap_graphs=tuple(golden["scale"]["gap_graphs"]),
        hpcdb=tuple(golden["scale"]["hpcdb"]),
        max_instructions=golden["scale"]["max_instructions"],
        seed=golden["scale"]["seed"])
    try:
        yield {name: run_figure(name, scale) for name in FIGURES}
    finally:
        GRAPH_INPUTS.pop(spec.name, None)
        _csr_cache.pop((spec, scale.seed), None)


class TestGoldenTables:
    def test_golden_covers_every_simulated_figure(self, golden):
        assert sorted(golden["tables"]) == sorted(SIMULATED)

    @pytest.mark.parametrize("name", SIMULATED)
    def test_table_matches_golden(self, name, figures, golden):
        assert payload(figures[name]) == json.dumps(golden["tables"][name],
                                                    sort_keys=True)


class TestStructure:
    def test_registry_covers_every_artifact(self):
        assert set(FIGURES) == {
            "table1", "table2", "fig2", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12"}
        for name in SIMULATED:
            assert os.path.isfile(os.path.join(SPECS_DIR, f"{name}.toml"))

    def test_table1_static(self):
        result = run_figure("table1")
        assert len(result.rows) >= 10
        assert result.render()

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown figure 'fig99'"):
            run_figure("fig99")


class TestFigureRuns:
    def test_fig7(self, figures):
        result = figures["fig7"]
        # 5 GAP kernels x 1 graph + 2 hpc-db + H-mean row.
        assert len(result.rows) == 5 + 2 + 1
        assert result.rows[-1][0] == "H-mean"
        for row in result.rows:
            for value in row[1:]:
                assert value > 0
        assert "dvr" in result.headers

    def test_fig8(self, figures):
        result = figures["fig8"]
        assert result.headers[1:] == ["vr", "dvr-offload", "dvr-discovery",
                                      "dvr"]
        assert all(value > 0 for value in result.rows[-1][1:])

    def test_fig9(self, figures):
        result = figures["fig9"]
        means = dict(zip(result.headers[1:], result.rows[-1][1:]))
        assert 0 < means["OoO"] <= 24
        assert 0 < means["DVR"] <= 24

    def test_fig10(self, figures):
        result = figures["fig10"]
        for row in result.rows:
            assert all(value >= 0 for value in row[1:])

    def test_fig11(self, figures):
        result = figures["fig11"]
        for row in result.rows:
            total = sum(row[1:])
            assert total == pytest.approx(100.0, abs=1e-6) or total == 0.0

    def test_fig2_micro(self, figures):
        result = figures["fig2"]
        sizes = [row[0] for row in result.rows]
        assert sizes == [128, 192, 224, 350, 512]
        stall = {row[0]: row[3] for row in result.rows}
        assert 0 <= stall[350] <= 100

    def test_fig12_micro(self, figures):
        result = figures["fig12"]
        for row in result.rows:
            assert row[2] > 0  # DVR speedup positive

    def test_table2(self, figures):
        result = figures["table2"]
        names = [row[0] for row in result.rows]
        # The paper's five inputs, whatever graphs the scale runs.
        assert names == ["KR", "LJN", "ORK", "TW", "UR"]
