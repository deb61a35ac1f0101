"""Tests for metrics, runner dispatch, reporting, and experiment plumbing."""

import pytest

from repro.config import (ALL_TECHNIQUES, SimConfig, TECH_DVR,
                          TECH_DVR_DISCOVERY, TECH_DVR_OFFLOAD, TECH_IMP,
                          TECH_OOO, TECH_ORACLE, TECH_PRE, TECH_VR,
                          paper_config, table1_rows)
from repro.core.dvr import DvrEngine
from repro.harness import (ExperimentScale, format_kv, format_table, gmean,
                           hmean, run_built, run_techniques, run_workload,
                           table1_config)
from repro.harness.runner import build_engine
from repro.runahead import OracleEngine, PreEngine, VrEngine
from repro.uarch.core import NullEngine
from tests.conftest import build_chain_workload


class TestConfig:
    def test_paper_config_table1_values(self):
        config = paper_config()
        assert config.core.rob_size == 350
        assert config.core.width == 5
        assert config.memsys.l1d_mshrs == 24
        assert config.memsys.dram_latency_cycles == 200
        assert config.dvr.max_lanes == 128

    def test_with_technique_sets_flags(self):
        config = SimConfig().with_technique(TECH_IMP)
        assert config.imp.enabled
        config = SimConfig().with_technique(TECH_DVR_OFFLOAD)
        assert not config.dvr.discovery_enabled
        config = SimConfig().with_technique(TECH_DVR_DISCOVERY)
        assert config.dvr.discovery_enabled and not config.dvr.nested_enabled
        config = SimConfig().with_technique(TECH_DVR)
        assert config.dvr.discovery_enabled and config.dvr.nested_enabled

    def test_with_rob_plain(self):
        config = SimConfig().with_rob(128)
        assert config.core.rob_size == 128
        assert config.core.issue_queue_size == 128  # unscaled

    def test_with_rob_scaled_backend(self):
        config = SimConfig().with_rob(512, scale_backend=True)
        assert config.core.rob_size == 512
        assert config.core.issue_queue_size > 128
        assert config.core.store_queue_size > 72

    def test_with_technique_does_not_mutate_original(self):
        config = SimConfig()
        config.with_technique(TECH_IMP)
        assert not config.imp.enabled

    def test_table1_rows_complete(self):
        rows = dict(table1_rows())
        assert "ROB size" in rows and rows["ROB size"] == "350"
        assert "Memory" in rows


class TestEngineDispatch:
    @pytest.mark.parametrize("technique,engine_type", [
        (TECH_OOO, NullEngine),
        (TECH_IMP, NullEngine),
        (TECH_PRE, PreEngine),
        (TECH_VR, VrEngine),
        (TECH_DVR, DvrEngine),
        (TECH_DVR_OFFLOAD, DvrEngine),
        (TECH_DVR_DISCOVERY, DvrEngine),
        (TECH_ORACLE, OracleEngine),
    ])
    def test_build_engine(self, technique, engine_type, chain_workload):
        from repro.memsys import MemoryHierarchy
        config = SimConfig().with_technique(technique)
        hierarchy = MemoryHierarchy(config.memsys, config.stride_pf,
                                    config.imp, chain_workload.memory)
        engine = build_engine(config, chain_workload.program,
                              chain_workload.memory, hierarchy)
        assert isinstance(engine, engine_type)

    def test_unknown_technique_raises(self, chain_workload):
        config = SimConfig(technique="warp-drive")
        with pytest.raises(ValueError):
            run_built(chain_workload, config)


class TestMetrics:
    def _metrics(self, technique=TECH_OOO):
        config = SimConfig(max_instructions=3_000).with_technique(technique)
        return run_built(build_chain_workload(n=4096), config)

    def test_basic_fields(self):
        metrics = self._metrics()
        assert metrics.committed >= 3_000
        assert metrics.cycles > 0
        assert 0 < metrics.ipc <= SimConfig().core.width
        assert metrics.workload == "chain"
        assert metrics.technique == TECH_OOO

    def test_mpki_consistent(self):
        metrics = self._metrics()
        total = sum(metrics.dram_accesses.values())
        assert abs(metrics.mpki - 1000 * total / metrics.committed) < 1e-9

    def test_speedup_over_self_is_one(self):
        metrics = self._metrics()
        assert metrics.speedup_over(metrics) == 1.0

    def test_dram_split_sums(self):
        metrics = self._metrics(TECH_DVR)
        main, runahead = metrics.dram_split()
        assert main + runahead == sum(metrics.dram_accesses.values())

    def test_timeliness_fractions_sum_to_one(self):
        metrics = self._metrics(TECH_DVR)
        fractions = metrics.timeliness_fractions("dvr")
        total = sum(fractions.values())
        assert total == 0.0 or abs(total - 1.0) < 1e-9

    def test_as_dict_roundtrip(self):
        data = self._metrics().as_dict()
        assert data["technique"] == TECH_OOO
        assert "ipc" in data and "mlp" in data


class TestRunTechniques:
    def test_each_technique_runs_and_is_isolated(self):
        results = run_techniques(
            lambda: None if False else build_chain_workload(n=4096),
            [], SimConfig())
        assert results == {}

    def test_multi_technique_results(self):
        workload = _RebuildableChain()
        results = run_techniques(workload, [TECH_OOO, TECH_DVR],
                                 SimConfig(max_instructions=3_000))
        assert set(results) == {TECH_OOO, TECH_DVR}
        assert results[TECH_DVR].technique == TECH_DVR


class _RebuildableChain:
    def build(self, memory_bytes=None, seed=None):
        return build_chain_workload(n=4096)


class TestReport:
    def test_hmean(self):
        assert abs(hmean([1.0, 2.0]) - 4.0 / 3.0) < 1e-9
        assert hmean([]) == 0.0
        assert hmean([0.0, 2.0]) == 2.0  # zeros excluded

    def test_gmean(self):
        assert abs(gmean([1.0, 4.0]) - 2.0) < 1e-9

    def test_format_table(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2.25]],
                            title="T")
        assert "T" in text and "1.50" in text and "2.25" in text

    def test_format_kv(self):
        text = format_kv("Config", [("rob", 350), ("width", 5)])
        assert "rob" in text and "350" in text


class TestExperimentScale:
    def test_default_scale_small(self):
        scale = ExperimentScale()
        labels = [label for label, _name, _params in scale.entries()]
        assert "bfs_KR" in labels and "bfs_UR" in labels
        assert "camel" in labels

    def test_full_scale_covers_all_graphs(self):
        scale = ExperimentScale.full()
        labels = [label for label, _name, _params in scale.entries()]
        assert sum(1 for label in labels if label.startswith("bfs")) == 5

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert len(ExperimentScale.from_env().gap_graphs) == 5
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert len(ExperimentScale.from_env().gap_graphs) == 2

    def test_env_paper_alias_and_empty(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert len(ExperimentScale.from_env().gap_graphs) == 5
        monkeypatch.setenv("REPRO_SCALE", "")
        assert len(ExperimentScale.from_env().gap_graphs) == 2

    def test_env_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "ful")
        with pytest.raises(ValueError, match="REPRO_SCALE.*'ful'.*small"):
            ExperimentScale.from_env()

    def test_table1_renders(self):
        text = table1_config().render()
        assert "ROB size" in text and "350" in text
