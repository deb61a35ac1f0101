"""Runtime sanitizer: bit-identical metrics, live assertions, wiring."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.analysis.sanitize import Sanitizer, SanitizerError
from repro.config import SimConfig, config_digest
from repro.harness.runner import build_sim, run_workload
from repro.uarch.dynins import DynIns
from repro.workloads import make_workload


def _built(config, workload="bfs", **params):
    if workload == "bfs":
        params.setdefault("graph", "KR")
    return make_workload(workload, **params).build(
        memory_bytes=config.memsys.guest_memory_bytes, seed=12345)


def _measured_dict(metrics):
    """Metrics as a dict minus the config (which encodes the flag)."""
    data = metrics.to_dict()
    data.pop("config")
    return data


class TestBitIdenticalMetrics:
    @pytest.mark.parametrize("technique", ["ooo", "pre", "vr", "dvr"])
    def test_sanitize_does_not_change_metrics(self, technique):
        base = SimConfig(max_instructions=5_000).with_technique(technique)
        sanitized = SimConfig(max_instructions=5_000,
                              sanitize=True).with_technique(technique)
        workload = make_workload("bfs", graph="KR")
        plain = run_workload(workload, base)
        checked = run_workload(workload, sanitized)
        assert json.dumps(_measured_dict(plain), sort_keys=True) == \
            json.dumps(_measured_dict(checked), sort_keys=True)

    def test_sanitize_also_identical_without_fast_forward(self):
        workload = make_workload("camel")
        plain = run_workload(workload, SimConfig(
            max_instructions=4_000, fast_forward=False))
        checked = run_workload(workload, SimConfig(
            max_instructions=4_000, fast_forward=False, sanitize=True))
        assert _measured_dict(plain) == _measured_dict(checked)

    def test_sanitize_participates_in_config_digest(self):
        on = SimConfig(sanitize=True)
        off = SimConfig(sanitize=False)
        assert config_digest(on) != config_digest(off)


class TestWiring:
    def test_build_sim_attaches_sanitizer_everywhere(self):
        config = SimConfig(max_instructions=1_000,
                           sanitize=True).with_technique("dvr")
        core = build_sim(_built(config), config)
        assert isinstance(core.sanitizer, Sanitizer)
        assert core.hierarchy.sanitizer is core.sanitizer
        assert core.engine.subthread.sanitizer is core.sanitizer

    def test_build_sim_without_flag_has_no_sanitizer(self):
        config = SimConfig(max_instructions=1_000).with_technique("dvr")
        core = build_sim(_built(config), config)
        assert core.sanitizer is None
        assert core.hierarchy.sanitizer is None
        assert core.engine.subthread.sanitizer is None

    def test_hooks_actually_run(self):
        config = SimConfig(max_instructions=3_000,
                           sanitize=True).with_technique("dvr")
        core = build_sim(_built(config), config)
        core.run()
        assert core.sanitizer.checks > 1_000


class TestViolationsAreCaught:
    def _core(self, technique="ooo", **kwargs):
        config = SimConfig(max_instructions=3_000, sanitize=True,
                           **kwargs).with_technique(technique)
        return build_sim(_built(config), config)

    def test_mshr_leak(self):
        core = self._core()
        core.hierarchy.mshrs.allocations += 1
        with pytest.raises(SanitizerError, match="mshr.*leak"):
            core.run()

    def test_commit_monotonicity(self):
        core = self._core()
        # Rewind the sanitizer's view of commit order after some progress.
        core.run(max_instructions=100)
        core.sanitizer._last_commit_seq = 10 ** 9
        with pytest.raises(SanitizerError, match="commit order"):
            core.run(max_instructions=200)

    def test_rob_occupancy_bound(self):
        core = self._core()
        # Any occupancy now violates (the sanitizer reads core.core_cfg).
        core.core_cfg = replace(core.core_cfg, rob_size=-1)
        with pytest.raises(SanitizerError, match="occupancy"):
            core.run()

    def test_queue_bound(self):
        core = self._core()
        core._iq_count = core.core_cfg.issue_queue_size + 1
        with pytest.raises(SanitizerError, match="issue-queue"):
            core.run(max_instructions=50)

    def test_fast_forward_hidden_writeback(self):
        core = self._core()
        # A jump target past the earliest scheduled writeback would
        # silently skip a completion event.
        core._writebacks = [(5, 0, None)]
        with pytest.raises(SanitizerError, match="writeback"):
            core.sanitizer.on_fast_forward(core, now=1, target=10)

    def test_fast_forward_over_ready_instruction(self):
        core = self._core()
        core._ready = [(0, object())]
        with pytest.raises(SanitizerError, match="ready"):
            core.sanitizer.on_fast_forward(core, now=1, target=10)

    def test_fast_forward_must_advance(self):
        core = self._core()
        with pytest.raises(SanitizerError, match="non-advancing"):
            core.sanitizer.on_fast_forward(core, now=10, target=10)

    def _park(self, core, addr):
        """Forge a retrying load that carries the current refusal token."""
        ins = next(ins for ins in core.program.instructions if ins.is_load)
        dyn = DynIns(0, ins, 0)
        dyn.mem_addr = addr
        dyn.parked = core.hierarchy.mshrs.version
        core._retry = [dyn]

    def test_parked_load_on_a_cached_line(self):
        core = self._core()
        core.hierarchy.demand_load(0x20000, pc=1, value=0, now=0)
        self._park(core, 0x20000)
        with pytest.raises(SanitizerError, match="parked.*is in L1-D"):
            core.sanitizer.on_commit(core, core._rob, 0, 0)

    def test_parked_load_with_a_free_mshr(self):
        core = self._core()
        self._park(core, 0x20000)
        with pytest.raises(SanitizerError, match="parked.*MSHRs are held"):
            core.sanitizer.on_commit(core, core._rob, 0, 0)

    def test_subthread_lane_bound(self):
        config = SimConfig(max_instructions=3_000,
                           sanitize=True).with_technique("dvr")
        core = build_sim(_built(config), config)
        sub = core.engine.subthread
        sub.active = list(range(sub.config.max_lanes + 1))
        with pytest.raises(SanitizerError, match="lanes"):
            core.sanitizer.on_subthread_step(sub)

    def test_vrat_free_list_bound(self):
        config = SimConfig(max_instructions=3_000,
                           sanitize=True).with_technique("dvr")
        core = build_sim(_built(config), config)
        core.engine.subthread.vrat._int_free = -1
        with pytest.raises(SanitizerError, match="vrat"):
            core.sanitizer.on_subthread_step(core.engine.subthread)


class TestSanitizeCli:
    def test_run_with_sanitize_flag(self, capsys):
        assert main(["run", "nas-is", "--instructions", "2000",
                     "--sanitize"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_bench_records_sanitize_overhead(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setattr("repro.bench.harness.SCALE_INSTRUCTIONS",
                            {"smoke": 500, "small": 500, "full": 500})
        monkeypatch.setattr("repro.bench.harness.SMOKE_MATRIX",
                            (("nas-is", "ooo"),))
        bench_dir = str(tmp_path / "benchmarks")
        assert main(["bench", "--scale", "smoke", "--repeats", "1",
                     "--label", "san", "--bench-dir", bench_dir]) == 0
        with open(f"{bench_dir}/BENCH_san.json") as handle:
            report = json.load(handle)
        assert report["schema"] == 3
        case = report["cases"][0]
        assert case["wall_s_sanitize"] > 0
        assert case["sanitize_overhead"] > 0
        assert report["totals"]["wall_s_sanitize"] > 0
        assert report["totals"]["sanitize_overhead"] > 0


class TestLedgerRecordsAnalysisFields:
    def test_ledger_entry_carries_sanitize_and_rules_version(self, tmp_path):
        from repro.analysis import ANALYSIS_VERSION
        from repro.jobs.ledger import RunLedger
        from repro.jobs.spec import JobSpec

        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        for sanitize in (False, True):
            spec = JobSpec(workload="nas-is", params={},
                           config=SimConfig(max_instructions=1_000,
                                            sanitize=sanitize),
                           seed=1, label="t")
            entry = ledger.record(spec, cache="miss", wall_s=0.1,
                                  worker="parent")
            assert entry["sanitize"] is sanitize
            assert entry["analysis_rules"] == ANALYSIS_VERSION
        records = RunLedger.read(str(tmp_path / "runs.jsonl"))
        assert [r["sanitize"] for r in records] == [False, True]
