"""Tests for the ``repro.jobs`` execution engine.

Covers: JobSpec content hashing, Metrics serialization round-trips, the
disk result cache (including byte-identical hits), the JSONL run ledger,
executor deduplication and crash retry, and the determinism guarantee --
the same spec run serially, on a process pool, or from cache yields
identical metrics.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import (SimConfig, TECH_DVR, TECH_OOO, config_digest,
                          config_from_dict, config_to_dict)
from repro.harness.metrics import Metrics
from repro.harness.runner import run_spec
from repro.jobs import (ExecutionContext, Executor, JobError, JobSpec,
                        NullCache, ResultCache, RunLedger, code_salt,
                        run_specs)
from repro.specs import ArtifactStore


def _spec(workload="nas-is", technique=TECH_OOO, seed=12345,
          max_instructions=2_000, **params):
    config = SimConfig(max_instructions=max_instructions
                       ).with_technique(technique)
    return JobSpec(workload=workload, params=params, config=config,
                   seed=seed)


class TestConfigHashing:
    def test_digest_stable_for_equal_configs(self):
        assert config_digest(SimConfig()) == config_digest(SimConfig())

    def test_digest_sensitive_to_any_field(self):
        base = SimConfig()
        assert config_digest(base) != config_digest(base.with_rob(128))
        assert config_digest(base) != config_digest(
            base.with_technique(TECH_DVR))

    def test_round_trip(self):
        config = SimConfig(max_instructions=123).with_technique(TECH_DVR)
        rebuilt = config_from_dict(
            SimConfig, json.loads(json.dumps(config_to_dict(config))))
        assert rebuilt == config
        assert config_digest(rebuilt) == config_digest(config)

    def test_tuple_fields_survive_json(self):
        config = SimConfig()
        rebuilt = config_from_dict(
            SimConfig, json.loads(json.dumps(config_to_dict(config))))
        assert rebuilt.branch.history_lengths == (4, 8, 16, 32)


class TestJobSpec:
    def test_equal_specs_share_key(self):
        assert _spec().key == _spec().key

    def test_key_ignores_label(self):
        a, b = _spec(), _spec()
        object.__setattr__(b, "label", "renamed")
        assert a.key == b.key

    def test_key_varies_with_seed_config_params_workload(self):
        keys = {_spec().key, _spec(seed=99).key,
                _spec(technique=TECH_DVR).key, _spec(workload="camel").key,
                _spec(max_instructions=999).key}
        assert len(keys) == 5

    def test_graph_params_fingerprinted(self):
        from repro.workloads.graphs import GRAPH_INPUTS, GraphSpec
        name = "JOBSG"
        GRAPH_INPUTS[name] = GraphSpec(name, "rmat", 9, 8)
        try:
            small = _spec(workload="bfs", graph=name)
            GRAPH_INPUTS[name] = GraphSpec(name, "rmat", 10, 8)
            big = _spec(workload="bfs", graph=name)
        finally:
            GRAPH_INPUTS.pop(name, None)
        assert small.inputs["graph"]["log2_nodes"] == 9
        assert small.key != big.key

    def test_dict_round_trip(self):
        spec = _spec(technique=TECH_DVR, seed=7)
        rebuilt = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.key == spec.key
        assert rebuilt.config == spec.config
        assert rebuilt.label == spec.label


class TestMetricsRoundTrip:
    @pytest.fixture(scope="class")
    def metrics(self):
        return run_spec(_spec(technique=TECH_DVR))

    def test_to_dict_is_json_serializable(self, metrics):
        json.dumps(metrics.to_dict())

    def test_round_trip_preserves_everything(self, metrics):
        rebuilt = Metrics.from_dict(
            json.loads(json.dumps(metrics.to_dict())))
        assert rebuilt.cycles == metrics.cycles
        assert rebuilt.ipc == metrics.ipc
        assert rebuilt.mpki == metrics.mpki
        assert rebuilt.dram_accesses == metrics.dram_accesses
        assert rebuilt.timeliness == metrics.timeliness
        assert rebuilt.engine_stats == metrics.engine_stats
        assert rebuilt.cpi_stack == metrics.cpi_stack
        assert rebuilt.config == metrics.config
        # Derived methods keep working on the rebuilt object.
        assert rebuilt.speedup_over(metrics) == 1.0
        assert rebuilt.dram_split() == metrics.dram_split()

    def test_round_trip_is_lossless_fixpoint(self, metrics):
        once = metrics.to_dict()
        twice = Metrics.from_dict(once).to_dict()
        assert json.dumps(once, sort_keys=True) == \
            json.dumps(twice, sort_keys=True)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        assert cache.get(spec) is None
        metrics = run_spec(spec)
        cache.put(spec, metrics)
        assert cache.get(spec).cycles == metrics.cycles
        assert cache.hits == 1 and cache.misses == 1

    def test_hit_is_byte_identical(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        metrics = run_spec(spec)
        cache.put(spec, metrics)
        original = json.dumps(metrics.to_dict(), sort_keys=True)
        cached = json.dumps(cache.get(spec).to_dict(), sort_keys=True)
        assert cached == original

    @pytest.fixture(params=[ResultCache, ArtifactStore],
                    ids=lambda kind: kind.__name__)
    def stored(self, request, tmp_path):
        """One entry in either kind of store: (store, item, path, tamper).

        ``tamper`` edits the checksummed payload in place, keeping it
        valid JSON of the right shape but the wrong value.
        """
        if request.param is ResultCache:
            store = ResultCache(str(tmp_path))
            item = _spec()
            store.put(item, run_spec(item))
            path = store._path(item.key)

            def tamper(metrics):
                metrics["cycles"] += 1          # silently-wrong-data bait
        else:
            store = ArtifactStore(str(tmp_path))
            item = "a1" * 12                    # a node hash
            store.put(item, {"title": "t", "headers": ["benchmark", "dvr"],
                             "rows": [["bfs_KR", 2.5]], "notes": ""})
            path = store._path(item)

            def tamper(artifact):
                artifact["rows"][0][1] += 1     # a speedup nobody measured
        return store, item, path, tamper

    def test_garbage_bytes_degrade_to_miss(self, stored):
        store, item, path, _tamper = stored
        with open(path, "wb") as handle:
            handle.write(b"\xff\x00 not json")
        with pytest.warns(RuntimeWarning, match="undecodable JSON"):
            assert store.get(item) is None
        assert store.corrupt == 1
        # The damaged file is discarded so the next put replaces it.
        assert not os.path.exists(path)

    def test_checksum_mismatch_degrades_to_miss(self, stored):
        """Edited payloads under valid JSON must never be served."""
        store, item, path, tamper = stored
        with open(path) as handle:
            payload = json.load(handle)
        tamper(payload[store.field])
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert store.get(item) is None
        assert store.corrupt == 1

    def test_unrebuildable_metrics_degrade_to_miss(self, tmp_path):
        """A correct checksum over a bogus schema still ends in a miss."""
        from repro.jobs import metrics_checksum
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        cache.put(spec, run_spec(spec))
        bogus = {"nope": True}
        with open(cache._path(spec.key), "w") as handle:
            json.dump({"spec": spec.to_dict(), "metrics": bogus,
                       "sha256": metrics_checksum(bogus)}, handle)
        with pytest.warns(RuntimeWarning, match="schema mismatch"):
            assert cache.get(spec) is None
        assert cache.corrupt == 1

    def test_salt_partitions_generations(self, tmp_path):
        spec = _spec()
        metrics = run_spec(spec)
        old = ResultCache(str(tmp_path), salt="oldcode")
        old.put(spec, metrics)
        new = ResultCache(str(tmp_path), salt="newcode")
        assert new.get(spec) is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path), salt="s1")
        spec = _spec()
        cache.put(spec, run_spec(spec))
        stats = cache.stats()
        assert stats["generations"]["s1"]["entries"] == 1
        assert stats["generations"]["s1"]["bytes"] > 0
        assert cache.clear() == 1
        assert cache.stats()["generations"] == {}

    def test_code_salt_stable_in_process(self):
        assert code_salt() == code_salt()
        assert len(code_salt()) == 12

    def test_prune_drops_only_stale_generations(self, tmp_path):
        spec = _spec()
        metrics = run_spec(spec)
        stale = ResultCache(str(tmp_path), salt="oldcode")
        stale.put(spec, metrics)
        current = ResultCache(str(tmp_path), salt="newcode")
        current.put(spec, metrics)
        assert current.prune() == 1
        stats = current.stats()
        assert list(stats["generations"]) == ["newcode"]
        assert current.get(spec).cycles == metrics.cycles

    def test_prune_empty_cache_is_noop(self, tmp_path):
        cache = ResultCache(str(tmp_path), salt="s1")
        assert cache.prune() == 0
        assert cache.prune_to_bytes(0) == 0

    def _aged_entries(self, tmp_path, seeds):
        """A cache with one entry per seed, mtimes increasing with seed."""
        cache = ResultCache(str(tmp_path), salt="s1")
        for age, seed in enumerate(seeds):
            spec = _spec(seed=seed)
            cache.put(spec, run_spec(spec))
            os.utime(os.path.join(cache.generation_dir, f"{spec.key}.json"),
                     (1_000 + age, 1_000 + age))
        return cache

    def test_prune_to_bytes_evicts_oldest_first(self, tmp_path):
        cache = self._aged_entries(tmp_path, seeds=(1, 2, 3))
        sizes = {name: os.path.getsize(os.path.join(cache.generation_dir,
                                                    name))
                 for name in os.listdir(cache.generation_dir)}
        budget = sum(sizes.values()) - 1          # force exactly one eviction
        assert cache.prune_to_bytes(budget) == 1
        survivors = os.listdir(cache.generation_dir)
        assert len(survivors) == 2
        # The evicted entry is the oldest one (mtime 1000): seed 1.
        evicted_key = _spec(seed=1).key
        assert f"{evicted_key}.json" not in survivors
        assert cache.get(_spec(seed=3)) is not None

    def test_prune_to_bytes_zero_budget_clears_generation(self, tmp_path):
        cache = self._aged_entries(tmp_path, seeds=(1, 2))
        assert cache.prune_to_bytes(0) == 2
        assert os.listdir(cache.generation_dir) == []

    def test_prune_to_bytes_under_budget_is_noop(self, tmp_path):
        cache = self._aged_entries(tmp_path, seeds=(1, 2))
        assert cache.prune_to_bytes(10 * 1024 * 1024) == 0
        assert len(os.listdir(cache.generation_dir)) == 2

    def test_prune_to_bytes_ignores_stale_generations(self, tmp_path):
        spec = _spec()
        metrics = run_spec(spec)
        stale = ResultCache(str(tmp_path), salt="oldcode")
        stale.put(spec, metrics)
        current = ResultCache(str(tmp_path), salt="newcode")
        current.put(spec, metrics)
        assert current.prune_to_bytes(0) == 1     # current entry only
        assert stale.get(spec) is not None        # stale gen untouched


class TestRunLedger:
    def test_records_round_trip(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        spec = _spec()
        metrics = run_spec(spec)
        ledger.record(spec, cache="miss", wall_s=1.5, worker=123,
                      metrics=metrics)
        ledger.record(spec, cache="hit", wall_s=0.001, worker="parent")
        records = RunLedger.read(path)
        assert len(records) == 2
        assert records[0]["key"] == spec.key
        assert records[0]["cache"] == "miss"
        assert records[0]["ipc"] == pytest.approx(metrics.ipc, abs=1e-5)
        assert records[0]["worker"] == 123
        assert records[1]["cache"] == "hit"
        assert [r["seq"] for r in records] == [0, 1]

    def test_read_missing_file(self, tmp_path):
        assert RunLedger.read(str(tmp_path / "nope.jsonl")) == []

    def test_read_skips_truncated_trailing_line(self, tmp_path):
        """A crash mid-append must not make the whole ledger unreadable."""
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        spec = _spec()
        ledger.record(spec, cache="miss", wall_s=1.0, worker=1)
        ledger.record(spec, cache="hit", wall_s=0.001, worker="parent")
        with open(path) as handle:
            intact = handle.read()
        with open(path, "w") as handle:
            handle.write(intact + intact.splitlines()[0][:37])  # torn append
        with pytest.warns(RuntimeWarning, match="corrupt ledger record"):
            records = RunLedger.read(path)
        assert len(records) == 2
        assert [record["cache"] for record in records] == ["miss", "hit"]

    def test_meta_records_are_invisible_to_job_readers(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        spec = _spec()
        ledger.record_meta("chaos-plan", seed=7, plan={"rules": []})
        ledger.record(spec, cache="miss", wall_s=1.0, worker=1,
                      metrics=run_spec(spec))
        records = RunLedger.read(path)
        assert records[0]["meta"] == "chaos-plan"
        assert "key" not in records[0] and "status" not in records[0]
        assert list(RunLedger.completed_index(path)) == [spec.key]

    def test_completed_index_tracks_latest_status(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        done, flaky = _spec(seed=1), _spec(seed=2)
        metrics = run_spec(done)
        ledger.record(done, cache="miss", wall_s=1.0, worker=1,
                      metrics=metrics)
        ledger.record(flaky, cache="miss", wall_s=1.0, worker=1,
                      metrics=metrics)
        ledger.record(flaky, cache="miss", wall_s=1.0, worker=1,
                      status="failed", error="boom")
        completed = RunLedger.completed_index(path)
        assert set(completed) == {done.key}     # later failure pops the key
        assert completed[done.key]["ipc"] == pytest.approx(metrics.ipc,
                                                           abs=1e-5)

    def test_record_carries_retries_and_config_digest(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        spec = _spec()
        RunLedger(path).record(spec, cache="miss", wall_s=1.0, worker=1,
                               retries=2)
        record = RunLedger.read(path)[0]
        assert record["retries"] == 2
        assert record["config_digest"] == config_digest(spec.config)
        assert "max_instructions" not in record


class TestExecutor:
    def _executor(self, tmp_path, jobs=1):
        return Executor(jobs=jobs, cache=ResultCache(str(tmp_path)),
                        ledger=RunLedger(str(tmp_path / "runs.jsonl")))

    def test_results_align_with_input_order(self, tmp_path):
        specs = [_spec(workload="nas-is"), _spec(workload="kangaroo"),
                 _spec(workload="nas-is", technique=TECH_DVR)]
        results = self._executor(tmp_path).run(specs)
        assert [m.workload for m in results] == ["nas-is", "kangaroo",
                                                 "nas-is"]
        assert results[2].technique == TECH_DVR

    def test_duplicate_specs_simulated_once(self, tmp_path):
        specs = [_spec(), _spec(), _spec()]
        results = self._executor(tmp_path).run(specs)
        ledger = RunLedger.read(str(tmp_path / "runs.jsonl"))
        assert len(ledger) == 1          # one simulation for three requests
        assert len({id(m) for m in results}) == 1  # repro: allow(nondet-id)

    def test_second_run_all_cache_hits(self, tmp_path):
        specs = [_spec(), _spec(technique=TECH_DVR)]
        executor = self._executor(tmp_path)
        cold = executor.run(specs)
        warm = self._executor(tmp_path).run(specs)
        ledger = RunLedger.read(str(tmp_path / "runs.jsonl"))
        assert [r["cache"] for r in ledger] == ["miss", "miss", "hit", "hit"]
        for before, after in zip(cold, warm):
            assert after.cycles == before.cycles
            assert after.ipc == before.ipc

    def test_crash_retries_once_then_succeeds(self, tmp_path, monkeypatch):
        import repro.harness.runner as runner_mod
        real = runner_mod.run_spec
        calls = {"n": 0}

        def flaky(spec):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("simulated worker crash")
            return real(spec)

        monkeypatch.setattr(runner_mod, "run_spec", flaky)
        results = self._executor(tmp_path).run([_spec()])
        assert results[0].cycles > 0
        ledger = RunLedger.read(str(tmp_path / "runs.jsonl"))
        assert ledger[-1]["status"] == "retried"

    def test_persistent_crash_raises_job_error(self, tmp_path, monkeypatch):
        import repro.harness.runner as runner_mod

        def broken(spec):
            raise RuntimeError("always broken")

        monkeypatch.setattr(runner_mod, "run_spec", broken)
        with pytest.raises(JobError):
            self._executor(tmp_path).run([_spec()])
        ledger = RunLedger.read(str(tmp_path / "runs.jsonl"))
        assert ledger[-1]["status"] == "failed"
        assert "always broken" in ledger[-1]["error"]

    def test_on_failure_report_returns_partial_results(self, tmp_path,
                                                       monkeypatch):
        import repro.harness.runner as runner_mod
        real = runner_mod.run_spec

        def broken_for_kangaroo(spec):
            if spec.workload == "kangaroo":
                raise RuntimeError("always broken")
            return real(spec)

        monkeypatch.setattr(runner_mod, "run_spec", broken_for_kangaroo)
        executor = Executor(jobs=1, cache=NullCache(),
                            ledger=RunLedger(str(tmp_path / "runs.jsonl")),
                            on_failure="report")
        results = executor.run([_spec(), _spec(workload="kangaroo")])
        assert results[0] is not None and results[0].cycles > 0
        assert results[1] is None               # the hole, not an exception
        report = executor.failure_report
        assert len(report) == 1 and not report.ok
        failure = report.to_dict()["failures"][0]
        assert failure["workload"] == "kangaroo"
        assert failure["stage"] == "parent"
        assert "always broken" in failure["error"]
        assert "exhausted" in report.render()

    def test_on_failure_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="on_failure"):
            Executor(jobs=1, cache=NullCache(), on_failure="shrug")


class TestDeterminism:
    """Same JobSpec -> identical Metrics, no matter how it executes."""

    SPECS = [_spec(workload="nas-is", technique=TECH_DVR),
             _spec(workload="kangaroo"),
             _spec(workload="randomaccess", technique=TECH_DVR)]

    @pytest.fixture(scope="class")
    def serial_results(self):
        return Executor(jobs=1, cache=NullCache()).run(self.SPECS)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_pool_matches_serial(self, serial_results, jobs):
        pool_results = Executor(jobs=jobs, cache=NullCache()).run(self.SPECS)
        for serial, pooled in zip(serial_results, pool_results):
            assert pooled.cycles == serial.cycles
            assert pooled.ipc == serial.ipc
            assert pooled.dram_accesses == serial.dram_accesses
            assert pooled.engine_stats == serial.engine_stats

    def test_cache_hit_matches_fresh_run(self, tmp_path, serial_results):
        cache = ResultCache(str(tmp_path))
        executor = Executor(jobs=1, cache=cache)
        executor.run(self.SPECS)
        hits = Executor(jobs=1, cache=cache).run(self.SPECS)
        for fresh, hit in zip(serial_results, hits):
            assert json.dumps(hit.to_dict(), sort_keys=True) == \
                json.dumps(fresh.to_dict(), sort_keys=True)

    def test_gap_graph_build_is_process_stable(self):
        # Guards the PYTHONHASHSEED fix in workloads.graphs: a graph built
        # in a pool worker must equal one built in this process.
        spec = _spec(workload="bfs", graph="KR", max_instructions=1_000)
        serial = Executor(jobs=1, cache=NullCache()).run([spec, spec])
        pooled = Executor(jobs=2, cache=NullCache()).run(
            [spec, _spec(workload="cc", graph="KR",
                         max_instructions=1_000)])
        assert pooled[0].cycles == serial[0].cycles
        assert pooled[0].dram_accesses == serial[0].dram_accesses


class TestExecutionContext:
    def test_env_configuration(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        ctx = ExecutionContext.from_env()
        assert ctx.jobs == 3
        assert ctx.cache_dir == str(tmp_path)
        assert isinstance(ctx.cache, NullCache)

    def test_no_cache_still_keeps_ledger(self, tmp_path):
        ctx = ExecutionContext(cache_dir=str(tmp_path), no_cache=True)
        run_specs([_spec()], context=ctx)
        records = RunLedger.read(os.path.join(str(tmp_path), "runs.jsonl"))
        assert len(records) == 1
        assert records[0]["cache"] == "off"

    def test_run_specs_uses_default_context(self):
        # The session fixture points REPRO_CACHE_DIR at a scratch dir.
        results = run_specs([_spec()])
        assert results[0].cycles > 0
