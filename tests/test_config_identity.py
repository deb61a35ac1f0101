"""Config serialization and JobSpec identity.

``config_to_dict`` walks the frozen config dataclasses itself; these
tests hold it to ``dataclasses.asdict`` as the reference on every config
the checked-in specs produce.  A ``JobSpec`` derives its key and config
digest once, at construction: the pinned values below were measured
before that change, so every existing cache entry and ledger history
stays addressable.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import sys
import typing

import pytest

import repro.config
from repro.analysis.schema import (_get_path, _perturb, _replace_path,
                                   iter_leaf_fields)
from repro.config import (SimConfig, TECH_DVR, TECH_OOO, config_digest,
                          config_from_dict, config_to_dict)
from repro.harness.experiments import ExperimentScale
from repro.jobs import Executor, JobSpec, ResultCache, RunLedger
from repro.specs import concretize

SPECS_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")
GAP_GRAPHS = ("KR", "LJN", "ORK", "TW", "UR")


def _reference_digest(data, length):
    """The identity formula, spelled out independently of the package."""
    blob = json.dumps(data, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:length]


def _reference_key(spec):
    return _reference_digest({
        "workload": spec.workload,
        "params": spec.params,
        "seed": spec.seed,
        "inputs": spec.inputs,
        "config": dataclasses.asdict(spec.config),
    }, 24)


def _spec_configs():
    """Every leaf config of every checked-in spec, all GAP graphs."""
    scale = ExperimentScale(gap_graphs=GAP_GRAPHS, max_instructions=500)
    configs = []
    for path in sorted(glob.glob(os.path.join(SPECS_DIR, "*.toml"))):
        dag = concretize(path, scale=scale)
        configs.extend(node.job.config for node in dag.sim_nodes.values())
    return configs


def _perturbed_configs():
    """One config per SimConfig leaf field, that field perturbed."""
    base = SimConfig()
    return [_replace_path(base, dotted, _perturb(_get_path(base, dotted)))
            for dotted in iter_leaf_fields(SimConfig)]


class TestSerializer:
    def test_matches_asdict_and_round_trips(self):
        configs = _spec_configs() + _perturbed_configs()
        assert len(configs) > 1000
        for config in configs:
            data = config_to_dict(config)
            assert data == dataclasses.asdict(config)
            assert config_from_dict(SimConfig, data) == config
            assert config_from_dict(
                SimConfig, json.loads(json.dumps(data))) == config


class TestFrozenConfigs:
    def test_assigning_any_config_field_raises(self):
        pending = [SimConfig()]
        checked = 0
        while pending:
            config = pending.pop()
            for f in dataclasses.fields(config):
                value = getattr(config, f.name)
                if dataclasses.is_dataclass(value):
                    pending.append(value)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(config, f.name, value)
            checked += 1
        assert checked == 15    # SimConfig and its 14 nested configs


class TestSpecIdentity:
    @pytest.mark.parametrize("technique,key,digest", [
        (TECH_OOO, "0601cc69755c79c3e869af14", "e2ca213c1de12031"),
        (TECH_DVR, "c55cec5c96b17a4297f225df", "4682719df4035842"),
    ])
    def test_key_and_digest_are_pinned(self, technique, key, digest):
        spec = JobSpec(workload="nas-is", seed=7, config=SimConfig(
            max_instructions=400).with_technique(technique))
        assert spec.key == key == _reference_key(spec)
        assert spec.config_digest == digest == _reference_digest(
            dataclasses.asdict(spec.config), 16)
        assert config_digest(spec.config) == digest

    def test_replace_and_from_dict_rederive_identity(self):
        spec = JobSpec(workload="bfs", params={"graph": "KR"},
                       config=SimConfig(max_instructions=400), label="bfs_KR")
        moved = dataclasses.replace(spec, config=spec.config.with_rob(128))
        assert moved.key == _reference_key(moved) != spec.key
        assert moved.config_digest == config_digest(moved.config)
        rebuilt = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert (rebuilt.key, rebuilt.config_digest) == \
            (spec.key, spec.config_digest)


class TestWarmRun:
    def test_no_config_serialized_and_hints_resolved_once(
            self, tmp_path, monkeypatch):
        specs = [JobSpec(workload="nas-is", seed=seed, config=SimConfig(
                     max_instructions=300).with_technique(technique))
                 for seed in (1, 2) for technique in (TECH_OOO, TECH_DVR)]
        cache = ResultCache(str(tmp_path))
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        cold = Executor(cache=cache, ledger=ledger).run(specs)

        serialized = []
        original = repro.config.config_to_dict

        def counting_to_dict(config):
            if isinstance(config, SimConfig):
                serialized.append(config)
            return original(config)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "config_to_dict", None) is original):
                monkeypatch.setattr(module, "config_to_dict",
                                    counting_to_dict)

        resolved = []
        get_type_hints = typing.get_type_hints

        def counting_hints(obj, *args, **kwargs):
            resolved.append(obj)
            return get_type_hints(obj, *args, **kwargs)

        monkeypatch.setattr(typing, "get_type_hints", counting_hints)
        repro.config._field_plan.cache_clear()

        warm = Executor(cache=cache, ledger=ledger).run(specs)
        assert serialized == []
        assert SimConfig in resolved
        assert len(resolved) == len(set(resolved))
        assert cache.hits == len(specs)
        assert [m.to_dict() for m in warm] == [m.to_dict() for m in cold]
        assert serialized             # the counting hook was live
        records = [r for r in RunLedger.read(ledger.path)
                   if r.get("cache") == "hit"]
        assert [r["config_digest"] for r in records] == \
            [config_digest(spec.config) for spec in specs]
