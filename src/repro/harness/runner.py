"""Run one (workload, technique, config) simulation and collect Metrics."""

from __future__ import annotations

from ..config import (SimConfig, TECH_DVR, TECH_DVR_DISCOVERY,
                      TECH_DVR_OFFLOAD, TECH_IMP, TECH_OOO, TECH_ORACLE,
                      TECH_PRE, TECH_VR)
from ..core.dvr import DvrEngine
from ..memsys.hierarchy import MemoryHierarchy
from ..runahead import OracleEngine, PreEngine, VrEngine
from ..uarch.core import NullEngine, OoOCore
from .metrics import Metrics

_DVR_TECHNIQUES = (TECH_DVR, TECH_DVR_OFFLOAD, TECH_DVR_DISCOVERY)


def build_engine(config, program, guest_memory, hierarchy):
    technique = config.technique
    if technique in (TECH_OOO, TECH_IMP):
        return NullEngine()
    if technique == TECH_PRE:
        return PreEngine(config, program, guest_memory, hierarchy)
    if technique == TECH_VR:
        return VrEngine(config, program, guest_memory, hierarchy)
    if technique in _DVR_TECHNIQUES:
        return DvrEngine(config, program, guest_memory, hierarchy)
    if technique == TECH_ORACLE:
        return OracleEngine()
    raise ValueError(f"unknown technique {technique!r}")


def build_sim(built, config):
    """Assemble the full simulator for a built workload: hierarchy, engine
    and core, with the runtime sanitizer attached when
    ``config.sanitize`` is set.  Returns the :class:`OoOCore` (engine and
    hierarchy hang off it)."""
    hierarchy = MemoryHierarchy(config.memsys, config.stride_pf, config.imp,
                                built.memory)
    engine = build_engine(config, built.program, built.memory, hierarchy)
    sanitizer = None
    if config.sanitize:
        from ..analysis.sanitize import Sanitizer
        sanitizer = Sanitizer(config)
        hierarchy.sanitizer = sanitizer
        subthread = getattr(engine, "subthread", None)
        if subthread is not None:
            subthread.sanitizer = sanitizer
    return OoOCore(built.program, built.memory, config, hierarchy,
                   engine=engine,
                   perfect_memory=config.technique == TECH_ORACLE,
                   sanitizer=sanitizer)


def collect_metrics(built, config, core):
    """Package a core whose ``run()`` has returned as Metrics."""
    hierarchy = core.hierarchy
    core_stats = core.stats
    return Metrics(
        workload=built.name,
        technique=config.technique,
        core_stats=core_stats,
        mem_stats=hierarchy.stats,
        mlp=hierarchy.mlp(core_stats.cycles),
        engine_stats=core.engine.stats(),
        config=config,
    )


def run_built(built, config):
    """Simulate an already-built workload instance."""
    core = build_sim(built, config)
    core.run()
    return collect_metrics(built, config, core)


def run_workload(workload, config=None, technique=None, seed=12345):
    """Build and simulate ``workload``; the main public entry point.

    ``workload`` is a :class:`~repro.workloads.base.Workload` factory (or
    an already-built instance).  ``technique`` overrides the config's.
    """
    config = config or SimConfig()
    if technique is not None:
        config = config.with_technique(technique)
    if hasattr(workload, "build"):
        built = workload.build(
            memory_bytes=config.memsys.guest_memory_bytes, seed=seed)
    else:
        built = workload
    return run_built(built, config)


def run_spec(spec):
    """Run one :class:`~repro.jobs.spec.JobSpec`; works in any process.

    This is the executor's (and worker processes') entry point: it
    re-registers named graph inputs from the spec's fingerprint when the
    worker's registry doesn't have them (e.g. inputs registered at runtime
    by tests or notebooks), rebuilds the workload by name, and simulates.
    """
    from ..workloads import make_workload
    graph_data = spec.inputs.get("graph")
    if graph_data is not None:
        from ..workloads.graphs import GRAPH_INPUTS, GraphSpec
        if spec.params.get("graph") not in GRAPH_INPUTS:
            GRAPH_INPUTS[graph_data["name"]] = GraphSpec(**graph_data)
    workload = make_workload(spec.workload, **spec.params)
    return run_workload(workload, spec.config, seed=spec.seed)


def run_techniques(workload, techniques, config=None, seed=12345):
    """Run the same workload under several techniques.

    Returns {technique: Metrics}.  The workload is re-built per run so
    techniques never share guest state.
    """
    config = config or SimConfig()
    return {tech: run_workload(workload, config, technique=tech, seed=seed)
            for tech in techniques}
