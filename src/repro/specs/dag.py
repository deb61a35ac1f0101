"""Execute a :class:`ConcreteDAG`: frontier scheduling over any backend.

The runner walks the DAG in topological waves.  Wave 0 is every sim
node, submitted as ONE batch through the standard
:class:`~repro.jobs.executor.Executor` contract -- so a spec DAG runs
unchanged on the serial executor, the process pool, a TCP cluster, or
a `repro serve` daemon, inheriting dedup, result caching, retries,
cost-model scheduling and the run ledger.
Analysis nodes run *in the parent process* as their parents finish:
each wave's nodes are looked up in the :class:`ArtifactStore` by node
hash first (a hit re-serves the artifact without recomputing), and
computed + published on a miss.  A ``no_cache`` context (``--no-cache``)
neither reads nor writes artifacts.

Because sim results are cached by spec key and artifacts by node hash,
re-running a spec after editing one knob recomputes exactly the
affected subgraph: untouched sim nodes are cache hits, untouched
analyses are artifact hits, and only nodes downstream of the edit run.

Every run records a ``dag`` meta row in the run ledger (spec file hash,
node counts, concretizer version, the sim keys it will dispatch) so
``repro report --from-ledger`` can attribute jobs to the DAG that
spawned them.
"""

from __future__ import annotations

import json

from ..jobs.cache import NullCache
from ..jobs.context import get_context, run_specs
from .artifacts import ArtifactStore
from .concretize import (CONCRETIZER_VERSION, ConcreteDAG, GroupResult,
                         concretize)
from .format import SpecError
from .registry import ANALYSES


class DagResult:
    """Everything one DAG run produced: tables, artifacts, run stats."""

    def __init__(self, dag, tables, artifacts, stats):
        self.dag = dag
        self.tables = tables         # analysis name -> ExperimentResult
        self.artifacts = artifacts   # analysis name -> artifact dict
        self.stats = stats

    def render(self):
        """Every analysis table, in topological order."""
        return "\n\n".join(self.tables[node.name].render()
                           for node in self.dag.analyses
                           if node.name in self.tables)

    def skipped_messages(self):
        """One line per analysis skipped because upstream sims gave up."""
        return [f"skipped analysis {skip['analysis']!r}: {skip['reason']}"
                for skip in self.stats["skipped"]]


def _experiment_result(artifact):
    from ..harness.experiments import ExperimentResult
    return ExperimentResult(artifact["title"], artifact["headers"],
                            artifact["rows"], artifact.get("notes", ""))


def _normalize(artifact):
    """JSON-roundtrip an artifact so computed and cache-served runs hand
    back identical Python structures (lists, not tuples; plain scalars)."""
    return json.loads(json.dumps(artifact, sort_keys=True, default=list))


class DagRunner:
    """Run one concretized DAG under an execution context."""

    def __init__(self, dag, context=None, artifacts=None):
        self.dag = dag
        self.context = context or get_context()
        self.artifacts = (artifacts if artifacts is not None
                          else NullCache() if self.context.no_cache
                          else ArtifactStore.tiered(self.context.cache_dir,
                                                    self.context.store_dir))

    # ------------------------------------------------------------------
    def dry_run(self):
        """Preview the run without executing anything.

        Returns the DAG stats plus the topological levels and a
        cache-hit preview: how many sim nodes the result cache already
        holds, and how many analyses the artifact store can re-serve.
        Both are existence probes: nothing is decoded or backfilled.
        """
        dag = self.dag
        sim_cached = sum(1 for node in dag.sim_nodes.values()
                         if self.context.cache.contains(node.job.key))
        artifact_cached = sum(1 for node in dag.analyses
                              if self.artifacts.contains(node.hash))
        return {
            "stats": dag.stats(),
            "levels": [len(level) for level in dag.levels()],
            "sim_total": len(dag.sim_nodes),
            "sim_cached": sim_cached,
            "analysis_total": len(dag.analyses),
            "artifact_cached": artifact_cached,
        }

    def render_dry_run(self, preview=None):
        preview = preview or self.dry_run()
        stats = preview["stats"]
        dag = self.dag
        lines = [
            f"DAG {stats['spec']} (spec {stats['spec_sha256'][:12] or '-'}, "
            f"concretizer v{stats['concretizer_version']}, "
            f"hash {stats['dag_hash'][:12]})",
            f"  nodes   {stats['nodes']} = {stats['sim_nodes']} sim "
            f"({stats['leaves']} leaves, {stats['deduplicated']} "
            f"deduplicated) + {stats['analysis_nodes']} analysis, "
            f"{stats['levels']} topological level(s)",
        ]
        levels = dag.levels()
        for index, level in enumerate(levels):
            kinds = ("sim" if level and level[0].startswith("sim:")
                     else "analysis")
            detail = ""
            if kinds == "analysis":
                names = [node_id.split(":", 1)[1] for node_id in level]
                detail = ": " + ", ".join(names)
            lines.append(f"  level {index}  {len(level)} {kinds} "
                         f"node(s){detail}")
        lines.append(
            f"  cache   {preview['sim_cached']}/{preview['sim_total']} sim "
            f"result(s) cached, {preview['artifact_cached']}/"
            f"{preview['analysis_total']} artifact(s) cached")
        lines.append("  dry run: nothing executed")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _record_dag_meta(self):
        dag = self.dag
        self.context.ledger.record_meta(
            "dag",
            spec=dag.name,
            spec_source=dag.spec.source,
            spec_sha256=dag.spec.digest,
            dag_hash=dag.dag_hash,
            concretizer_version=CONCRETIZER_VERSION,
            nodes=dag.node_count(),
            sim_nodes=len(dag.sim_nodes),
            analysis_nodes=len(dag.analyses),
            leaves=dag.leaf_count,
            sim_keys=[dag.sim_nodes[node_id].job.key
                      for node_id in dag.sim_nodes],
        )

    def _group_result(self, group, done):
        metrics_by_leaf = {}
        for leaf in group.leaves:
            metrics = done.get(leaf.node_id)
            if metrics is None:
                return None          # a sim this group needs gave up
            key = group.leaf_key(leaf.label, leaf.technique, leaf.knobs)
            metrics_by_leaf[key] = metrics
        return GroupResult(group, metrics_by_leaf)

    def run(self):
        """Execute the DAG; returns a :class:`DagResult`.

        Sim nodes go through the context's executor (one batch -- the
        backend pipelines them); analyses run here as artifacts arrive,
        served from the artifact store when their node hash is cached.
        With the context's ``on_failure="report"`` policy, analyses
        whose upstream sims gave up are *skipped* (listed in
        ``stats["skipped"]``) instead of aborting the run.
        """
        dag = self.dag
        self._record_dag_meta()

        done = {}                    # node_id -> Metrics | artifact dict
        sim_ids = list(dag.sim_nodes)
        metrics_list = run_specs([dag.sim_nodes[nid].job for nid in sim_ids],
                                 context=self.context)
        for node_id, metrics in zip(sim_ids, metrics_list):
            done[node_id] = metrics

        group_results = {}
        for name, group in dag.groups.items():
            group_results[name] = self._group_result(group, done)

        tables = {}
        artifacts = {}
        computed = 0
        served = 0
        skipped = []
        pending = list(dag.analyses)
        while pending:
            ready = [node for node in pending
                     if all(parent in done or parent.startswith("sim:")
                            for parent in node.parents)]
            if not ready:            # unreachable: concretize rejects cycles
                raise SpecError(
                    f"DAG {dag.name!r}: analyses "
                    f"{', '.join(node.name for node in pending)} can never "
                    f"become ready")
            for node in ready:
                pending.remove(node)
                inputs = {}
                unavailable = None
                for need in node.needs:
                    if need in group_results:
                        if group_results[need] is None:
                            unavailable = f"matrix group {need!r}"
                            break
                        inputs[need] = group_results[need]
                    else:
                        parent_id = f"analysis:{need}"
                        if parent_id not in done:
                            unavailable = f"analysis {need!r}"
                            break
                        inputs[need] = done[parent_id]
                if unavailable is not None:
                    skipped.append({"analysis": node.name,
                                    "reason": f"{unavailable} is "
                                              f"incomplete (upstream "
                                              f"failures)"})
                    continue
                artifact = self.artifacts.get(node.hash)
                if artifact is None:
                    artifact = _normalize(ANALYSES[node.fn](inputs,
                                                            node.args))
                    self.artifacts.put(node.hash, artifact)
                    computed += 1
                else:
                    served += 1
                done[node.node_id] = artifact
                artifacts[node.name] = artifact
                tables[node.name] = _experiment_result(artifact)

        stats = dict(dag.stats())
        stats.update(analyses_computed=computed, artifact_hits=served,
                     skipped=skipped)
        return DagResult(dag, tables, artifacts, stats)


def run_spec_file(source, scale=None, context=None, artifacts=None):
    """Concretize + run a spec (path, dict, Spec, or ConcreteDAG)."""
    dag = (source if isinstance(source, ConcreteDAG)
           else concretize(source, scale=scale))
    return DagRunner(dag, context=context, artifacts=artifacts).run()
