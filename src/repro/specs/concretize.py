"""Concretizer: a validated :class:`Spec` -> normalized :class:`ConcreteDAG`.

Modeled on spack's concretization step: constraints in (workload set x
techniques x knob ranges, minus exclusions, plus defaults), a normalized
concrete dependency DAG out.  Concretization only *builds* -- no
simulation runs here -- so it is cheap enough for ``--dry-run`` and for
edge-case tests to call freely.

Every node is content-hashed:

- a **sim node** hashes as its :class:`~repro.jobs.spec.JobSpec` key --
  the exact cache/dedup identity the execution engine already uses, so
  two leaves that concretize to the same simulation (fig2's baseline
  point reappearing inside the sweep grid, two groups sharing an axis
  point) collapse into ONE node;
- an **analysis node** hashes over its function name, its args, and its
  parents' hashes (for group parents: every leaf's label/technique/knobs
  plus the underlying sim-node hash, in axis order).

Hashes therefore change exactly when a result could change: editing one
knob value re-keys the affected sim nodes and every analysis downstream
of them, while unrelated subgraphs keep their hashes -- which is what
lets the artifact cache re-serve the untouched subgraph on a re-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

from ..config import canonical_digest
from ..jobs import JobSpec
from .format import Spec, SpecError, load_spec

#: Bumped when concretization semantics change (node identity, expansion
#: order, exclusion matching); recorded in the ledger's ``dag`` meta row.
CONCRETIZER_VERSION = 1


# ---------------------------------------------------------------------------
# Knob application
# ---------------------------------------------------------------------------
def apply_knob(config, path, value):
    """A copy of ``config`` with the dotted-path field replaced."""
    parts = str(path).split(".")

    def set_nested(obj, remaining):
        name = remaining[0]
        if not hasattr(obj, name):
            raise SpecError(f"unknown knob {path!r}: {type(obj).__name__} "
                            f"has no field {name!r}")
        if len(remaining) == 1:
            return replace(obj, **{name: value})
        return replace(obj, **{name: set_nested(getattr(obj, name),
                                                remaining[1:])})

    return set_nested(config, parts)


def apply_knobs(config, knobs):
    for path, value in knobs.items():
        config = apply_knob(config, path, value)
    return config


# ---------------------------------------------------------------------------
# Concrete nodes
# ---------------------------------------------------------------------------
@dataclass
class SimNode:
    """One deduplicated simulation: runs through the standard Executor."""

    node_id: str                     # "sim:<JobSpec key>"
    job: JobSpec
    hash: str                        # content hash (= derived from job key)
    leaves: int = 0                  # how many matrix leaves share this node


@dataclass
class Leaf:
    """One matrix point: (workload, technique, knob values) -> a sim node."""

    label: str
    workload: str
    params: dict
    technique: str
    knobs: dict                      # full knob assignment, axis order
    node_id: str
    job: object = None               # the concrete JobSpec


@dataclass
class ConcreteGroup:
    """One expanded matrix group: ordered axes + its leaves."""

    name: str
    labels: tuple                    # workload labels, scale/entry order
    techniques: tuple
    axes: dict                       # knob path -> ordered values
    leaves: tuple = ()               # (Leaf, ...), expansion order

    def leaf_key(self, label, technique, point=None):
        point = dict(point or {})
        for knob, values in self.axes.items():
            # A singleton axis (a knob pinned for the whole group) never
            # needs spelling out in lookups.
            if knob not in point and len(values) == 1:
                point[knob] = values[0]
        missing = [knob for knob in self.axes if knob not in point]
        if missing:
            raise SpecError(
                f"group {self.name!r} lookup for ({label}, {technique}) "
                f"must pin every knob axis; missing "
                f"{', '.join(repr(k) for k in missing)}")
        return (label, technique,
                tuple((knob, point[knob]) for knob in self.axes))

    def has_point(self, point):
        """Is any leaf left at this knob assignment (not all excluded)?"""
        items = tuple((knob, point[knob]) for knob in self.axes
                      if knob in point)
        return any(all(leaf.knobs.get(k) == v for k, v in items)
                   for leaf in self.leaves)


@dataclass
class AnalysisNode:
    """One derived artifact: a registered fn over finished parents."""

    node_id: str                     # "analysis:<name>"
    name: str
    fn: str
    args: dict
    needs: tuple                     # group/analysis names, spec order
    parents: tuple                   # parent node ids (sims + analyses)
    hash: str = ""


class GroupResult:
    """A finished group as analyses see it: axes + a Metrics lookup."""

    def __init__(self, group, metrics_by_leaf):
        self.name = group.name
        self.labels = group.labels
        self.techniques = group.techniques
        self.axes = group.axes
        self.params = {leaf.label: leaf.params for leaf in group.leaves}
        self._group = group
        self._metrics = metrics_by_leaf   # leaf_key -> Metrics

    def metrics(self, label, technique, point=None):
        key = self._group.leaf_key(label, technique, point)
        try:
            return self._metrics[key]
        except KeyError:
            raise SpecError(
                f"group {self.name!r} has no leaf ({label}, {technique}"
                f"{', ' + repr(dict(point)) if point else ''}) -- "
                f"excluded by the matrix, or never part of it") from None

    def has_point(self, point):
        return self._group.has_point(point)


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------
def _resolve_workloads(group, scale):
    """(label, workload, params) triples for a group at this scale."""
    if group.workloads == "scale":
        entries = scale.entries()
    elif group.workloads == "scale-gap":
        entries = scale.entries(gap_only=True)
    else:
        entries = [(entry["label"], entry["workload"], entry["params"])
                   for entry in group.workloads]
    if not entries:
        raise SpecError(
            f"matrix group {group.name!r} expanded to zero workloads: the "
            f"active ExperimentScale has an empty benchmark set "
            f"(gap_graphs={scale.gap_graphs!r}, hpcdb={scale.hpcdb!r})")
    return entries


def _excluded(clause, label, workload, technique, knobs):
    for axis, value in clause.items():
        if axis == "label":
            if label != value:
                return False
        elif axis == "workload":
            if workload != value:
                return False
        elif axis == "technique":
            if technique != value:
                return False
        elif knobs.get(axis) != value:
            return False
    return True


def _expand_group(group, scale, defaults):
    entries = _resolve_workloads(group, scale)
    knob_paths = list(group.knobs)
    combos = list(product(*(group.knobs[path] for path in knob_paths)))
    leaves = []
    excluded = 0
    for label, workload, params in entries:
        for technique in group.techniques:
            for combo in combos:
                knobs = dict(zip(knob_paths, combo))
                if any(_excluded(clause, label, workload, technique, knobs)
                       for clause in group.exclude):
                    excluded += 1
                    continue
                config = apply_knobs(
                    apply_knobs(scale.config(technique), defaults), knobs)
                job = JobSpec(workload=workload, params=dict(params),
                              config=config, seed=scale.seed, label=label)
                leaves.append(Leaf(label=label, workload=workload,
                                   params=dict(params), technique=technique,
                                   knobs=knobs, node_id=f"sim:{job.key}",
                                   job=job))
    if not leaves:
        if excluded:
            raise SpecError(
                f"matrix group {group.name!r} concretized to zero leaves: "
                f"the exclusions eliminate all {excluded} point(s) of the "
                f"{len(entries)} workload(s) x {len(group.techniques)} "
                f"technique(s) matrix")
        raise SpecError(f"matrix group {group.name!r} concretized to zero "
                        f"leaves: empty matrix")
    ordered_labels = []
    for label, _workload, _params in entries:
        if label not in ordered_labels:
            ordered_labels.append(label)
    return ConcreteGroup(name=group.name, labels=tuple(ordered_labels),
                         techniques=group.techniques,
                         axes={path: list(values)
                               for path, values in group.knobs.items()},
                         leaves=tuple(leaves))


def _detect_cycles(analyses):
    """Reject ``needs`` cycles among analyses with the cycle spelled out."""
    edges = {a.name: [need for need in a.needs
                      if any(need == other.name for other in analyses)]
             for a in analyses}
    state = {}                       # name -> "visiting" | "done"
    stack = []

    def visit(name):
        if state.get(name) == "done":
            return
        if state.get(name) == "visiting":
            cycle = stack[stack.index(name):] + [name]
            raise SpecError(f"analysis 'needs' edges form a cycle: "
                            f"{' -> '.join(cycle)}")
        state[name] = "visiting"
        stack.append(name)
        for dep in edges[name]:
            visit(dep)
        stack.pop()
        state[name] = "done"

    for analysis in analyses:
        visit(analysis.name)


# ---------------------------------------------------------------------------
# The concrete DAG
# ---------------------------------------------------------------------------
@dataclass
class ConcreteDAG:
    """A spec, concretized: deduplicated sim nodes + ordered analyses."""

    name: str
    spec: Spec
    sim_nodes: dict                  # node_id -> SimNode
    groups: dict                     # group name -> ConcreteGroup
    analyses: tuple                  # (AnalysisNode, ...) topological order
    dag_hash: str = ""
    leaf_count: int = 0

    def node_count(self):
        return len(self.sim_nodes) + len(self.analyses)

    def levels(self):
        """Topological levels: [sim node ids], then analysis waves."""
        result = []
        if self.sim_nodes:
            result.append(sorted(self.sim_nodes))
        depth = {}                   # analysis node_id -> wave (1-based)
        for node in self.analyses:   # already topologically ordered
            parent_depths = [depth[p] for p in node.parents if p in depth]
            depth[node.node_id] = max(parent_depths, default=0) + 1
        waves = {}
        for node_id, level in depth.items():
            waves.setdefault(level, []).append(node_id)
        for level in sorted(waves):
            result.append(sorted(waves[level]))
        return result

    def stats(self):
        return {
            "spec": self.name,
            "spec_sha256": self.spec.digest,
            "concretizer_version": CONCRETIZER_VERSION,
            "leaves": self.leaf_count,
            "sim_nodes": len(self.sim_nodes),
            "analysis_nodes": len(self.analyses),
            "nodes": self.node_count(),
            "deduplicated": self.leaf_count - len(self.sim_nodes),
            "levels": len(self.levels()),
            "dag_hash": self.dag_hash,
        }


def concretize(source, scale=None):
    """Concretize a spec (path, dict, or :class:`Spec`) into a DAG.

    ``scale`` (an :class:`~repro.harness.experiments.ExperimentScale`)
    supplies the benchmark set, instruction budget and seed; default is
    the environment's scale.
    """
    from ..harness.experiments import ExperimentScale
    spec = source if isinstance(source, Spec) else load_spec(source)
    scale = scale or ExperimentScale.from_env()

    sim_nodes = {}
    groups = {}
    leaf_count = 0
    for group in spec.groups:
        concrete = _expand_group(group, scale, spec.defaults)
        groups[group.name] = concrete
        leaf_count += len(concrete.leaves)
        for leaf in concrete.leaves:
            node = sim_nodes.get(leaf.node_id)
            if node is None:
                node = SimNode(
                    node_id=leaf.node_id, job=leaf.job,
                    hash=canonical_digest(["sim", leaf.job.key], 24))
                sim_nodes[leaf.node_id] = node
            node.leaves += 1

    _detect_cycles(spec.analyses)

    # Topological order over analyses (groups are always ready), keeping
    # document order among simultaneously-ready nodes.
    ordered = []
    ready_names = set(groups)
    pending = list(spec.analyses)
    while pending:
        progressed = False
        for definition in list(pending):
            if all(need in ready_names for need in definition.needs):
                ordered.append(definition)
                ready_names.add(definition.name)
                pending.remove(definition)
                progressed = True
        if not progressed:           # unreachable: cycles already rejected
            raise SpecError("analysis dependencies cannot be ordered")

    analysis_nodes = {}
    nodes = []
    for definition in ordered:
        parents = []
        parent_payload = []
        for need in definition.needs:
            if need in groups:
                concrete = groups[need]
                parents.extend(leaf.node_id for leaf in concrete.leaves)
                parent_payload.append({
                    "group": need,
                    "leaves": [[leaf.label, leaf.technique,
                                sorted(leaf.knobs.items()),
                                sim_nodes[leaf.node_id].hash]
                               for leaf in concrete.leaves],
                })
            else:
                parent = analysis_nodes[need]
                parents.append(parent.node_id)
                parent_payload.append({"analysis": need,
                                       "hash": parent.hash})
        node = AnalysisNode(node_id=f"analysis:{definition.name}",
                            name=definition.name, fn=definition.fn,
                            args=dict(definition.args),
                            needs=definition.needs, parents=tuple(parents))
        node.hash = canonical_digest(["analysis", definition.fn,
                                      definition.args, parent_payload], 24)
        analysis_nodes[definition.name] = node
        nodes.append(node)

    dag_hash = canonical_digest(
        ["dag", CONCRETIZER_VERSION,
         sorted(node.hash for node in sim_nodes.values()),
         [node.hash for node in nodes]], 24)
    return ConcreteDAG(name=spec.name, spec=spec, sim_nodes=sim_nodes,
                       groups=groups, analyses=tuple(nodes),
                       dag_hash=dag_hash, leaf_count=leaf_count)
