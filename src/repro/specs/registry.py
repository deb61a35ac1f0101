"""Registered analysis functions: pure ``(inputs, args) -> artifact``.

An *analysis node* of a concretized DAG runs one of the functions in
``ANALYSES`` over its parents' results.  ``inputs`` maps each name in
the analysis's ``needs`` list to either

- a :class:`~repro.specs.concretize.GroupResult` (a matrix group whose
  sim nodes have all finished: ordered axes + a ``(label, technique,
  knob values) -> Metrics`` lookup), or
- the artifact dict a parent *analysis* produced.

The return value is a JSON-able artifact dict ``{"title", "headers",
"rows", "notes"}`` -- exactly the payload an
:class:`~repro.harness.experiments.ExperimentResult` renders.  Functions
must be pure (same inputs -> same artifact): artifacts are cached by
node hash and re-served across runs.

The paper's tables (``specs/table2.toml``, ``specs/fig*.toml``) are
these functions' output, and ``tests/data/golden_figures.json`` pins
each one bit for bit: a change to their float arithmetic or iteration
order shows up there as a failed table.
"""

from __future__ import annotations

from itertools import product

from ..harness.report import hmean
from ..memsys.hierarchy import LEVELS
from ..workloads.graphs import GRAPH_INPUTS

#: name -> analysis function; the spec loader validates ``fn`` against it.
ANALYSES = {}


def analysis(name):
    """Decorator: register an analysis function under ``name``."""
    def register(fn):
        ANALYSES[name] = fn
        return fn
    return register


class AnalysisInputError(ValueError):
    """An analysis got inputs its contract does not cover."""


def _single_group(inputs, fn_name):
    """The one GroupResult parent of a single-group analysis."""
    groups = [value for value in inputs.values() if hasattr(value, "axes")]
    if len(groups) != 1:
        raise AnalysisInputError(
            f"{fn_name} needs exactly one matrix group parent, "
            f"got {len(groups)}")
    return groups[0]


def _require_args(args, required, fn_name):
    missing = [key for key in required if key not in args]
    if missing:
        raise AnalysisInputError(
            f"{fn_name} needs args {', '.join(repr(k) for k in missing)}")


def _artifact(args, rows, title, headers):
    """The artifact dict; ``args`` may override its title and headers."""
    return {"title": args.get("title", title),
            "headers": args.get("headers", headers),
            "rows": rows, "notes": args.get("notes", "")}


# ---------------------------------------------------------------------------
# speedup_table: fig7/fig8-style per-benchmark speedup columns + H-mean
# ---------------------------------------------------------------------------
@analysis("speedup_table")
def speedup_table(inputs, args):
    """Per-benchmark speedups of ``columns`` over ``baseline`` + H-mean row.

    One row per workload label, one column per technique, a final
    harmonic-mean row (Figs 7 and 8).
    """
    _require_args(args, ("columns",), "speedup_table")
    group = _single_group(inputs, "speedup_table")
    baseline = args.get("baseline", "ooo")
    columns = list(args["columns"])
    rows = []
    per_tech = {tech: [] for tech in columns}
    for label in group.labels:
        base = group.metrics(label, baseline)
        row = [label]
        for tech in columns:
            speedup = group.metrics(label, tech).speedup_over(base)
            per_tech[tech].append(speedup)
            row.append(speedup)
        rows.append(row)
    rows.append(["H-mean"] + [hmean(per_tech[tech]) for tech in columns])
    return _artifact(args, rows, f"speedup over {baseline}",
                     ["benchmark"] + columns)


# ---------------------------------------------------------------------------
# rob_sweep: fig2/fig12-style ROB sweeps normalized to a baseline group
# ---------------------------------------------------------------------------
@analysis("rob_sweep")
def rob_sweep(inputs, args):
    """H-mean speedups vs ROB size, normalized to a separate baseline group.

    Needs two parents: a ``baseline`` group (one technique at the
    default ROB; the normalization denominator, per label) and a
    ``sweep`` group carrying a ROB knob axis and two techniques.  The
    ``extra`` column is either ``"stall_pct"`` (fig2: mean full-ROB
    stall time of the first technique, in percent) or ``"ratio"``
    (fig12: second technique's h-mean over the first's).
    """
    _require_args(args, ("techniques", "rob_knob"), "rob_sweep")
    groups = {name: value for name, value in inputs.items()
              if hasattr(value, "axes")}
    if len(groups) != 2:
        raise AnalysisInputError(
            f"rob_sweep needs exactly two matrix group parents "
            f"(baseline + sweep), got {len(groups)}")
    rob_knob = args["rob_knob"]
    sweep = next((g for g in groups.values() if rob_knob in g.axes), None)
    if sweep is None:
        raise AnalysisInputError(
            f"rob_sweep: no parent group carries the {rob_knob!r} knob axis")
    base = next(g for g in groups.values() if g is not sweep)
    tech_a, tech_b = args["techniques"]
    extra = args.get("extra")
    if extra not in (None, "stall_pct", "ratio"):
        raise AnalysisInputError(
            f"rob_sweep: 'extra' must be 'stall_pct' or 'ratio', "
            f"got {extra!r}")

    rows = []
    for rob in sweep.axes[rob_knob]:
        a_speedups, b_speedups, stall = [], [], []
        for label in base.labels:
            base_ipc = base.metrics(label, base.techniques[0]).ipc
            point_a = sweep.metrics(label, tech_a, {rob_knob: rob})
            point_b = sweep.metrics(label, tech_b, {rob_knob: rob})
            a_speedups.append(point_a.ipc / base_ipc)
            b_speedups.append(point_b.ipc / base_ipc)
            stall.append(point_a.rob_full_fraction)
        row = [rob, hmean(a_speedups), hmean(b_speedups)]
        if extra == "stall_pct":
            row.append(100.0 * sum(stall) / len(stall))
        elif extra == "ratio":
            row.append(hmean(b_speedups) / max(1e-9, hmean(a_speedups)))
        rows.append(row)
    return _artifact(args, rows, f"{tech_b} vs ROB size",
                     ["ROB", f"{tech_a} speedup", f"{tech_b} speedup"])


# ---------------------------------------------------------------------------
# knob_sweep: generic knob-combination table (new-scenario workhorse)
# ---------------------------------------------------------------------------
@analysis("knob_sweep")
def knob_sweep(inputs, args):
    """One row per knob combination, aggregated across the benchmark set.

    ``mode = "speedup"`` (default) reports each technique's h-mean
    speedup over ``baseline`` *at the same knob point* -- the right
    question for design-point sweeps ("does runahead still pay off at a
    16-entry ROB?").  ``mode = "mean"`` reports the arithmetic mean of
    ``metric`` (an attribute of ``Metrics``, e.g. ``mlp`` or ``ipc``)
    per technique instead.  Knob combinations a matrix exclusion removed
    are skipped, not zero-filled.
    """
    _require_args(args, ("knobs", "techniques"), "knob_sweep")
    group = _single_group(inputs, "knob_sweep")
    knobs = list(args["knobs"])
    techniques = list(args["techniques"])
    mode = args.get("mode", "speedup")
    if mode not in ("speedup", "mean"):
        raise AnalysisInputError(
            f"knob_sweep: 'mode' must be 'speedup' or 'mean', got {mode!r}")
    baseline = args.get("baseline", "ooo")
    metric = args.get("metric", "ipc")
    for knob in knobs:
        if knob not in group.axes:
            raise AnalysisInputError(
                f"knob_sweep: parent group has no {knob!r} axis "
                f"(axes: {', '.join(sorted(group.axes))})")

    rows = []
    for combo in product(*(group.axes[knob] for knob in knobs)):
        point = dict(zip(knobs, combo))
        if not group.has_point(point):
            continue                  # excluded combination
        row = list(combo)
        for tech in techniques:
            values = []
            for label in group.labels:
                metrics = group.metrics(label, tech, point)
                if mode == "speedup":
                    base = group.metrics(label, baseline, point)
                    values.append(metrics.speedup_over(base))
                else:
                    values.append(float(getattr(metrics, metric)))
            row.append(hmean(values) if mode == "speedup"
                       else sum(values) / len(values))
        rows.append(row)
    if mode == "speedup":
        default_headers = knobs + [f"{t} vs {baseline}" for t in techniques]
    else:
        default_headers = knobs + [f"{t} {metric}" for t in techniques]
    return _artifact(args, rows, f"{mode} across {', '.join(knobs)}",
                     default_headers)


# ---------------------------------------------------------------------------
# cpi_breakdown: per-benchmark CPI-stack components for one technique
# ---------------------------------------------------------------------------
@analysis("cpi_breakdown")
def cpi_breakdown(inputs, args):
    """CPI-stack components per benchmark for one technique."""
    group = _single_group(inputs, "cpi_breakdown")
    technique = args.get("technique", group.techniques[0])
    components = args.get("components")
    rows = []
    for label in group.labels:
        metrics = group.metrics(label, technique)
        if components is None:
            components = list(metrics.cpi_stack)
        rows.append([label] + [metrics.cpi_stack.get(component, 0.0)
                               for component in components])
    return _artifact(args, rows, f"CPI breakdown ({technique})",
                     ["benchmark"] + list(components or []))


# ---------------------------------------------------------------------------
# mlp_table: fig9-style average-MSHRs-per-cycle columns + mean row
# ---------------------------------------------------------------------------
@analysis("mlp_table")
def mlp_table(inputs, args):
    """MLP (average MSHRs per cycle) per benchmark and technique."""
    group = _single_group(inputs, "mlp_table")
    techniques = list(args.get("techniques", group.techniques))
    rows = []
    sums = {tech: [] for tech in techniques}
    for label in group.labels:
        row = [label]
        for tech in techniques:
            mlp = group.metrics(label, tech).mlp
            row.append(mlp)
            sums[tech].append(mlp)
        rows.append(row)
    rows.append(["Mean"] + [sum(sums[t]) / len(sums[t])
                            for t in techniques])
    return _artifact(args, rows, "MLP (MSHRs used per cycle, average)",
                     ["benchmark"] + techniques)


# ---------------------------------------------------------------------------
# dram_table: fig10-style DRAM accesses, main thread vs runahead
# ---------------------------------------------------------------------------
@analysis("dram_table")
def dram_table(inputs, args):
    """Per technique, main-thread and runahead DRAM accesses
    (``Metrics.dram_split``) over the baseline's total on that workload."""
    _require_args(args, ("techniques",), "dram_table")
    group = _single_group(inputs, "dram_table")
    baseline = args.get("baseline", "ooo")
    techniques = list(args["techniques"])
    rows = []
    for label in group.labels:
        base = group.metrics(label, baseline)
        base_total = max(1, sum(base.dram_accesses.values()))
        row = [label]
        for tech in techniques:
            main, runahead = group.metrics(label, tech).dram_split()
            row.extend([main / base_total, runahead / base_total])
        rows.append(row)
    return _artifact(args, rows, f"DRAM accesses normalized to {baseline}",
                     ["benchmark"] + [f"{tech} {part}" for tech in techniques
                                      for part in ("main", "runahead")])


# ---------------------------------------------------------------------------
# timeliness_table: fig11-style level where prefetched lines were found
# ---------------------------------------------------------------------------
@analysis("timeliness_table")
def timeliness_table(inputs, args):
    """Per benchmark, the % of ``source``-prefetched lines the main thread
    found at each cache level, for ``technique`` (default: the first)."""
    group = _single_group(inputs, "timeliness_table")
    technique = args.get("technique", group.techniques[0])
    source = args.get("source", technique)
    rows = []
    for label in group.labels:
        fractions = group.metrics(label, technique).timeliness_fractions(
            source)
        rows.append([label] + [100.0 * fractions[level] for level in LEVELS])
    return _artifact(args, rows, f"where {source} prefetches are found",
                     ["benchmark"] + [f"{level} %" for level in LEVELS])


# ---------------------------------------------------------------------------
# graph_table: table2-style graph sizes + LLC MPKI over the kernels
# ---------------------------------------------------------------------------
@analysis("graph_table")
def graph_table(inputs, args):
    """Per ``graph`` param of the group's workloads: the input's nodes and
    edges in millions (from its ``GraphSpec``, which gives the lengths
    ``build_csr`` returns) and the LLC MPKI summed over its kernels."""
    group = _single_group(inputs, "graph_table")
    technique = args.get("technique", group.techniques[0])
    by_graph = {}
    for label in group.labels:
        graph = group.params[label].get("graph")
        if graph not in GRAPH_INPUTS:
            raise AnalysisInputError(
                f"graph_table: {label!r} has no known graph param")
        by_graph.setdefault(graph, []).append(label)
    rows = []
    for graph, labels in by_graph.items():
        spec = GRAPH_INPUTS[graph]
        total_dram = 0
        total_instr = 0
        for label in labels:
            point = group.metrics(label, technique)
            total_dram += sum(point.dram_accesses.values())
            total_instr += point.committed
        mpki = 1000.0 * total_dram / max(1, total_instr)
        rows.append([graph, spec.num_nodes / 1e6, spec.num_edges / 1e6,
                     mpki])
    return _artifact(args, rows, "graph inputs + LLC MPKI",
                     ["input", "nodes (M)", "edges (M)", "LLC MPKI"])
