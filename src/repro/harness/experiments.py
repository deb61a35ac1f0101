"""The paper's tables and figures, and the scale they run at.

Table 1 is the static core configuration (:func:`table1_config`).  Every
other table and figure is a checked-in spec, ``specs/<name>.toml`` at
the root of the source checkout, and :func:`run_figure` runs it: the
spec is concretized at an :class:`ExperimentScale` into a DAG whose
sims go through the ``repro.jobs`` engine (process pool or cluster,
disk result cache, run ledger) and whose analysis builds the table.
``repro <figure>``/``all``/``sweep``/``submit`` and ``benchmarks/`` all
call it.  Content-hashed sims shared between figures (every figure
re-uses the OoO baseline) are simulated once and served from cache.

The default "small" scale runs the GAP kernels on two inputs with a
trimmed instruction budget, so a figure regenerates in minutes on a
laptop; "full" runs every benchmark-input combination of the paper.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..config import SimConfig, TECH_OOO
from ..workloads import GAP_WORKLOADS, GRAPH_INPUTS
from .report import format_table

#: Every table and figure, in paper order; ``repro all`` runs them all.
FIGURES = ("table1", "table2", "fig2", "fig7", "fig8", "fig9", "fig10",
           "fig11", "fig12")

#: The figure specs: ``specs/`` at the root of the source checkout, which
#: an editable install (``pip install -e .``) keeps next to the package.
SPECS_DIR = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
    os.pardir, "specs"))


@dataclass
class ExperimentScale:
    """How big an experiment run should be."""

    gap_graphs: tuple = ("KR", "UR")
    hpcdb: tuple = ("camel", "hj2", "hj8", "kangaroo", "nas-cg", "nas-is",
                    "randomaccess", "graph500")
    max_instructions: int = 20_000
    seed: int = 12345
    #: Event-driven cycle skipping; off forces the pure per-cycle loop
    #: (results are bit-identical either way -- see DESIGN.md).
    fast_forward: bool = True
    #: Runtime sanitizer assertions (repro.analysis); also observation
    #: only -- metrics are bit-identical with it on or off.
    sanitize: bool = False

    @classmethod
    def from_env(cls):
        """REPRO_SCALE=full|paper for the paper's full matrix, else small.

        Unknown values raise instead of silently running the small
        matrix: a typo like ``REPRO_SCALE=ful`` used to burn hours
        producing tables at the wrong scale.
        """
        value = os.environ.get("REPRO_SCALE", "small")
        if value in ("full", "paper"):
            return cls.full()
        if value in ("", "small"):
            return cls()
        raise ValueError(
            f"unknown REPRO_SCALE value {value!r}: expected 'small' "
            f"(default), 'full', or 'paper' (alias for 'full')")

    @classmethod
    def full(cls):
        return cls(gap_graphs=tuple(GRAPH_INPUTS), max_instructions=50_000)

    def config(self, technique=TECH_OOO):
        return SimConfig(max_instructions=self.max_instructions,
                         fast_forward=self.fast_forward,
                         sanitize=self.sanitize,
                         ).with_technique(technique)

    def entries(self, gap_only=False):
        """(label, workload name, params) triples for this scale."""
        triples = []
        for kernel in GAP_WORKLOADS:
            for graph in self.gap_graphs:
                triples.append((f"{kernel}_{graph}", kernel,
                                {"graph": graph}))
        if not gap_only:
            for name in self.hpcdb:
                triples.append((name, name, {}))
        return triples


class ExperimentResult:
    """Generic container: per-cell values plus a renderer."""

    def __init__(self, name, headers, rows, notes=""):
        self.name = name
        self.headers = headers
        self.rows = rows
        self.notes = notes

    def render(self):
        text = format_table(self.headers, self.rows, title=self.name)
        if self.notes:
            text += f"\n{self.notes}"
        return text


def table1_config():
    from ..config import table1_rows
    rows = [[k, v] for k, v in table1_rows()]
    return ExperimentResult("Table 1: baseline OoO configuration",
                            ["parameter", "value"], rows)


class FigureIncomplete(RuntimeError):
    """A figure's table was skipped: simulations it needs gave up."""


def run_figure(name, scale=None):
    """One table/figure of ``FIGURES`` as an :class:`ExperimentResult`.

    Runs ``specs/<name>.toml`` at ``scale`` (default: the environment's)
    under the process-wide jobs context.  If the context reports jobs
    that gave up instead of raising (``--keep-going``) and the table
    lost one, raises :class:`FigureIncomplete`.
    """
    from ..specs import SpecError, run_spec_file
    if name not in FIGURES:
        raise ValueError(f"unknown figure {name!r} "
                         f"(known: {', '.join(FIGURES)})")
    if name == "table1":
        return table1_config()
    path = os.path.join(SPECS_DIR, f"{name}.toml")
    if not os.path.isfile(path):
        raise SpecError(f"no figure spec at {path}: figure commands read "
                        f"specs/ from a source checkout (pip install -e .)")
    result = run_spec_file(path, scale=scale or ExperimentScale.from_env())
    if result.stats["skipped"]:
        raise FigureIncomplete(
            f"{name}: {'; '.join(result.skipped_messages())}")
    return result.tables["table"]
