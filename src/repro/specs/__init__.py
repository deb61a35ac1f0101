"""repro.specs: declarative experiment specs -> artifact-passing job DAGs.

The pipeline has four layers, one module each:

- :mod:`.format` -- the declarative spec format (TOML or JSON/dict):
  matrix groups (workloads x techniques x knob ranges, minus
  exclusions) plus analysis nodes wired by ``needs`` edges, loaded and
  schema-validated with precise error messages.
- :mod:`.concretize` -- spack-style concretization: expand the matrix,
  apply defaults and constraints, deduplicate identical simulations by
  content hash, and emit a normalized :class:`ConcreteDAG`.
- :mod:`.registry` -- the registered pure analysis functions DAG nodes
  may call (``speedup_table``, ``rob_sweep``, ``knob_sweep``, ...).
- :mod:`.dag` / :mod:`.artifacts` -- execution: a topological frontier
  scheduler that pushes sim nodes through the standard Executor (any
  backend) and runs analyses in-process as artifacts arrive, cached by
  node hash in the :class:`ArtifactStore` (local, over ``--store``).

Checked-in specs live in ``specs/*.toml`` at the repo root; run them
with ``repro env run --spec specs/fig7.toml``.  The paper's figures are
among them: ``repro fig7`` runs ``specs/fig7.toml`` the same way
(:func:`repro.harness.run_figure`).
"""

from .artifacts import ArtifactStore
from .concretize import (CONCRETIZER_VERSION, AnalysisNode, ConcreteDAG,
                         ConcreteGroup, GroupResult, Leaf, SimNode,
                         apply_knob, apply_knobs, concretize)
from .dag import DagResult, DagRunner, run_spec_file
from .format import (AnalysisDef, MatrixGroup, Spec, SpecError, load_spec,
                     parse_mini_toml, parse_toml, spec_from_dict,
                     validate_knob_path)
from .registry import ANALYSES, AnalysisInputError, analysis

__all__ = [
    "ANALYSES",
    "AnalysisDef",
    "AnalysisInputError",
    "AnalysisNode",
    "ArtifactStore",
    "CONCRETIZER_VERSION",
    "ConcreteDAG",
    "ConcreteGroup",
    "DagResult",
    "DagRunner",
    "GroupResult",
    "Leaf",
    "MatrixGroup",
    "SimNode",
    "Spec",
    "SpecError",
    "analysis",
    "apply_knob",
    "apply_knobs",
    "concretize",
    "load_spec",
    "parse_mini_toml",
    "parse_toml",
    "run_spec_file",
    "spec_from_dict",
    "validate_knob_path",
]
