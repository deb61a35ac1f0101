"""Experiment harness: runner, metrics, the paper's tables and figures."""

from .experiments import (FIGURES, ExperimentResult, ExperimentScale,
                          FigureIncomplete, run_figure, table1_config)
from .metrics import Metrics
from .report import format_kv, format_table, gmean, hmean
from .runner import (build_engine, run_built, run_spec, run_techniques,
                     run_workload)

__all__ = [
    "ExperimentResult",
    "ExperimentScale",
    "FIGURES",
    "FigureIncomplete",
    "Metrics",
    "build_engine",
    "format_kv",
    "format_table",
    "gmean",
    "hmean",
    "run_built",
    "run_figure",
    "run_spec",
    "run_techniques",
    "run_workload",
    "table1_config",
]
