"""Experiment-execution engine: parallel runs, result cache, run ledger.

The paper's figures are cross-product sweeps (workloads x inputs x
techniques x ROB sizes); this package turns each point into a content-
addressed :class:`JobSpec`, executes batches of them on a process pool,
caches results on disk keyed by spec hash + code version (optionally
stacked over a shared store), and logs every job to a JSONL run ledger.
The figure code in :mod:`repro.harness.experiments` only *enumerates*
specs and joins the returned metrics.
"""

from .cache import (CacheStack, NullCache, ResultCache, code_salt,
                    default_cache_dir, default_store_dir, generation_lock,
                    metrics_checksum)
from .context import (ExecutionContext, close_context, configure,
                      get_context, run_specs, set_context)
from .executor import Executor, JobError, ProgressLine, SweepFailureReport
from .ledger import NullLedger, RunLedger
from .spec import JobSpec

__all__ = [
    "CacheStack",
    "ExecutionContext",
    "Executor",
    "JobError",
    "JobSpec",
    "NullCache",
    "NullLedger",
    "ProgressLine",
    "ResultCache",
    "RunLedger",
    "SweepFailureReport",
    "close_context",
    "code_salt",
    "configure",
    "default_cache_dir",
    "default_store_dir",
    "generation_lock",
    "get_context",
    "metrics_checksum",
    "run_specs",
    "set_context",
]
