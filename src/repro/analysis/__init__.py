"""Correctness tooling for the simulator: determinism linter + sanitizer.

Two halves, both aimed at the same contract -- the simulator is
deterministic and its microarchitectural invariants hold on every cycle:

* a **static linter** (:mod:`repro.analysis.linter`): AST passes over the
  ``repro`` sources that flag nondeterminism sources (builtin ``hash()``
  / ``id()`` ordering, unseeded RNGs, wall-clock reads in cycle logic,
  iteration over ``set``s), schema-drift checks (every ``SimConfig`` /
  ``Metrics`` field must survive the dict round-trip and participate in
  ``config_digest``), and the engine quiescence contract
  (:mod:`repro.analysis.contracts`);
* a **runtime sanitizer** (:mod:`repro.analysis.sanitize`): cheap
  instrumented assertions (``SimConfig.sanitize`` / ``--sanitize``)
  wired into the core, the memory hierarchy and the DVR subthread --
  commit monotonicity, MSHR leak accounting, ROB/queue occupancy bounds,
  VRAT / reconvergence-stack limits, and a fast-forward cross-check.

The same split covers the *concurrent* infrastructure (cluster, serve):

* a **static concurrency pass** (:mod:`repro.analysis.concurrency`)
  discovers thread-spawn sites, computes which attributes escape to
  multiple threads, infers each attribute's lock guard, and emits the
  ``race-unguarded-write`` / ``race-no-guard`` / ``lock-order`` rules;
* a **thread sanitizer** (:mod:`repro.analysis.threadsan`,
  ``--sanitize-threads`` / ``REPRO_SANITIZE_THREADS=1``): instrumented
  locks from :func:`make_lock` / :func:`make_rlock` track the held-lock
  set per thread, detect lock-order inversions before they deadlock,
  and enforce :func:`guarded_by` declarations.

Surface: ``python -m repro lint [--fix] [--json PATH]``, the
``--sanitize`` flag on ``run`` and the experiment commands, and
``--sanitize-threads`` on the cluster/serve commands.

``ANALYSIS_VERSION`` names the rule catalogue; the ``repro.jobs`` ledger
stamps it (plus the sanitize flag) into every record so results produced
by a pre-sanitizer tree remain distinguishable.
"""

from .linter import (ANALYSIS_VERSION, Finding, LintReport, iter_source_files,
                     lint_file, run_lint)
from .sanitize import Sanitizer, SanitizerError
from .threadsan import (ThreadSanitizer, ThreadSanitizerError, guarded_by,
                        make_lock, make_rlock, thread_safe)

__all__ = [
    "ANALYSIS_VERSION",
    "Finding",
    "LintReport",
    "Sanitizer",
    "SanitizerError",
    "ThreadSanitizer",
    "ThreadSanitizerError",
    "guarded_by",
    "iter_source_files",
    "lint_file",
    "make_lock",
    "make_rlock",
    "run_lint",
    "thread_safe",
]
