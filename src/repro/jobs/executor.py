"""Fan jobs out over worker processes, with caching and a run ledger.

The :class:`Executor` is the one place simulations get launched from:
it deduplicates specs by content key, serves repeats from the
:class:`~repro.jobs.cache.ResultCache`, runs the misses either in-process
(``jobs=1`` -- exercised by pytest/coverage and debugging) or on a
``ProcessPoolExecutor``, retries once on a worker crash or timeout by
re-running the job in the parent, and logs every job to the JSONL ledger.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .cache import NullCache
from .ledger import NullLedger
from .spec import JobSpec


def _execute_payload(payload):
    """Worker entry point: run one serialized JobSpec, return plain dicts.

    Module-level so it pickles; takes/returns dicts so workers never ship
    live simulator objects across the process boundary.
    """
    from ..harness.runner import run_spec
    spec = JobSpec.from_dict(payload)
    start = time.perf_counter()
    metrics = run_spec(spec)
    return {"metrics": metrics.to_dict(),
            "wall_s": time.perf_counter() - start,
            "worker": os.getpid()}


class ProgressLine:
    """Live ``[12/60] bfs_KR dvr ... 3 cached`` line on stderr.

    On a TTY the line redraws in place; otherwise (pipes, CI) it stays
    silent per-job and prints one summary at the end.  ``REPRO_PROGRESS=0``
    silences it entirely, ``=1`` forces per-job lines even when piped.
    """

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        mode = os.environ.get("REPRO_PROGRESS", "")
        self.enabled = mode != "0"
        self.per_job = self.enabled and (
            mode == "1" or getattr(self.stream, "isatty", lambda: False)())
        self.live = self.per_job and mode != "1"
        self._dirty = False

    def update(self, done, total, spec, cached):
        if not self.per_job:
            return
        text = f"[{done}/{total}] {spec.label} {spec.technique} " \
               f"... {cached} cached"
        if self.live:
            self.stream.write("\r" + text.ljust(60))
            self._dirty = True
        else:
            self.stream.write(text + "\n")
        self.stream.flush()

    def finish(self, total, cached, wall_s):
        if not self.enabled:
            return
        if self._dirty:
            self.stream.write("\n")
        self.stream.write(f"[jobs] {total} job(s), {cached} cache hit(s), "
                          f"{wall_s:.2f}s\n")
        self.stream.flush()


class JobError(RuntimeError):
    """A job failed twice (initial attempt + one retry)."""


class SweepFailureReport:
    """Structured record of every job a sweep gave up on.

    With ``on_failure="report"`` an executor appends one entry per
    exhausted job -- spec identity, the final error, and how many
    attempts it took -- instead of raising mid-sweep, so a long sweep
    returns its partial results plus an auditable account of the holes.
    """

    def __init__(self):
        self.failures = []

    def add(self, spec, error, attempts, stage):
        self.failures.append({
            "key": spec.key,
            "label": spec.label,
            "workload": spec.workload,
            "technique": spec.technique,
            "error": str(error),
            "attempts": int(attempts),
            # Where the sweep gave up: "parent" (a local job's
            # in-process retry also failed) or "cluster" (the cluster or
            # serve backend's daemon gave up -- retry budget spent or no
            # workers -- and so did the in-process retry).
            "stage": stage,
        })

    def __len__(self):
        return len(self.failures)

    def __bool__(self):
        return bool(self.failures)

    @property
    def ok(self):
        return not self.failures

    def to_dict(self):
        return {"failed_jobs": len(self.failures),
                "failures": list(self.failures)}

    def render(self):
        if not self.failures:
            return "sweep failure report: all jobs completed"
        lines = [f"sweep failure report: {len(self.failures)} job(s) "
                 f"exhausted their retry budget"]
        for failure in self.failures:
            lines.append(
                f"  {failure['label']}/{failure['technique']} "
                f"[{failure['key'][:8]}] after {failure['attempts']} "
                f"attempt(s) ({failure['stage']}): {failure['error']}")
        return "\n".join(lines)


class Executor:
    """Run JobSpecs: dedup -> cache -> (pool | serial) -> ledger."""

    def __init__(self, jobs=1, cache=None, ledger=None, timeout=None,
                 progress=None, cost_model=None, on_failure="raise",
                 resume_index=None, failure_report=None):
        self.jobs = max(1, int(jobs))
        self.cache = cache if cache is not None else NullCache()
        self.ledger = ledger if ledger is not None else NullLedger()
        self.timeout = timeout        # per-job seconds, None = unlimited
        self.progress = progress if progress is not None else ProgressLine()
        self.cost_model = cost_model  # None = learn from the ledger lazily
        if on_failure not in ("raise", "report"):
            raise ValueError(f"on_failure must be 'raise' or 'report', "
                             f"got {on_failure!r}")
        #: "raise": a twice-failed job aborts the sweep with JobError
        #: (the historical contract).  "report": the job's result slot
        #: becomes None and the failure lands in ``failure_report``.
        self.on_failure = on_failure
        #: ``key -> ledger record`` of already-completed specs (from
        #: ``RunLedger.completed_index``); their cached metrics are
        #: replayed without dispatch (``repro sweep --resume``).
        self.resume_index = resume_index or {}
        self.failure_report = (failure_report if failure_report is not None
                               else SweepFailureReport())

    # ------------------------------------------------------------------
    def run(self, specs):
        """Execute ``specs``; returns Metrics aligned with the input order.

        Specs sharing a content key are simulated once.  With
        ``on_failure="report"``, a job that exhausts its retries yields
        ``None`` in its result slot(s) and an entry in
        ``self.failure_report`` instead of raising.
        """
        start = time.perf_counter()
        unique = {}
        for spec in specs:
            unique.setdefault(spec.key, spec)

        results = {}                  # key -> Metrics (None = gave up)
        cached = 0
        pending = []
        for key, spec in unique.items():
            lookup_start = time.perf_counter()
            metrics, disposition = self._lookup(spec)
            if metrics is not None:
                results[key] = metrics
                cached += 1
                self.ledger.record(
                    spec, cache=disposition, worker="parent",
                    wall_s=time.perf_counter() - lookup_start,
                    metrics=metrics)
                self.progress.update(len(results), len(unique), spec, cached)
            else:
                pending.append(spec)

        if pending:
            self._run_pending(pending, unique, results, cached)

        self.progress.finish(len(unique), cached,
                             time.perf_counter() - start)
        return [results[spec.key] for spec in specs]

    def _lookup(self, spec):
        """Cache lookup for one spec -> (metrics, ledger disposition).

        A spec the resume index marks as completed is replayed from the
        cache with disposition ``"resume"`` so ledger inspection can
        prove an interrupted sweep only dispatched the remainder.  A
        resume entry whose bytes are gone (pruned or corrupt cache)
        degrades to a normal re-dispatch with a warning.
        """
        record = self.resume_index.get(spec.key)
        if record is not None:
            if record.get("config_digest") == spec.config_digest:
                metrics = self.cache.get(spec)
                if metrics is not None:
                    return metrics, "resume"
                import warnings
                warnings.warn(
                    f"resume: {spec.label}/{spec.technique} "
                    f"[{spec.key[:8]}] is completed in the ledger but "
                    f"missing from the result cache; re-dispatching",
                    RuntimeWarning, stacklevel=3)
                return None, "hit"
        return self.cache.get(spec), "hit"

    # ------------------------------------------------------------------
    def _run_pending(self, pending, unique, results, cached):
        """Execute the cache misses (backend hook point)."""
        if self.jobs == 1 or len(pending) == 1:
            self._run_serial(pending, unique, results, cached)
        else:
            self._run_pool(self._schedule(pending), unique, results, cached)

    def _schedule(self, pending):
        """Longest-expected-first order, learned from the run ledger.

        Minimizes tail latency whenever jobs run concurrently (process
        pool or cluster): the slowest points start first instead of
        straggling at the end of the sweep.
        """
        from ..cluster.scheduler import cost_model_for, longest_first
        if self.cost_model is None:
            self.cost_model = cost_model_for(self.ledger)
        return longest_first(pending, self.cost_model)

    def _finish_job(self, spec, metrics, unique, results, cached, *,
                    wall_s, worker, status, retries=0, disposition=None):
        """Record one completed job (cache + ledger + progress).

        ``disposition`` overrides the ledger's cache column: remote
        backends pass ``"hit"`` for results a daemon served from its
        shared store, so the cost model never learns a zero-second
        rate from them.  ``None`` means this process ran the job.
        """
        self.cache.put(spec, metrics)
        results[spec.key] = metrics
        if disposition is None:
            disposition = ("off" if isinstance(self.cache, NullCache)
                           else "miss")
        self.ledger.record(spec, cache=disposition, wall_s=wall_s,
                           worker=worker, status=status, metrics=metrics,
                           retries=retries)
        self.progress.update(len(results), len(unique), spec, cached)

    def _retry_in_parent(self, spec, error):
        """One in-process retry after a worker crash/timeout."""
        from ..harness.runner import run_spec
        start = time.perf_counter()
        try:
            metrics = run_spec(spec)
        except Exception as retry_error:
            self.ledger.record(spec, cache="miss", worker="parent",
                               wall_s=time.perf_counter() - start,
                               status="failed", error=repr(retry_error),
                               retries=1)
            raise JobError(
                f"job {spec.label}/{spec.technique} failed twice: "
                f"{error!r}, then {retry_error!r}") from retry_error
        return metrics, time.perf_counter() - start

    def _give_up(self, spec, error, attempts, unique, results, cached, *,
                 stage="parent"):
        """A job exhausted every retry.  Raise or report, per policy.

        The ledger already carries the final ``status="failed"`` record
        (written by :meth:`_retry_in_parent`); this only decides whether
        the sweep dies or degrades to a partial result.
        """
        if self.on_failure == "raise":
            raise error
        self.failure_report.add(spec, error, attempts, stage)
        results[spec.key] = None
        self.progress.update(len(results), len(unique), spec, cached)

    def _run_serial(self, pending, unique, results, cached):
        from ..harness.runner import run_spec
        for spec in pending:
            start = time.perf_counter()
            try:
                metrics = run_spec(spec)
                status = "ok"
                retries = 0
            except Exception as error:
                try:
                    metrics, _ = self._retry_in_parent(spec, error)
                except JobError as failure:
                    self._give_up(spec, failure, 2, unique, results, cached)
                    continue
                status = "retried"
                retries = 1
            self._finish_job(spec, metrics, unique, results, cached,
                             wall_s=time.perf_counter() - start,
                             worker="parent", status=status, retries=retries)

    def _run_pool(self, pending, unique, results, cached):
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(spec, pool.submit(_execute_payload, spec.to_dict()))
                       for spec in pending]
            # Collect in submission order: per-future result(timeout) keeps
            # the per-job timeout simple while the pool runs everything
            # concurrently behind it.
            from ..harness.metrics import Metrics
            for spec, future in futures:
                try:
                    payload = future.result(timeout=self.timeout)
                    metrics = Metrics.from_dict(payload["metrics"])
                    self._finish_job(spec, metrics, unique, results, cached,
                                     wall_s=payload["wall_s"],
                                     worker=payload["worker"], status="ok")
                except Exception as error:
                    # Worker crash (BrokenProcessPool), timeout, or an
                    # exception raised inside the job: one retry, in the
                    # parent so a poisoned pool can't eat it too.
                    future.cancel()
                    try:
                        metrics, wall_s = self._retry_in_parent(spec, error)
                    except JobError as failure:
                        self._give_up(spec, failure, 2, unique, results,
                                      cached)
                        continue
                    self._finish_job(spec, metrics, unique, results, cached,
                                     wall_s=wall_s, worker="parent",
                                     status="retried", retries=1)
