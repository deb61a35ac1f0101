"""JSONL run ledger: one line per executed (or cache-served) job.

Every record carries the spec hash, timing, cache disposition, worker id
and headline metrics, so a sweep's full history can be replayed or audited
with nothing but ``jq``::

    {"seq": 3, "key": "9f2c...", "workload": "bfs", "params": {"graph": "KR"},
     "technique": "dvr", "cache": "hit", "wall_s": 0.002, "worker": 41782,
     "status": "ok", "ipc": 1.91, "cycles": 10483, "mpki": 18.2}
"""

from __future__ import annotations

import json
import os
import time
import warnings


def _analysis_version():
    """Rule-catalogue version stamped into every record.

    Imported lazily (and defensively) so ledger writes keep working even
    if the analysis package is unavailable in a stripped deployment.
    """
    try:
        from ..analysis import ANALYSIS_VERSION
        return ANALYSIS_VERSION
    except ImportError:  # pragma: no cover - stripped installs only
        return None


class RunLedger:
    """Append-only JSONL log of every job an executor processed."""

    def __init__(self, path):
        self.path = path
        self._seq = 0

    def record(self, spec, *, cache, wall_s, worker, status="ok",
               metrics=None, error=None, retries=0):
        entry = {
            "seq": self._seq,
            "ts": time.time(),
            "key": spec.key,
            "workload": spec.workload,
            "params": spec.params,
            "technique": spec.technique,
            "seed": spec.seed,
            "label": spec.label,
            "cache": cache,            # "hit" | "miss" | "off"
            "wall_s": round(wall_s, 6),
            # Worker identity: a pid for pool workers, "parent" for
            # in-process runs, or a "<host>-<pid>" id for cluster workers.
            "worker": worker,
            "status": status,          # "ok" | "retried" | "failed"
            # Lease/crash retries this result took (0 = first attempt).
            "retries": retries,
            # Cost-model features: the scheduler learns seconds-per-
            # instruction per (workload, graph, technique) from these.
            "config_digest": spec.config_digest,
            "max_instructions": getattr(spec.config, "max_instructions",
                                        None),
            # Analysis provenance: whether the run had the runtime
            # sanitizer enabled, and which rule catalogue vetted the
            # tree -- results from a pre-sanitizer tree stay
            # distinguishable from sanitized ones.
            "sanitize": bool(getattr(spec.config, "sanitize", False)),
            "analysis_rules": _analysis_version(),
        }
        if metrics is not None:
            entry.update(ipc=round(metrics.ipc, 6),
                         cycles=metrics.cycles,
                         committed=metrics.committed,
                         mpki=round(metrics.mpki, 6),
                         mlp=round(metrics.mlp, 6))
        if error is not None:
            entry["error"] = error
        self._seq += 1
        self._append(entry)
        return entry

    def record_meta(self, kind, **payload):
        """Append a non-job *meta* record (e.g. a chaos run's FaultPlan).

        Meta records carry ``{"meta": kind}`` and deliberately no
        ``key``/``cache``/``status`` fields, so every job-record consumer
        (cost model, ledger reports, resume) skips them structurally.
        """
        entry = {"meta": kind, "ts": time.time()}
        entry.update(payload)
        self._append(entry)
        return entry

    def _append(self, entry):
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(json.dumps(entry) + "\n")

    @staticmethod
    def completed_index(path):
        """``key -> latest completed record`` for resumable sweeps.

        A spec counts as completed when its most recent record carries
        headline metrics (``ipc``) and a non-failed status -- exactly the
        records :meth:`record` writes after a successful simulation or
        cache hit.  Later failures override earlier successes record-by-
        record, so a key that succeeded once and was never re-run stays
        completed.
        """
        completed = {}
        for record in RunLedger.read(path):
            key = record.get("key")
            if not key:
                continue                    # meta or malformed record
            if record.get("status") != "failed" and "ipc" in record:
                completed[key] = record
            else:
                completed.pop(key, None)
        return completed

    @staticmethod
    def read(path):
        """All intact records of a ledger file (missing file -> empty).

        A crash mid-append (power loss, SIGKILL) can leave a truncated
        trailing line; corrupt lines are skipped with a warning instead
        of making the whole ledger unreadable.
        """
        if not os.path.exists(path):
            return []
        records = []
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    warnings.warn(
                        f"{path}:{lineno}: skipping corrupt ledger record "
                        f"(truncated append?)", RuntimeWarning,
                        stacklevel=2)
        return records


class NullLedger:
    """Ledger stand-in when no ledger path is configured."""

    def record(self, spec, **kwargs):
        return None

    def record_meta(self, kind, **payload):
        return None
