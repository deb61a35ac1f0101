"""Ledger-learned per-spec wall-time model for sweep scheduling.

Historical run-ledger records carry the wall time, workload, technique,
graph parameter, config digest and instruction budget of every executed
job.  The model learns a *seconds-per-instruction rate* at four levels
of specificity::

    (workload, graph, technique, config_digest)   exact configuration
    (workload, graph, technique)                  same point, any config
    (technique,)                   same engine, different workload/input
    ()                             global mean over everything observed

and predicts ``rate * max_instructions`` for a new spec using the most
specific level with data.  The digest level matters for uarch-parameter
sweeps: a 192-entry-ROB dvr run and a 512-entry one share a (workload,
graph, technique) point but not a wall-time rate.  Rates (rather than
raw wall times) transfer across instruction budgets, so a smoke-scale
ledger still orders a full-scale sweep sensibly.  With no history at
all every spec gets the same default cost and scheduling degrades to
the enumeration order.

Fitted rates can be persisted to a JSON sidecar (:meth:`CostModel.save`
/ :meth:`CostModel.load`, normally ``costmodel.json`` next to the run
ledger) so a fresh coordinator or serve daemon starts warm instead of
re-reading -- or, after a ledger prune, losing -- the whole history.
"""

from __future__ import annotations

import json
import os


class CostModel:
    """Predicts wall-clock seconds for a :class:`JobSpec`."""

    #: Cost assigned when no ledger history matches at any level.
    DEFAULT_COST = 1.0

    #: Sidecar file format version.
    SIDECAR_VERSION = 1

    def __init__(self):
        self._sums = {}              # feature key -> summed rate
        self._counts = {}            # feature key -> observation count

    def __len__(self):
        """Number of distinct exact (workload, graph, technique) points."""
        return sum(1 for key in self._counts if len(key) == 3)

    # ------------------------------------------------------------------
    @staticmethod
    def _keys(workload, graph, technique, digest=None):
        keys = ((workload, graph, technique), (technique,), ())
        if digest is not None:
            return ((workload, graph, technique, digest),) + keys
        return keys

    def observe(self, workload, graph, technique, rate, digest=None):
        """Fold one seconds-per-instruction observation into the model."""
        for key in self._keys(workload, graph, technique, digest):
            self._sums[key] = self._sums.get(key, 0.0) + rate
            self._counts[key] = self._counts.get(key, 0) + 1

    @classmethod
    def from_records(cls, records):
        """Build a model from run-ledger record dicts.

        Only executed records count -- cache hits measure lookup time,
        not simulation time -- and records from ledgers predating the
        ``max_instructions`` field are skipped.
        """
        model = cls()
        for record in records:
            if record.get("cache") not in ("miss", "off"):
                continue
            if record.get("status") == "failed":
                continue
            wall_s = record.get("wall_s")
            instructions = record.get("max_instructions")
            if not wall_s or not instructions:
                continue
            params = record.get("params") or {}
            model.observe(record.get("workload"), params.get("graph"),
                          record.get("technique"), wall_s / instructions,
                          digest=record.get("config_digest"))
        return model

    def fold_records(self, records):
        """Fold more ledger records into this (possibly loaded) model."""
        extra = type(self).from_records(records)
        for key, total in extra._sums.items():
            self._sums[key] = self._sums.get(key, 0.0) + total
            self._counts[key] = self._counts.get(key, 0) \
                + extra._counts[key]
        return self

    @classmethod
    def from_ledger(cls, path):
        from ..jobs.ledger import RunLedger
        return cls.from_records(RunLedger.read(path))

    # ------------------------------------------------------------------
    def predict(self, spec):
        """Expected wall seconds for ``spec`` (most specific level wins)."""
        instructions = getattr(spec.config, "max_instructions", 0) or 0
        for key in self._keys(spec.workload, spec.params.get("graph"),
                              spec.technique, spec.config_digest):
            count = self._counts.get(key)
            if count:
                return (self._sums[key] / count) * instructions
        return self.DEFAULT_COST

    # ------------------------------------------------------------------
    # Sidecar persistence
    # ------------------------------------------------------------------
    def save(self, path, ledger_path=None, ledger_rows=0):
        """Write fitted rates to a JSON sidecar (atomically).

        ``ledger_path``/``ledger_rows`` record how much of which run
        ledger is already folded in, so the next load can fold only the
        ledger's new suffix instead of double-counting history.
        """
        payload = {
            "version": self.SIDECAR_VERSION,
            "ledger": {"path": ledger_path, "rows": int(ledger_rows)},
            "rates": [[list(key), self._sums[key], self._counts[key]]
                      for key in sorted(self._sums)],
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path):
        """Read a sidecar -> ``(model, ledger_state)``.

        A missing, corrupt or future-versioned sidecar yields
        ``(None, None)`` -- the caller refits from the ledger; the model
        is a scheduling hint, never worth failing a sweep over.
        """
        try:
            with open(path) as handle:
                payload = json.load(handle)
            if payload.get("version") != cls.SIDECAR_VERSION:
                return None, None
            model = cls()
            for key, total, count in payload["rates"]:
                model._sums[tuple(key)] = float(total)
                model._counts[tuple(key)] = int(count)
            state = payload.get("ledger") or {}
            return model, {"path": state.get("path"),
                           "rows": int(state.get("rows") or 0)}
        except (OSError, ValueError, TypeError, KeyError):
            return None, None
