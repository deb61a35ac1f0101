"""Dispatch-order policy: longest-expected-job-first.

Sweep tail latency is dominated by whichever long job starts last; with
per-job costs known (even approximately), dispatching the longest
expected jobs first is the classic LPT heuristic and keeps every backend
busy until the end.  The local process pool reorders its submission
queue by it, the remote executor submits its sweep in this order, and
the serve daemon sorts each submitted sweep with its own ledger's model.
"""

from __future__ import annotations

import os


def longest_first(specs, cost_model):
    """``specs`` reordered longest-expected-first.

    The sort is stable with the original position as tie-break, so specs
    the model can't tell apart (including the no-history case, where all
    costs are the default) keep their enumeration order and scheduling
    stays deterministic.
    """
    if cost_model is None or not len(cost_model):
        return list(specs)
    indexed = list(enumerate(specs))
    indexed.sort(key=lambda pair: (-cost_model.predict(pair[1]), pair[0]))
    return [spec for _position, spec in indexed]


def cost_model_for(ledger):
    """A :class:`CostModel` learned from an executor's ledger, if any.

    The fitted rates are persisted to a ``costmodel.json`` sidecar next
    to the ledger, and a fresh fit starts from that sidecar -- so a new
    coordinator or daemon process (or one whose ledger was pruned)
    starts warm.  The sidecar records how many ledger rows it has
    folded; only the ledger's new suffix is folded on top, never the
    already-counted history.  ``NullLedger`` (no path) with no sidecar
    yields ``None``: scheduling falls back to enumeration order.
    """
    from ..jobs.ledger import RunLedger
    from .costmodel import CostModel
    path = getattr(ledger, "path", None)
    if not path:
        return None
    sidecar = os.path.join(os.path.dirname(path) or ".", "costmodel.json")
    model, seen = CostModel.load(sidecar)
    records = RunLedger.read(path) if os.path.exists(path) else []
    if model is None:
        if not records:
            return None
        model = CostModel.from_records(records)
    else:
        folded = (seen["rows"] if seen and seen.get("path") == path
                  and seen["rows"] <= len(records) else 0)
        model.fold_records(records[folded:])
    try:
        model.save(sidecar, ledger_path=path, ledger_rows=len(records))
    except OSError:
        pass                         # read-only cache dir: hint only
    return model
