"""Output check: every simulated or cache-served result of a run.

Each operation's ``Metrics`` is digested as ``jobs.cache.metrics_checksum``
does (sha256 over the canonical metrics dict) and each rendered table as
sha256 of its text.  For a seed with pinned goldens (``golden.json``)
every digest must equal the pinned one.  For any other seed, every pass
of the run must produce the same digests.  Either way each ``Metrics``
must satisfy the invariants below.  A mismatch, a missing result, or a
pass that crashed or timed out counts its operations as failed.
"""

from __future__ import annotations

import hashlib
import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")
#: Hex digits of each digest kept in ``golden.json``.
DIGEST_CHARS = 16


def metrics_digest(metrics):
    from repro.jobs.cache import metrics_checksum
    return metrics_checksum(metrics.to_dict())[:DIGEST_CHARS]


def table_digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_CHARS]


def invariant_errors(metrics, max_instructions):
    """Names of the invariants a finished simulation's Metrics break."""
    errors = []
    if not 0 < metrics.committed < max_instructions + 16:
        errors.append("committed outside the instruction budget")
    if metrics.cycles <= 0:
        errors.append("no cycles")
    elif metrics.ipc != metrics.committed / metrics.cycles:
        errors.append("ipc != committed / cycles")
    elif metrics.committed:
        stacked = sum(metrics.cpi_stack.values()) * metrics.committed
        if abs(stacked - metrics.cycles) > 1e-9 * metrics.cycles:
            errors.append("CPI stack does not add up to the cycles")
    return errors


def op_records(captured, dag_names):
    """One record per operation from the ``(specs, metrics)`` pairs the
    DAG runs returned, in run order."""
    records = []
    for dag_name, (specs, results) in zip(dag_names, captured):
        for spec, metrics in zip(specs, results):
            if metrics is None:
                records.append({"dag": dag_name, "key": spec.key,
                                "digest": None, "errors": ["no result"]})
                continue
            records.append({
                "dag": dag_name, "key": spec.key,
                "digest": metrics_digest(metrics),
                "committed": metrics.committed,
                "errors": invariant_errors(metrics,
                                           spec.config.max_instructions),
            })
    return records


def load_goldens(workload, seed, path=GOLDEN_PATH):
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def check_passes(passes, golden):
    """Check every pass of one run.

    ``passes`` holds each pass's result dict (``ops``, ``tables``), or
    for a pass that crashed or timed out ``{"error", "planned_ops"}``.
    An operation the goldens (or an earlier pass) have and a pass lacks
    counts as attempted and failed.  Returns ``(attempted, failed,
    problems)``.
    """
    reference_ops = dict(golden["sims"]) if golden else {}
    reference_tables = dict(golden["tables"]) if golden else {}
    attempted = failed = 0
    problems = []
    for index, result in enumerate(passes):
        if result.get("error"):
            attempted += result["planned_ops"]
            failed += result["planned_ops"]
            problems.append(f"pass {index}: {result['error']}")
            continue
        expected_ops = set(reference_ops)
        missing_tables = set(reference_tables) - set(result["tables"])
        bad_dags = set(missing_tables)
        for dag_name in sorted(missing_tables):
            problems.append(f"pass {index}: table {dag_name} missing")
        for dag_name, digest in result["tables"].items():
            if golden and dag_name not in reference_tables:
                bad_dags.add(dag_name)
                problems.append(f"pass {index}: no golden digest for table "
                                f"{dag_name}")
                continue
            expected = reference_tables.setdefault(dag_name, digest)
            if digest != expected:
                bad_dags.add(dag_name)
                problems.append(f"pass {index}: table {dag_name} digest "
                                f"{digest} != {expected}")
        for op in result["ops"]:
            attempted += 1
            error = None
            if op["errors"]:
                error = "; ".join(op["errors"])
            elif golden and op["key"] not in reference_ops:
                error = "no golden digest for this simulation"
            elif op["digest"] != reference_ops.setdefault(op["key"],
                                                          op["digest"]):
                error = (f"digest {op['digest']} != "
                         f"{reference_ops[op['key']]}")
            elif op["dag"] in bad_dags:
                error = f"table {op['dag']} mismatch"
            if error:
                failed += 1
                problems.append(f"pass {index}: {op['dag']} "
                                f"{op['key'][:8]}: {error}")
        missing = expected_ops - {op["key"] for op in result["ops"]}
        attempted += len(missing)
        failed += len(missing)
        for key in sorted(missing):
            problems.append(f"pass {index}: simulation {key[:8]} missing")
    return attempted, failed, problems


def golden_entry(passes):
    """The golden record of a clean run: every op and table digest."""
    sims, tables = {}, {}
    for result in passes:
        for op in result["ops"]:
            sims[op["key"]] = op["digest"]
        tables.update(result["tables"])
    return {"sims": dict(sorted(sims.items())),
            "tables": dict(sorted(tables.items()))}


def pin(workload, seed, entry, path=GOLDEN_PATH):
    """Write ``entry`` as the golden of (workload, seed)."""
    data = {}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    data.setdefault(workload, {})[str(seed)] = entry
    data[workload] = dict(sorted(data[workload].items(),
                                 key=lambda item: int(item[0])))
    with open(path, "w") as handle:
        json.dump(dict(sorted(data.items())), handle, indent=1)
        handle.write("\n")
