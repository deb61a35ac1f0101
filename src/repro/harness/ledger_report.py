"""Render sweep summaries straight from run-ledger records.

``repro report --from-ledger PATH`` answers "how far along is my sweep,
and what do the finished points look like?" without waiting for the
sweep to complete: every executed or cache-served job already has a
ledger record carrying its headline metrics, so whatever subset exists
can be tabulated mid-flight -- including while a cluster coordinator is
still dispatching on another host, as long as the ledger file is
visible.

The summary is computed from the *latest* record per spec key (a job
that was retried or re-served from cache appears once), with a
speedup-vs-OoO column whenever the matching baseline point has also
finished.

Spec-DAG runs (``repro env run``) additionally leave a ``dag`` meta row
listing the sim keys they dispatch; the report joins those against the
job records, so each DAG shows up with its spec name, file hash,
concretizer version and completion count ("which sweep do these 180
jobs belong to?").
"""

from __future__ import annotations

from ..jobs.ledger import RunLedger
from .report import format_table, hmean

_TECH_BASELINE = "ooo"


def summarize_ledger(path, cache=None):
    """Structured summary of a (possibly in-flight) sweep ledger.

    Returns a dict with ``points`` (one entry per completed spec key,
    sorted by label then technique), ``failed`` (keys whose latest
    record is a failure), and ``totals``.  ``cache`` (a ``ResultCache``
    or a tiered ``CacheStack``) adds a count of how many points are
    present in the current cache generation.
    """
    records = RunLedger.read(path)
    latest = {}
    for record in records:
        key = record.get("key")
        if key:
            latest[key] = record

    # Spec-DAG provenance: latest "dag" meta row per dag_hash, joined
    # against the job records it claims via sim_keys.
    dag_rows = {}
    for record in records:
        if record.get("meta") == "dag":
            dag_rows[record.get("dag_hash") or record.get("spec")] = record
    dags = []
    for record in dag_rows.values():
        sim_keys = record.get("sim_keys") or []
        completed = sum(1 for key in sim_keys
                        if key in latest and "ipc" in latest[key])
        dags.append({
            "spec": record.get("spec", "?"),
            "source": record.get("spec_source", ""),
            "spec_sha256": record.get("spec_sha256", ""),
            "dag_hash": record.get("dag_hash", ""),
            "concretizer_version": record.get("concretizer_version"),
            "nodes": record.get("nodes"),
            "sim_nodes": record.get("sim_nodes",
                                    len(sim_keys) or None),
            "analysis_nodes": record.get("analysis_nodes"),
            "completed": completed,
        })
    dags.sort(key=lambda d: (d["spec"], d["dag_hash"]))

    points = []
    failed = []
    for key, record in latest.items():
        if "ipc" in record:
            points.append(record)
        else:
            failed.append(record)
    points.sort(key=lambda r: (str(r.get("label", "")),
                               str(r.get("technique", "")),
                               str(r.get("key", ""))))
    failed.sort(key=lambda r: str(r.get("key", "")))

    # Baseline IPC per label, for the speedup column.
    baseline_ipc = {record["label"]: record["ipc"] for record in points
                    if record.get("technique") == _TECH_BASELINE}
    for record in points:
        base = baseline_ipc.get(record.get("label"))
        if base:
            record["_speedup"] = record["ipc"] / base

    workers = sorted({str(record.get("worker")) for record in records
                      if record.get("worker") is not None})
    cached_now = None
    if cache is not None:
        cached_now = sum(1 for record in points
                         if cache.contains(record["key"]))
    totals = {
        "records": len(records),
        "points": len(points),
        "failed": len(failed),
        "hits": sum(1 for r in records if r.get("cache") == "hit"),
        "executed": sum(1 for r in records
                        if r.get("cache") in ("miss", "off")),
        "retries": sum(r.get("retries") or 0 for r in records),
        "wall_s": sum(r.get("wall_s") or 0.0 for r in records),
        "workers": workers,
        "cached_now": cached_now,
    }
    return {"path": path, "points": points, "failed": failed,
            "totals": totals, "dags": dags}


def render_ledger_report(summary):
    """ASCII tables for :func:`summarize_ledger`'s output."""
    points = summary["points"]
    totals = summary["totals"]
    rows = []
    speedups = []
    for record in points:
        speedup = record.get("_speedup")
        if speedup is not None and record.get("technique") != _TECH_BASELINE:
            speedups.append(speedup)
        rows.append([
            record.get("label", "?"),
            record.get("technique", "?"),
            record.get("ipc", 0.0),
            f"{speedup:.2f}" if speedup is not None else "-",
            record.get("cycles", 0),
            record.get("mpki", 0.0),
            record.get("cache", "?"),
            str(record.get("worker", "?")),
            record.get("retries") or 0,
        ])
    lines = [format_table(
        ["benchmark", "technique", "IPC", "vs ooo", "cycles", "MPKI",
         "cache", "worker", "retries"],
        rows, title=f"Sweep progress from {summary['path']}")]
    if speedups:
        lines.append(f"h-mean speedup over {_TECH_BASELINE} "
                     f"(completed non-baseline points): "
                     f"{hmean(speedups):.2f}x")
    if summary["failed"]:
        lines.append(f"{len(summary['failed'])} point(s) currently failed: "
                     + ", ".join(
                         f"{r.get('label', '?')}/{r.get('technique', '?')}"
                         for r in summary["failed"]))
    cached_now = totals["cached_now"]
    cached_text = ("" if cached_now is None
                   else f", {cached_now} in current cache generation")
    lines.append(
        f"{totals['points']} completed point(s) from {totals['records']} "
        f"record(s): {totals['executed']} executed, {totals['hits']} cache "
        f"hit(s), {totals['retries']} retry(ies), "
        f"{totals['wall_s']:.2f}s total wall{cached_text}")
    if totals["workers"]:
        lines.append("workers: " + ", ".join(totals["workers"]))
    for dag in summary.get("dags", []):
        sims = dag["sim_nodes"]
        done = dag["completed"]
        progress = (f"{done}/{sims} sim(s) completed" if sims
                    else f"{done} sim(s) completed")
        lines.append(
            f"dag {dag['spec']} (spec {dag['spec_sha256'][:12] or '-'}, "
            f"concretizer v{dag['concretizer_version']}, hash "
            f"{dag['dag_hash'][:12] or '-'}): {progress}, "
            f"{dag['analysis_nodes'] or 0} analysis node(s)")
    return "\n".join(lines)
