"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this once per pass; it is not meant to be run by hand::

    python3 perfbench/passrun.py --workload NAME --seed N --dir DIR
        [--mode pass|probe|fill] [--trace] [--workers N] [--warm DIR]

``probe`` stops after set-up (imports, execution context, spec load and
concretization); ``pass`` then runs every DAG of the workload; ``fill``
runs them into the warm cache that specs-warm reads.  The result goes to
``DIR/result.json``.  Times are ``time.perf_counter()`` readings, which
on Linux share one monotonic clock across processes, so run.py can
subtract its own launch time.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if sys.path[0] == HERE:          # run as a script: import the package
    sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

from perfbench import probes  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--mode", choices=("pass", "probe", "fill"),
                        default="pass")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--warm", default=None)
    return parser.parse_args(argv)


def make_context(workload, args):
    from repro.jobs.context import ExecutionContext

    workers = args.workers or workload.workers
    cache_dir = os.path.join(args.dir, "cache")
    ledger_path = os.path.join(args.dir, "runs.jsonl")
    no_cache = False
    if args.mode == "fill":
        workers, cache_dir = 2, args.warm
    elif workload.cache == "warm":
        cache_dir = args.warm
    elif workload.cache == "none":
        no_cache = True
    return ExecutionContext(jobs=workers, cache_dir=cache_dir,
                            no_cache=no_cache, ledger_path=ledger_path,
                            store="", on_failure="report")


def fill(dags, context):
    """Simulate every sim node once (one pool batch), then publish the
    analyses, so later passes find every result and artifact cached."""
    from repro.jobs.context import run_specs
    from repro.specs.dag import DagRunner

    jobs = {}
    for dag in dags:
        for node in dag.sim_nodes.values():
            jobs.setdefault(node.job.key, node.job)
    run_specs(list(jobs.values()), context=context)
    for dag in dags:
        DagRunner(dag, context=context).run()


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(args.dir, exist_ok=True)
    os.environ["REPRO_PROGRESS"] = "0"
    tracer = probes.Tracer(spans=args.trace).install_gc()

    from repro.jobs.ledger import RunLedger
    from repro.specs.concretize import concretize
    from repro.specs.dag import DagRunner

    from perfbench.check import op_records, table_digest
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    captured = []
    pool = None
    if args.mode == "pass":
        probes.install_run_specs_capture(captured)
        if args.trace:
            probes.install_spans(tracer)
        else:
            probes.install_job_probe(
                tracer, os.path.join(args.dir, "jobs.jsonl"))
            pool = probes.PoolObserver().install()

    context = make_context(workload, args)
    scale = workload.scale(args.seed)
    dags = []
    concretize_s = 0.0
    for spec in workload.load_specs(ROOT):
        start = time.perf_counter()
        dags.append(concretize(spec, scale=scale))
        concretize_s += time.perf_counter() - start
    t_ready = time.perf_counter()

    result = {
        "pid": os.getpid(), "t_ready": t_ready,
        "concretize_s": concretize_s,
        "sim_nodes": sum(len(dag.sim_nodes) for dag in dags),
        "leaves": sum(dag.leaf_count for dag in dags),
    }
    if args.mode == "fill":
        fill(dags, context)
    elif args.mode == "pass":
        tracer.open_window()
        tables = {}
        artifact_hits = 0
        for dag in dags:
            dag_result = DagRunner(dag, context=context).run()
            tables[dag.name] = dag_result.render()
            artifact_hits += dag_result.stats["artifact_hits"]
        t_done = time.perf_counter()
        run_s = t_done - t_ready
        result.update(t_done=t_done, run_s=run_s,
                      artifact_hits=artifact_hits, gc=dict(tracer.gc))
        # Everything below is outside the timed window.
        result["ops"] = op_records(captured, [dag.name for dag in dags])
        result["tables"] = {name: table_digest(text)
                            for name, text in tables.items() if text}
        result["ledger"] = [
            {key: row.get(key) for key in ("key", "cache", "wall_s",
                                           "worker", "status", "retries")}
            for row in RunLedger.read(context.ledger_path)
            if "key" in row]
        if pool is not None:
            result["pool"] = pool.jobs
        jobs_path = os.path.join(args.dir, "jobs.jsonl")
        if os.path.exists(jobs_path):
            with open(jobs_path) as handle:
                result["jobs"] = [json.loads(line) for line in handle]
        if args.trace:
            result["layers"] = tracer.layer_self_s(run_s)
            result["counters"] = dict(sorted(tracer.totals.items()))
            result["sim"] = dict(tracer.sim)
            result["image_mb"] = list(tracer.image_mb)
            result["csr_builds"] = tracer.csr_builds
            tracer.write_spans(os.path.join(args.dir, "spans.jsonl"))
    context.close()
    own, children = probes.peak_rss_mb()
    result["rss"] = {"self_mb": own, "children_mb": children}
    with open(os.path.join(args.dir, "result.json"), "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
