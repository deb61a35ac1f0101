"""Host-time probes installed on the ``repro`` package from outside.

Two levels, both installed by passrun.py:

- Every pass: a GC probe on ``gc.callbacks`` (:class:`Tracer`).
  Untraced passes add a per-job probe around ``harness.runner.run_spec``
  (GC pauses and peak RSS of whichever process ran the job) and an
  observed process pool that records when each pool job's result
  reached the parent.  These cost a few calls per job.
- Traced passes: spans around the calls into every layer
  (:func:`install_spans`), and per-call counters on the memory
  hierarchy, the runahead engine and the branch predictor of each
  built core.

A span's self time is its duration minus the time its child spans (GC
pauses included) cover, so the self times of all spans inside the
measured window plus the window's own uncovered time add up to the
window exactly.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import time
from concurrent.futures import ProcessPoolExecutor

perf = time.perf_counter

#: Layers, in report order.  ``other`` is time inside the measured
#: window that no span covers.
LAYERS = ("workloads", "harness", "uarch", "memsys", "branch", "core",
          "runahead", "jobs", "specs", "gc", "other")

_HIERARCHY_METHODS = ("demand_load", "demand_store", "runahead_load",
                      "prefetch", "oracle_load", "tick")
_ENGINE_METHODS = ("tick", "on_dispatch", "on_rob_stall")
_PREDICTOR_METHODS = ("predict", "update")


def rss_mb():
    """Current resident set size of this process, in MB."""
    with open("/proc/self/statm") as handle:
        resident = int(handle.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def peak_rss_mb():
    """Peak RSS of this process and of its largest waited-for child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, children


class Tracer:
    """Span stack, per-name counters and the GC probe of one process.

    ``stack`` holds one child-time accumulator per open span; slot 0 is
    the measured window itself.  Counters are ``[calls, total_s,
    self_s]`` lists that the wrappers update in place; :meth:`flush_sim`
    moves them into a per-simulation record so memory stays bounded.
    """

    def __init__(self, spans=False):
        self.spans_on = spans
        self.stack = [0.0]
        self.counters = {}
        self.totals = {}
        self.per_sim = {}
        self.spans = []
        self.current = 0              # id of the innermost open span
        self.trace = None             # JobSpec of the running job
        self._next_id = 1
        self._gc_start = None
        self.gc = {"pause_s": 0.0, "collections": 0, "gen2": 0}
        self.sim = {"committed": 0, "cycles": 0, "ff_cycles": 0}
        self.image_mb = []
        self.csr_builds = 0
        self._building = False

    # -- GC ------------------------------------------------------------
    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf()
            return
        if self._gc_start is None:
            return
        start, self._gc_start = self._gc_start, None
        end = perf()
        elapsed = end - start
        self.stack[-1] += elapsed
        gc_stats = self.gc
        gc_stats["pause_s"] += elapsed
        gc_stats["collections"] += 1
        if info.get("generation") == 2:
            gc_stats["gen2"] += 1
        if self.spans_on:
            self._span(f"gc.gen{info.get('generation')}", start, end,
                       self.current)

    def install_gc(self):
        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)
        return self

    # -- window --------------------------------------------------------
    def open_window(self):
        """Zero every counter: what follows is the measured window."""
        self.stack[:] = [0.0]
        for counter in self.counters.values():
            counter[:] = [0, 0.0, 0.0]
        self.totals.clear()
        self.per_sim.clear()
        self.spans.clear()
        self.gc.update(pause_s=0.0, collections=0, gen2=0)
        self.sim.update(committed=0, cycles=0, ff_cycles=0)
        self.image_mb.clear()
        self.csr_builds = 0

    # -- spans ---------------------------------------------------------
    def _span(self, name, start, end, parent):
        span_id = self._next_id
        self._next_id += 1
        self.spans.append((span_id, name, start, end, parent, self.trace))
        return span_id

    def _counter(self, name):
        return self.counters.setdefault(name, [0, 0.0, 0.0])

    def fine(self, name, fn):
        """Counting wrapper for calls made once per cycle or access."""
        counter = self._counter(name)
        stack = self.stack

        def timed(*args, **kwargs):
            start = perf()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                stack[-1] += elapsed
                counter[0] += 1
                counter[1] += elapsed
                counter[2] += elapsed - child

        return timed

    def coarse(self, name, fn, trace_of=None, after=None):
        """Span-recording wrapper for calls made a few times per job.

        ``trace_of(args)`` names the job the span belongs to;
        ``after(args, result)`` runs once the span has closed.
        """
        counter = self._counter(name)
        stack = self.stack
        tracer = self

        def spanned(*args, **kwargs):
            parent, outer_trace = tracer.current, tracer.trace
            if trace_of is not None:
                tracer.trace = trace_of(args)
            span_id = tracer._next_id
            tracer._next_id += 1
            tracer.current = span_id
            start = perf()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                child = stack.pop()
                stack[-1] += elapsed
                counter[0] += 1
                counter[1] += elapsed
                counter[2] += elapsed - child
                if tracer.spans_on:
                    tracer.spans.append((span_id, name, start, end, parent,
                                         tracer.trace))
                tracer.current = parent
                tracer.trace = outer_trace
            if after is not None:
                after(args, result)
            return result

        return spanned

    def flush_sim(self, key):
        """Move the live counters into the record of simulation ``key``."""
        record = {}
        for name, counter in self.counters.items():
            if counter[0]:
                record[name] = list(counter)
                total = self.totals.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    total[i] += counter[i]
                counter[:] = [0, 0.0, 0.0]
        if key is not None and record:
            self.per_sim[key] = record
        return record

    # -- results -------------------------------------------------------
    def layer_self_s(self, window_s):
        """Self time per layer over the window; ``other`` closes the sum."""
        self.flush_sim(None)
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, (_calls, _total, self_s) in self.totals.items():
            layers[name.split(".", 1)[0]] += self_s
        layers["gc"] = self.gc["pause_s"]
        layers["other"] = window_s - self.stack[0]
        return layers

    def write_spans(self, path):
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, trace in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start,
                     "end": end, "parent": parent,
                     "trace": getattr(trace, "key", trace)}) + "\n")
            for key, record in self.per_sim.items():
                handle.write(json.dumps({"sim": key, "calls": record}) + "\n")


def sum_counters(counters, prefix):
    """``(calls, total_s)`` over the counters whose name starts with
    ``prefix``."""
    calls = total = 0
    for name, (count, seconds, _self_s) in counters.items():
        if name.startswith(prefix):
            calls += count
            total += seconds
    return calls, total


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------
def _spec_arg(index):
    """Trace id of a call: its JobSpec argument, keyed only when spans
    are written, so tracing does not pay for hashing specs."""
    return lambda args: args[index]


def _patch(owner, attribute, wrapper_for):
    setattr(owner, attribute, wrapper_for(getattr(owner, attribute)))


def install_job_probe(tracer, jobs_path):
    """Per-job GC/RSS record around ``run_spec``, in whichever process
    runs the job (pool workers inherit it through fork)."""
    from repro.harness import runner

    original = runner.run_spec

    def run_spec(spec):
        gc_stats = tracer.gc
        pause, collections = gc_stats["pause_s"], gc_stats["collections"]
        gen2 = gc_stats["gen2"]
        start = perf()
        metrics = original(spec)
        end = perf()
        record = {"key": spec.key, "pid": os.getpid(), "start": start,
                  "end": end,
                  "gc_pause_s": gc_stats["pause_s"] - pause,
                  "gc_collections": gc_stats["collections"] - collections,
                  "gc_gen2": gc_stats["gen2"] - gen2,
                  "maxrss_mb": peak_rss_mb()[0]}
        with open(jobs_path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        return metrics

    runner.run_spec = run_spec


class PoolObserver:
    """Records, per pool job, when the parent saw its result arrive."""

    def __init__(self):
        self.jobs = []

    def install(self):
        from repro.jobs import executor
        observer = self

        class ObservedPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted = perf()
                future = super().submit(fn, *args, **kwargs)
                future.add_done_callback(
                    lambda done: observer._done(submitted, done))
                return future

        executor.ProcessPoolExecutor = ObservedPool
        return self

    def _done(self, submitted, future):
        arrived = perf()
        if future.cancelled() or future.exception() is not None:
            return
        payload = future.result()
        self.jobs.append({"submitted": submitted, "arrived": arrived,
                          "wall_s": payload["wall_s"],
                          "worker": payload["worker"]})


def install_spans(tracer):
    """Wrap the calls into every layer (traced passes only)."""
    from repro.harness import runner
    from repro.jobs import cache, executor, ledger
    from repro.specs import artifacts, dag, registry
    from repro.uarch.core import OoOCore
    from repro.workloads import ALL_WORKLOADS, gap, graphs

    coarse = tracer.coarse

    # specs: DAG run, analyses, artifact store
    _patch(dag.DagRunner, "run", lambda fn: coarse("specs.dag_run", fn))
    for name in list(registry.ANALYSES):
        registry.ANALYSES[name] = coarse(f"specs.analysis.{name}",
                                         registry.ANALYSES[name])
    _patch(artifacts.ArtifactStore, "get",
           lambda fn: coarse("specs.artifact_get", fn))
    _patch(artifacts.ArtifactStore, "put",
           lambda fn: coarse("specs.artifact_put", fn))

    # jobs: executor, result cache, ledger
    _patch(executor.Executor, "run", lambda fn: coarse("jobs.executor", fn))
    for cls in (cache.ResultCache, cache.NullCache):
        _patch(cls, "get", lambda fn: coarse("jobs.cache_get", fn,
                                             trace_of=_spec_arg(1)))
        _patch(cls, "put", lambda fn: coarse("jobs.cache_put", fn,
                                             trace_of=_spec_arg(1)))
    _patch(ledger.RunLedger, "record",
           lambda fn: coarse("jobs.ledger", fn, trace_of=_spec_arg(1)))
    _patch(ledger.RunLedger, "record_meta",
           lambda fn: coarse("jobs.ledger_meta", fn))

    # harness: the job entry point, core construction, metrics
    def after_run_spec(args, _result):
        tracer.flush_sim(args[0].key)

    _patch(runner, "run_spec",
           lambda fn: coarse("harness.run_spec", fn, trace_of=_spec_arg(0),
                             after=after_run_spec))
    _patch(runner, "build_sim", lambda fn: coarse("harness.build_sim", fn))
    _patch(runner, "collect_metrics",
           lambda fn: coarse("harness.collect", fn))

    # workloads: CSR construction and the workload builds
    def csr_wrapper(fn):
        spanned = coarse("workloads.csr", fn)

        def build_csr(spec, seed=12345):
            before = len(graphs._csr_cache)
            result = spanned(spec, seed=seed)
            tracer.csr_builds += len(graphs._csr_cache) - before
            return result

        return build_csr

    _patch(gap, "build_csr", csr_wrapper)
    _patch(graphs, "build_csr", csr_wrapper)

    def build_wrapper(fn):
        spanned = coarse("workloads.build", fn)

        def build(*args, **kwargs):
            if tracer._building:          # Graph500.build -> Bfs.build
                return fn(*args, **kwargs)
            tracer._building = True
            before = rss_mb()
            try:
                return spanned(*args, **kwargs)
            finally:
                tracer._building = False
                tracer.image_mb.append(rss_mb() - before)

        return build

    for cls in dict.fromkeys(ALL_WORKLOADS.values()):
        if "build" in vars(cls):
            _patch(cls, "build", build_wrapper)

    # uarch: the cycle loop, with per-call counters on the parts it drives
    def run_wrapper(fn):
        spanned = coarse("uarch.run", fn)

        def run(core, *args, **kwargs):
            wrap_core(tracer, core)
            result = spanned(core, *args, **kwargs)
            stats = core.stats
            tracer.sim["committed"] += stats.committed
            tracer.sim["cycles"] += stats.cycles
            tracer.sim["ff_cycles"] += stats.fast_forward_cycles
            return result

        return run

    _patch(OoOCore, "run", run_wrapper)


def engine_layer(engine):
    """``core`` for the DVR engine, ``runahead`` for PRE/VR/Oracle, None
    for the no-op engine of the baseline core."""
    module = type(engine).__module__
    if module.startswith("repro.core"):
        return "core"
    if module.startswith("repro.runahead"):
        return "runahead"
    return None


def wrap_core(tracer, core):
    """Counting wrappers on one built core's hierarchy, engine, predictor."""
    hierarchy = core.hierarchy
    for method in _HIERARCHY_METHODS:
        setattr(hierarchy, method,
                tracer.fine(f"memsys.{method}", getattr(hierarchy, method)))
    layer = engine_layer(core.engine)
    if layer is not None:
        for method in _ENGINE_METHODS:
            setattr(core.engine, method,
                    tracer.fine(f"{layer}.{method}",
                                getattr(core.engine, method)))
    predictor = core.predictor
    for method in _PREDICTOR_METHODS:
        setattr(predictor, method,
                tracer.fine(f"branch.{method}", getattr(predictor, method)))


def install_run_specs_capture(captured):
    """Keep every (JobSpec, Metrics) pair a DAG run gets back, so the
    output check can digest them after the timed window closes."""
    from repro.specs import dag

    original = dag.run_specs

    def run_specs(specs, context=None):
        results = original(specs, context=context)
        captured.append((list(specs), results))
        return results

    dag.run_specs = run_specs
