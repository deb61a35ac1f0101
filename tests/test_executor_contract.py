"""Backend-independent contract tests for the executor family.

``Executor`` (serial and process-pool) and ``ServeExecutor`` must be
interchangeable behind ``run(specs) -> [Metrics]``: same dedup
semantics, same cache accounting, same input-order alignment, same
one-retry story when a job crashes, and the same ``JobError`` when a job
is truly broken.  These tests run the identical assertions against all
four backends; ``cluster`` is built the way ``--backend cluster`` builds
it, through ``ExecutionContext``, and ``serve`` dials a daemon the test
started.
"""

from __future__ import annotations

import concurrent.futures
import json

import pytest

from repro.config import SimConfig, TECH_DVR, TECH_OOO
from repro.cluster import Worker
from repro.harness.runner import run_spec
from repro.jobs import (ExecutionContext, Executor, JobError, JobSpec,
                        NullCache, ResultCache, RunLedger)
from repro.serve import ServeClient, ServeDaemon, ServeExecutor

BACKENDS = ("serial", "pool", "cluster", "serve")


def _spec(workload="nas-is", technique=TECH_OOO, seed=1,
          max_instructions=1_200, **params):
    config = SimConfig(max_instructions=max_instructions
                       ).with_technique(technique)
    return JobSpec(workload=workload, params=params, config=config,
                   seed=seed)


class _Quiet:
    def update(self, done, total, spec, cached):
        pass

    def finish(self, total, cached, wall_s):
        pass


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def make_executor(backend, tmp_path):
    """Factory building an executor of the requested backend.

    ``run_job`` (cluster and serve) injects worker-side behaviour; other
    backends ignore it and run the real simulator.  ``injector``
    (a ``repro.faults.FaultInjector``) arms worker/connection fault
    sites on the cluster and serve backends; persistence-seam faults
    apply to every backend through the wrapped cache/ledger the caller
    passes in.
    """
    import threading

    from repro.faults import WorkerCrash

    contexts = []
    daemons = []
    clients = []
    stop = threading.Event()

    def factory(cache=None, ledger=None, run_job=None, workers=2,
                injector=None):
        cache = cache if cache is not None else NullCache()
        ledger_obj = ledger
        if backend == "serial":
            return Executor(jobs=1, cache=cache, ledger=ledger_obj,
                            progress=_Quiet())
        if backend == "pool":
            return Executor(jobs=2, cache=cache, ledger=ledger_obj,
                            progress=_Quiet())
        # Injected faults (dropped results, crashes) need the lease
        # timeout + heartbeat machinery to actually run, not sit out a
        # 120s timeout.
        job_timeout = 2.0 if injector is not None else 120
        if backend == "cluster":
            # The context's daemon keeps its default heartbeat, retry
            # and give-up settings; only the lease timeout is the
            # context's (its job timeout).
            context = ExecutionContext(
                backend="cluster", cache_dir=str(tmp_path / "context"),
                timeout=job_timeout, cluster={"workers": 0})
            context.cache, context.ledger = cache, ledger_obj
            contexts.append(context)
            executor = context.executor()
            executor.progress = _Quiet()
            daemon = context._daemon
        else:
            daemon = ServeDaemon(
                quiet=True, job_timeout=job_timeout,
                heartbeat_timeout=2.5 if injector is not None else 15.0,
                retry_base=0.05, retry_cap=0.2, max_attempts=8,
                worker_grace=30.0)
            daemon.start()
            daemons.append(daemon)

        def serve_loop(worker_id):
            # With faults armed, crashed/partitioned workers rejoin like
            # a supervised fleet; without, one serve() call as before.
            while not stop.is_set():
                worker = Worker(f"127.0.0.1:{daemon.port}",
                                worker_id=worker_id,
                                run_job=run_job or run_spec,
                                injector=injector, quiet=True,
                                heartbeat_interval=0.5, reconnect=0)
                try:
                    code = worker.serve()
                except WorkerCrash:
                    continue
                if injector is None or code == 2:
                    return

        for index in range(workers):
            threading.Thread(target=serve_loop, args=(f"w{index}",),
                             daemon=True).start()
        daemon.wait_for_workers(workers, timeout=10)
        if backend == "cluster":
            return executor
        client = ServeClient(f"127.0.0.1:{daemon.port}")
        client.connect()
        clients.append(client)
        return ServeExecutor(client, cache=cache, ledger=ledger_obj,
                             progress=_Quiet())

    yield factory
    stop.set()
    for client in clients:
        client.close()
    for daemon in daemons:
        daemon.close()
    for context in contexts:
        context.close()


def _dumps(metrics):
    return json.dumps(metrics.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Alignment + dedup
# ---------------------------------------------------------------------------
def test_results_align_with_input_order(make_executor):
    specs = [_spec(seed=3), _spec(workload="kangaroo", seed=1),
             _spec(technique=TECH_DVR, seed=2)]
    expected = [_dumps(run_spec(spec)) for spec in specs]
    results = make_executor().run(specs)
    assert [_dumps(metrics) for metrics in results] == expected


def test_duplicate_specs_simulated_once(make_executor, tmp_path):
    ledger = RunLedger(str(tmp_path / "runs.jsonl"))
    duplicate = _spec(seed=7)
    specs = [duplicate, _spec(seed=8), _spec(seed=7)]
    results = make_executor(ledger=ledger).run(specs)
    assert _dumps(results[0]) == _dumps(results[2])
    records = RunLedger.read(ledger.path)
    assert len(records) == 2                  # two unique keys, one run each
    assert {record["key"] for record in records} == \
        {specs[0].key, specs[1].key}


def test_duplicate_specs_dedup_survives_one_crash(make_executor, backend,
                                                  tmp_path, monkeypatch):
    """A job that crashes once still yields one result for both positions."""
    failures = {"left": 1}

    def flaky(spec):
        if failures["left"] > 0:
            failures["left"] -= 1
            raise RuntimeError("injected crash")
        return run_spec(spec)

    if backend == "pool":
        pytest.skip("cross-process injection covered by the fake-pool tests")
    if backend == "serial":
        monkeypatch.setattr("repro.harness.runner.run_spec", flaky)
    ledger = RunLedger(str(tmp_path / "runs.jsonl"))
    executor = make_executor(ledger=ledger, run_job=flaky)
    duplicate = _spec(seed=11)
    results = executor.run([duplicate, _spec(seed=11)])
    assert _dumps(results[0]) == _dumps(results[1])
    records = RunLedger.read(ledger.path)
    assert len(records) == 1
    assert records[0]["status"] == "retried"
    assert records[0]["retries"] == 1


# ---------------------------------------------------------------------------
# Cache accounting
# ---------------------------------------------------------------------------
def test_cached_vs_executed_accounting(make_executor, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    ledger = RunLedger(str(tmp_path / "runs.jsonl"))
    specs = [_spec(seed=21), _spec(seed=22)]

    first = make_executor(cache=cache, ledger=ledger).run(specs)
    records = RunLedger.read(ledger.path)
    assert [record["cache"] for record in records] == ["miss", "miss"]

    second = make_executor(cache=cache, ledger=ledger).run(
        specs + [_spec(seed=23)])
    records = RunLedger.read(ledger.path)[2:]
    assert sorted(record["cache"] for record in records) == \
        ["hit", "hit", "miss"]
    hits = [record for record in records if record["cache"] == "hit"]
    assert all(record["worker"] == "parent" for record in hits)
    assert [_dumps(metrics) for metrics in second[:2]] == \
        [_dumps(metrics) for metrics in first]


# ---------------------------------------------------------------------------
# Fault tolerance: a fixed FaultPlan must not change the answers
# ---------------------------------------------------------------------------
def test_fixed_fault_plan_yields_bit_identical_metrics(make_executor,
                                                       backend, tmp_path):
    """Every backend survives the same armed fault plan bit-identically.

    Serial/pool exercise the persistence seams (corrupt cache entries,
    torn ledger appends); cluster and serve additionally take dropped
    result frames and worker crashes.  The contract is that none of it
    changes a single output bit — faults only cost retries.
    """
    import warnings

    from repro.faults import FaultInjector, FaultPlan, FaultRule

    plan = FaultPlan(2024, [
        FaultRule("cache.corrupt", 1.0),
        FaultRule("ledger.torn", 0.5),
        FaultRule("conn.drop", 0.4),
        FaultRule("worker.crash-before-result", 0.4),
    ])
    injector = FaultInjector(plan)
    cache = injector.wrap_cache(ResultCache(str(tmp_path / "cache")))
    ledger = injector.wrap_ledger(RunLedger(str(tmp_path / "runs.jsonl")))
    specs = [_spec(seed=61), _spec(workload="kangaroo", seed=62),
             _spec(technique=TECH_DVR, seed=63)]
    expected = [_dumps(run_spec(spec)) for spec in specs]

    executor = make_executor(cache=cache, ledger=ledger, injector=injector)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        results = executor.run(specs)
    assert [_dumps(metrics) for metrics in results] == expected

    # Same plan, fresh injector: the persistence faults already fired
    # for these identities, so the schedule replays without re-firing
    # randomly — and the damaged cache degrades to a miss, not an error.
    replay = FaultInjector(plan)
    cache2 = replay.wrap_cache(ResultCache(str(tmp_path / "cache")))
    ledger2 = replay.wrap_ledger(RunLedger(str(tmp_path / "runs.jsonl")))
    executor = make_executor(cache=cache2, ledger=ledger2, injector=replay)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        again = executor.run(specs)
    assert [_dumps(metrics) for metrics in again] == expected
    assert replay.schedule()                     # faults did fire again


# ---------------------------------------------------------------------------
# Broken jobs fail the same way everywhere
# ---------------------------------------------------------------------------
def test_unrunnable_spec_raises_job_error(make_executor, backend, tmp_path):
    if backend == "pool":
        pytest.skip("pool failure paths covered by the fake-pool tests")
    ledger = RunLedger(str(tmp_path / "runs.jsonl"))
    executor = make_executor(ledger=ledger)
    with pytest.raises(JobError):
        executor.run([_spec(workload="no-such-workload")])
    records = RunLedger.read(ledger.path)
    assert records[-1]["status"] == "failed"
    assert records[-1]["worker"] == "parent"


# ---------------------------------------------------------------------------
# Pool-specific failure paths (deterministic via a fake pool)
# ---------------------------------------------------------------------------
class _FakePool:
    """ProcessPoolExecutor stand-in whose futures hang or crash."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    mode = "hang"

    def submit(self, fn, payload):
        future = concurrent.futures.Future()
        if self.mode == "crash":
            future.set_exception(
                concurrent.futures.process.BrokenProcessPool("worker died"))
        # "hang": never resolves, so result(timeout) raises TimeoutError.
        return future


@pytest.fixture
def fake_pool(monkeypatch):
    def activate(mode):
        _FakePool.mode = mode
        monkeypatch.setattr("repro.jobs.executor.ProcessPoolExecutor",
                            _FakePool)
    return activate


def test_pool_job_timeout_retries_in_parent(fake_pool, tmp_path):
    fake_pool("hang")
    ledger = RunLedger(str(tmp_path / "runs.jsonl"))
    executor = Executor(jobs=2, ledger=ledger, timeout=0.2,
                        progress=_Quiet())
    specs = [_spec(seed=31), _spec(seed=32)]
    results = executor.run(specs)
    assert [_dumps(metrics) for metrics in results] == \
        [_dumps(run_spec(spec)) for spec in specs]
    records = RunLedger.read(ledger.path)
    assert all(record["status"] == "retried" for record in records)
    assert all(record["worker"] == "parent" for record in records)
    assert all(record["retries"] == 1 for record in records)


def test_pool_worker_crash_retries_in_parent(fake_pool, tmp_path):
    fake_pool("crash")
    ledger = RunLedger(str(tmp_path / "runs.jsonl"))
    executor = Executor(jobs=2, ledger=ledger, progress=_Quiet())
    results = executor.run([_spec(seed=41), _spec(seed=42)])
    assert all(metrics.cycles > 0 for metrics in results)
    records = RunLedger.read(ledger.path)
    assert [record["status"] for record in records] == \
        ["retried", "retried"]
