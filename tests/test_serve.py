"""Tests for ``repro.serve``: the always-on sweep daemon.

Covers the fair-share queue, the shared content-addressed store (and
the local-cache/shared-store stack), the generation lock that makes
cache pruning safe against concurrent writers, and the full loopback
path: a daemon plus in-process workers serving two concurrent clients
with overlapping sweeps -- overlapping specs run once, both clients see
metrics bit-identical to the serial backend, the store survives a
daemon restart, and one client disconnecting mid-sweep leaves the other
(and the fleet) undisturbed.  The TLS class runs the same loopback over
``ssl`` with CA verification on the worker side and fingerprint pinning
on the client side.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.config import SimConfig, TECH_DVR, TECH_OOO
from repro.cluster import (ProtocolError, TLSConfig, TLSConfigError, Worker,
                           certificate_fingerprint, query_status)
from repro.harness.runner import run_spec
from repro.jobs import (CacheStack, Executor, JobSpec, NullCache,
                        ResultCache, RunLedger, generation_lock)
from repro.serve import (FairShareQueue, ServeClient, ServeDaemon,
                         ServeExecutor, ServeJob, ServeRejected)


def _spec(workload="nas-is", technique=TECH_OOO, seed=12345,
          max_instructions=1_500, **params):
    config = SimConfig(max_instructions=max_instructions
                       ).with_technique(technique)
    return JobSpec(workload=workload, params=params, config=config,
                   seed=seed)


def _sweep_specs(count=6):
    """Distinct cheap specs (unique seeds) for multi-job sweeps."""
    return [_spec(workload=w, technique=t, seed=s)
            for s, (w, t) in enumerate(
                [("nas-is", TECH_OOO), ("kangaroo", TECH_OOO),
                 ("randomaccess", TECH_OOO), ("nas-is", TECH_DVR),
                 ("camel", TECH_OOO), ("hj2", TECH_OOO),
                 ("kangaroo", TECH_DVR), ("randomaccess", TECH_DVR)],
                start=1)][:count]


def _canon(metrics):
    return json.dumps(metrics.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Fair-share queue
# ---------------------------------------------------------------------------
class TestFairShareQueue:
    def _job(self, seed, session):
        return ServeJob(_spec(seed=seed), session)

    def test_round_robin_across_sessions(self):
        queue = FairShareQueue()
        for seed, session in [(1, "a"), (2, "a"), (3, "b"), (4, "b"),
                              (5, "c")]:
            queue.add(self._job(seed, session))
        order = [queue.next_job(now=0.0).session_id for _ in range(5)]
        # One lease per session per rotation, not a-a-b-b-c.
        assert order == ["a", "b", "c", "a", "b"]
        assert queue.next_job(now=0.0) is None
        assert len(queue) == 0

    def test_backoff_gated_jobs_are_skipped_not_blocking(self):
        queue = FairShareQueue()
        gated = self._job(1, "a")
        gated.not_before = 100.0
        queue.add(gated)
        queue.add(self._job(2, "a"))
        job = queue.next_job(now=0.0)
        assert job is not None and job.spec.seed == 2
        assert queue.next_job(now=0.0) is None      # only the gated one left
        assert queue.next_job(now=100.0) is gated   # gate expired

    def test_front_requeue_preserves_priority(self):
        queue = FairShareQueue()
        queue.add(self._job(1, "a"))
        first = queue.next_job(now=0.0)
        queue.add(self._job(2, "a"))
        queue.add(first, front=True)                # lease failed: retry first
        assert queue.next_job(now=0.0) is first

    def test_drop_session_returns_jobs_keeps_others(self):
        queue = FairShareQueue()
        mine = [self._job(1, "a"), self._job(2, "a")]
        other = self._job(3, "b")
        for job in mine + [other]:
            queue.add(job)
        dropped = queue.drop_session("a")
        assert dropped == mine
        assert queue.sessions() == ["b"]
        assert queue.next_job(now=0.0) is other

    def test_drain_empties_everything(self):
        queue = FairShareQueue()
        jobs = [self._job(1, "a"), self._job(2, "b")]
        for job in jobs:
            queue.add(job)
        assert set(j.key for j in queue.drain()) == set(j.key for j in jobs)
        assert len(queue) == 0
        assert queue.next_job(now=0.0) is None


# ---------------------------------------------------------------------------
# Shared store + cache stack
# ---------------------------------------------------------------------------
class TestSharedStore:
    """A store dir is a ResultCache like any cache dir.

    Checksums, corrupt entries and pruning are covered by
    ``test_jobs.TestResultCache``; what is store-specific is the restart
    and the tiering.
    """

    def test_round_trip_and_restart(self, tmp_path):
        store = ResultCache(str(tmp_path / "store"))
        spec = _spec()
        assert store.get(spec) is None
        metrics = run_spec(spec)
        store.put(spec, metrics)
        assert _canon(store.get(spec)) == _canon(metrics)
        # A fresh instance on the same root (a restarted daemon, another
        # coordinator) serves the same entry.
        again = ResultCache(str(tmp_path / "store"))
        assert _canon(again.get(spec)) == _canon(metrics)
        assert again.hits == 1

    def test_cache_stack_backfills_upper_layer(self, tmp_path):
        local = ResultCache(str(tmp_path / "local"))
        shared = ResultCache(str(tmp_path / "store"))
        stack = CacheStack(local, shared)
        spec = _spec()
        metrics = run_spec(spec)
        shared.put(spec, metrics)                 # another machine's sweep
        assert local.get(spec) is None
        assert _canon(stack.get(spec)) == _canon(metrics)
        # The hit was backfilled: now the local layer answers directly.
        assert _canon(local.get(spec)) == _canon(metrics)

    def test_cache_stack_put_writes_all_layers(self, tmp_path):
        local = ResultCache(str(tmp_path / "local"))
        shared = ResultCache(str(tmp_path / "store"))
        stack = CacheStack(local, shared)
        spec = _spec()
        metrics = run_spec(spec)
        stack.put(spec, metrics)
        assert local.get(spec) is not None
        assert shared.get(spec) is not None


# ---------------------------------------------------------------------------
# Generation lock (ResultCache.prune vs concurrent writer)
# ---------------------------------------------------------------------------
class TestGenerationLock:
    def test_shared_holders_do_not_exclude_each_other(self, tmp_path):
        root = str(tmp_path)
        with generation_lock(root):
            entered = threading.Event()

            def other_writer():
                with generation_lock(root):
                    entered.set()

            thread = threading.Thread(target=other_writer)
            thread.start()
            thread.join(timeout=5)
            assert entered.is_set()

    def test_exclusive_waits_for_writer(self, tmp_path):
        """The satellite race: prune must not run mid-publication."""
        root = str(tmp_path)
        release = threading.Event()
        writing = threading.Event()
        pruned_at = []

        def writer():
            with generation_lock(root):            # shared, like put()
                writing.set()
                release.wait(timeout=10)

        def pruner():
            with generation_lock(root, exclusive=True):
                pruned_at.append(time.monotonic())

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        assert writing.wait(timeout=5)
        pruner_thread = threading.Thread(target=pruner)
        pruner_thread.start()
        time.sleep(0.2)
        assert not pruned_at                       # blocked behind the writer
        released_at = time.monotonic()
        release.set()
        writer_thread.join(timeout=5)
        pruner_thread.join(timeout=5)
        assert pruned_at and pruned_at[0] >= released_at

    def test_prune_does_not_lose_concurrent_put(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        metrics = run_spec(spec)
        stop = threading.Event()

        def keep_writing():
            while not stop.is_set():
                cache.put(spec, metrics)

        thread = threading.Thread(target=keep_writing)
        thread.start()
        try:
            for _ in range(10):
                cache.prune()
                cache.prune_to_bytes(10**9)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert _canon(cache.get(spec)) == _canon(metrics)

    def test_clear_keeps_the_lock_file_working(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        cache.put(spec, run_spec(spec))
        assert cache.clear() == 1
        cache.put(spec, run_spec(spec))           # lock + dir still usable
        assert cache.get(spec) is not None


# ---------------------------------------------------------------------------
# Loopback daemon helpers
# ---------------------------------------------------------------------------
def _daemon(tmp_path, *, store=True, tls=None, workers=2, worker_tls=None,
            **kwargs):
    """A started daemon plus ``workers`` in-process thread workers."""
    shared = ResultCache(str(tmp_path / "store")) if store else None
    ledger = RunLedger(str(tmp_path / "daemon-runs.jsonl"))
    daemon = ServeDaemon(store=shared, ledger=ledger, tls=tls,
                         retry_base=0.05, retry_cap=0.2, job_timeout=120,
                         quiet=True, **kwargs)
    daemon.start()
    threads = []
    for index in range(workers):
        worker = Worker(f"127.0.0.1:{daemon.port}",
                        worker_id=f"tw{index}", run_job=run_spec,
                        tls=worker_tls)
        thread = threading.Thread(target=worker.serve, daemon=True)
        thread.start()
        threads.append(thread)
    if workers:
        daemon.wait_for_workers(workers, timeout=60)
    return daemon


def _run_client(daemon, specs, *, tls=None, collect_meta=False, **kwargs):
    """One ServeClient session: submit ``specs``, gather all results."""
    client = ServeClient(f"127.0.0.1:{daemon.port}", tls=tls,
                         **kwargs)
    results = {}
    meta = {}

    def on_result(spec, metrics, *, worker, retries, wall_s, from_store):
        results[spec.key] = metrics
        meta[spec.key] = {"worker": worker, "from_store": from_store,
                          "retries": retries}

    try:
        failed = client.run(specs, on_result)
    finally:
        client.close()
    assert failed == {}
    ordered = [results[spec.key] for spec in specs]
    return (ordered, meta) if collect_meta else ordered


# ---------------------------------------------------------------------------
# End-to-end over plaintext loopback
# ---------------------------------------------------------------------------
class TestServeLoopback:
    def test_two_concurrent_clients_overlap_runs_once(self, tmp_path):
        """Satellite: overlapping specs run once, both clients get
        bit-identical Metrics, and a later client is served from the
        shared store."""
        specs = _sweep_specs(6)
        serial = {spec.key: metrics for spec, metrics in
                  zip(specs, Executor(jobs=1, cache=NullCache()).run(specs))}
        daemon = _daemon(tmp_path)
        try:
            specs_a, specs_b = specs[:4], specs[2:]     # 2-spec overlap
            outputs = {}
            errors = []

            def submit(name, client_specs):
                try:
                    outputs[name] = _run_client(daemon, client_specs)
                except BaseException as error:
                    errors.append((name, error))

            threads = [threading.Thread(target=submit, args=("a", specs_a)),
                       threading.Thread(target=submit, args=("b", specs_b))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not errors
            for name, client_specs in (("a", specs_a), ("b", specs_b)):
                for spec, metrics in zip(client_specs, outputs[name]):
                    assert _canon(metrics) == _canon(serial[spec.key])
            # Every unique spec executed exactly once, fleet-wide --
            # overlap was deduplicated (shared in flight or via store).
            assert daemon._stats["jobs_done"] == len(specs)

            # A third client re-submitting the union never reaches a
            # worker: the shared store answers everything.
            done_before = daemon._stats["jobs_done"]
            replay, meta = _run_client(daemon, specs, collect_meta=True)
            for spec, metrics in zip(specs, replay):
                assert _canon(metrics) == _canon(serial[spec.key])
            assert all(info["from_store"] for info in meta.values())
            assert all(info["worker"] == "store" for info in meta.values())
            assert daemon._stats["jobs_done"] == done_before
        finally:
            daemon.close()

    def test_store_survives_daemon_restart(self, tmp_path):
        specs = _sweep_specs(3)
        daemon = _daemon(tmp_path)
        try:
            first = _run_client(daemon, specs)
        finally:
            daemon.close()
        # Second daemon on the same store root: no workers at all, yet
        # the whole sweep settles from the store.
        daemon = _daemon(tmp_path, workers=0)
        try:
            replay, meta = _run_client(daemon, specs, collect_meta=True)
            for before, after in zip(first, replay):
                assert _canon(before) == _canon(after)
            assert all(info["from_store"] for info in meta.values())
        finally:
            daemon.close()

    def test_client_disconnect_mid_sweep_spares_the_other(self, tmp_path):
        """Acceptance: a vanishing client must not kill the fleet or the
        other session's sweep."""
        specs = _sweep_specs(6)
        serial = {spec.key: metrics for spec, metrics in
                  zip(specs, Executor(jobs=1, cache=NullCache()).run(specs))}
        daemon = _daemon(tmp_path, session_timeout=2.0)
        try:
            address = f"127.0.0.1:{daemon.port}"
            doomed = ServeClient(address)
            doomed.connect()
            from repro.cluster.protocol import SUBMIT
            doomed._connection.send(
                SUBMIT, specs=[spec.to_dict() for spec in specs])
            time.sleep(0.3)                # let the sweep start dispatching
            doomed._stop_beat.set()
            doomed._connection.sock.close()     # abrupt: no GOODBYE

            survivor = _run_client(daemon, specs)
            for spec, metrics in zip(specs, survivor):
                assert _canon(metrics) == _canon(serial[spec.key])
            # Fleet intact, daemon answering, dead session reaped.
            info = query_status(address)
            assert info["daemon"]["fleet"] == 2
            assert daemon.registry.get(doomed.session_id) is None
        finally:
            daemon.close()

    def test_serve_executor_matches_serial_and_ledgers_hits(self, tmp_path):
        specs = _sweep_specs(4)
        serial = Executor(jobs=1, cache=NullCache()).run(specs)
        daemon = _daemon(tmp_path)
        try:
            address = f"127.0.0.1:{daemon.port}"

            def executor(subdir):
                client = ServeClient(address)
                return client, ServeExecutor(
                    client, cache=ResultCache(str(tmp_path / subdir)),
                    ledger=RunLedger(str(tmp_path / subdir / "runs.jsonl")))

            client, first = executor("client-a")
            try:
                results = first.run(specs)
            finally:
                client.close()
            for expected, actual in zip(serial, results):
                assert _canon(actual) == _canon(expected)
            records = RunLedger.read(str(tmp_path / "client-a/runs.jsonl"))
            assert [r["cache"] for r in records] == ["miss"] * len(specs)

            # A second machine (fresh local cache): the daemon serves it
            # from the store and the executor ledgers *hits*, so the
            # cost model never learns zero-second rates.
            client, second = executor("client-b")
            try:
                results = second.run(specs)
            finally:
                client.close()
            for expected, actual in zip(serial, results):
                assert _canon(actual) == _canon(expected)
            records = RunLedger.read(str(tmp_path / "client-b/runs.jsonl"))
            assert [r["cache"] for r in records] == ["hit"] * len(specs)
            assert {str(r["worker"]) for r in records} == {"store"}
        finally:
            daemon.close()

    def test_idle_daemon_gives_a_late_worker_the_full_grace(self, tmp_path):
        """Time the daemon sat idle with no workers does not count
        against the next sweep: a worker that attaches within
        ``worker_grace`` of the submission runs the job."""
        daemon = _daemon(tmp_path, store=False, workers=0, worker_grace=1.0)
        try:
            time.sleep(1.5)              # idle past the grace, no workers

            def attach():
                time.sleep(0.3)
                Worker(f"127.0.0.1:{daemon.port}",
                       worker_id="late", run_job=run_spec).serve()

            threading.Thread(target=attach, daemon=True).start()
            (metrics,), meta = _run_client(daemon, [_spec()],
                                           collect_meta=True)
            assert metrics.cycles > 0
            assert [info["worker"] for info in meta.values()] == ["late"]
            assert daemon._stats["jobs_failed"] == 0
        finally:
            daemon.close()

    def test_stale_salt_client_rejected(self, tmp_path):
        daemon = _daemon(tmp_path, workers=0)
        try:
            client = ServeClient(f"127.0.0.1:{daemon.port}",
                                 salt="stale-tree")
            with pytest.raises(ServeRejected, match="salt"):
                client.connect()
        finally:
            daemon.close()

    def test_status_reports_daemon_sessions_and_fleet(self, tmp_path):
        daemon = _daemon(tmp_path, workers=1)
        try:
            address = f"127.0.0.1:{daemon.port}"
            client = ServeClient(address, client_id="status-probe")
            client.connect()
            try:
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    info = query_status(address)
                    if info["daemon"]["sessions"]:
                        break
                    time.sleep(0.05)
                extra = info["daemon"]
                assert extra["uptime_s"] >= 0
                assert extra["fleet"] == 1
                assert extra["queued_jobs"] == 0
                (session,) = extra["sessions"]
                assert session["client"] == "status-probe"
                assert session["active_sweeps"] == 0
            finally:
                client.close()
        finally:
            daemon.close()


# ---------------------------------------------------------------------------
# TLS
# ---------------------------------------------------------------------------
class TestServeTLS:
    def test_tls_loopback_sweep_bit_identical(self, tmp_path, tls_cert):
        """Acceptance: TLS daemon, CA-verified workers, a fingerprint-
        pinned client -- results bit-identical to the serial backend."""
        cert, key = tls_cert
        specs = _sweep_specs(3)
        serial = Executor(jobs=1, cache=NullCache()).run(specs)
        daemon = _daemon(
            tmp_path, tls=TLSConfig.server(cert, key),
            worker_tls=TLSConfig.client(cafile=cert))
        try:
            pin = certificate_fingerprint(cert)
            results, meta = _run_client(
                daemon, specs, tls=TLSConfig.client(fingerprint=pin),
                collect_meta=True)
            for expected, actual in zip(serial, results):
                assert _canon(actual) == _canon(expected)
            assert not any(info["from_store"] for info in meta.values())
            info = query_status(f"127.0.0.1:{daemon.port}",
                                tls=TLSConfig.client(cafile=cert))
            assert info["daemon"]["tls"] is True
        finally:
            daemon.close()

    def test_wrong_fingerprint_rejected(self, tmp_path, tls_cert):
        cert, key = tls_cert
        daemon = _daemon(tmp_path, tls=TLSConfig.server(cert, key),
                         workers=0)
        try:
            bogus = "sha256:" + "0" * 64
            client = ServeClient(f"127.0.0.1:{daemon.port}",
                                 tls=TLSConfig.client(fingerprint=bogus))
            with pytest.raises(OSError):
                client.connect()
        finally:
            daemon.close()

    def test_server_side_tls_ca_is_refused(self, tls_cert):
        """No client presents a certificate, so a server cannot demand
        one: ``--tls-ca`` stays a client-side flag."""
        from types import SimpleNamespace
        cert, key = tls_cert
        args = SimpleNamespace(tls_cert=cert, tls_key=key, tls_ca=cert,
                               tls_fingerprint=None)
        with pytest.raises(TLSConfigError, match="--tls-ca"):
            TLSConfig.from_args(args, server_side=True)
        assert TLSConfig.from_args(args, server_side=False).cafile == cert

    def test_plaintext_client_cannot_join_tls_daemon(self, tmp_path,
                                                     tls_cert):
        cert, key = tls_cert
        daemon = _daemon(tmp_path, tls=TLSConfig.server(cert, key),
                         workers=0)
        try:
            client = ServeClient(f"127.0.0.1:{daemon.port}",
                                 tls=False, server_timeout=3.0)
            with pytest.raises((OSError, ProtocolError)):
                client.connect()
        finally:
            daemon.close()
