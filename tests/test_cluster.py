"""Tests for the ``repro.cluster`` distributed executor backend.

Covers the wire protocol framing, dispatch in input order, the serve
daemon's lease steps and worker handshake policy (code-salt rejection),
and the full loopback path that ``--backend cluster`` runs:
a serve daemon in the sweep process plus real worker subprocesses
(spawned exactly as ``repro cluster worker --connect`` users would)
producing bit-identical metrics to the local backend -- including when
a worker is SIGKILLed mid-sweep, when a job keeps crashing, and when
every worker disappears.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time

import pytest

from repro.config import SimConfig, TECH_DVR, TECH_OOO
from repro.cluster import (AuthenticationError, ProtocolError, TLSConfig,
                           Worker, parse_address, protocol, query_status)
from repro.jobs import (ExecutionContext, Executor, JobSpec, NullCache,
                        NullLedger, ResultCache, RunLedger)
from repro.serve import ServeClient, ServeDaemon, ServeExecutor, ServeJob
from repro.serve.daemon import WorkerHandle


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


# ---------------------------------------------------------------------------
# Protocol framing
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            message = {"type": "job", "spec": {"deep": [1, 2, {"x": "y"}]}}
            protocol.send_message(left, message)
            assert protocol.recv_message(right) == message
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert protocol.recv_message(right) is None
        finally:
            right.close()

    def test_truncated_frame_raises(self):
        left, right = socket.socketpair()
        try:
            frame = protocol.encode({"type": "result"})
            left.sendall(frame[:-3])        # header + partial payload
            left.close()
            with pytest.raises(ProtocolError):
                protocol.recv_message(right)
        finally:
            right.close()

    def test_oversized_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            header = protocol._HEADER.pack(protocol.MAX_MESSAGE_BYTES + 1)
            left.sendall(header)
            with pytest.raises(ProtocolError):
                protocol.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_parse_address(self):
        assert parse_address("10.0.0.5:7077") == ("10.0.0.5", 7077)
        assert parse_address(":7077") == ("127.0.0.1", 7077)
        assert parse_address(("h", "5")) == ("h", 5)
        with pytest.raises(ValueError):
            parse_address("no-port")


# ---------------------------------------------------------------------------
# Dispatch order: input order on every backend, whatever the ledger holds
# ---------------------------------------------------------------------------
class _Quiet:
    def update(self, done, total, spec, cached):
        pass

    def finish(self, total, cached, wall_s):
        pass


class TestDispatchOrder:
    """A ledger whose history makes the second spec ten times slower
    changes nothing: jobs still go out in the order they came in, and
    nothing but the ledger is written to its directory."""

    def _history(self, tmp_path):
        fast, slow = _spec(workload="nas-is"), _spec(workload="camel")
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        ledger.record(fast, cache="miss", wall_s=0.1, worker=1)
        ledger.record(slow, cache="miss", wall_s=1.0, worker=1)
        return fast, slow, ledger

    def test_pool_submits_in_input_order(self, tmp_path, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        from repro.jobs import executor as executor_module
        submitted = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(args[0]["workload"])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                            RecordingPool)
        fast, slow, ledger = self._history(tmp_path)
        results = Executor(jobs=2, cache=NullCache(), ledger=ledger,
                           progress=_Quiet()).run([fast, slow])
        assert submitted == ["nas-is", "camel"]
        assert [m.workload for m in results] == ["nas-is", "camel"]
        assert [path.name for path in tmp_path.iterdir()] == ["runs.jsonl"]

    def test_daemon_queues_in_submission_order(self, tmp_path):
        fast, slow, ledger = self._history(tmp_path)
        daemon = ServeDaemon(ledger=ledger, quiet=True)
        session = daemon.registry.create(_FakeConnection(), name="client")
        daemon._on_submit(session,
                          {"specs": [fast.to_dict(), slow.to_dict()]})
        queued = [daemon.queue.next_job(now=0.0).spec.workload
                  for _ in range(2)]
        assert queued == ["nas-is", "camel"]
        assert [path.name for path in tmp_path.iterdir()] == ["runs.jsonl"]


# ---------------------------------------------------------------------------
# Shared lease path (fake connections, no sockets)
# ---------------------------------------------------------------------------
class _FakeConnection:
    """Records sent frames; ``broken`` makes every send raise OSError."""

    def __init__(self, broken=False):
        self.broken = broken
        self.sent = []
        self.closed = False
        self.peer = "fake:0"

    def send(self, kind, **fields):
        if self.broken:
            raise OSError("broken pipe")
        self.sent.append((kind, fields))

    def close(self):
        self.closed = True


class TestLeasePath:
    """``ServeDaemon.idle_workers/lease/release/drop_worker``, driven by
    the daemon's ``_dispatch``."""

    def _daemon(self):
        return ServeDaemon(job_timeout=30.0, quiet=True)

    def _register(self, daemon, name, broken=False):
        worker = WorkerHandle(_FakeConnection(broken), name=name)
        with daemon._lock:
            daemon._workers.append(worker)
        return worker

    def _jobs_sent(self, worker):
        return [fields["job_id"] for kind, fields in worker.connection.sent
                if kind == protocol.JOB]

    def _queue(self, daemon, seeds):
        jobs = [ServeJob(_spec(seed=seed), "s1") for seed in seeds]
        for job in jobs:
            daemon.queue.add(job)
        return jobs

    def test_one_job_per_idle_worker(self):
        daemon = self._daemon()
        fleet = [self._register(daemon, f"w{i}")
                 for i in range(2)]
        jobs = self._queue(daemon, (1, 2, 3))
        daemon._dispatch(now=100.0)
        assert [self._jobs_sent(w) for w in fleet] == \
            [[jobs[0].key], [jobs[1].key]]
        assert len(daemon.queue) == 1
        for worker, job in zip(fleet, jobs):
            assert worker.jobs == {job.key: job}
            assert worker.deadline == 130.0
        # Both workers are busy now: another pass leases nothing.
        daemon._dispatch(now=101.0)
        assert len(daemon.queue) == 1
        assert all(len(self._jobs_sent(w)) == 1 for w in fleet)
        assert daemon.queue.next_job(now=101.0) is jobs[2]

    def test_serve_dispatch_one_job_per_idle_worker(self):
        """With two sessions queued, one pass gives each idle worker one
        job, taking the sessions in turn."""
        daemon = self._daemon()
        fleet = [self._register(daemon, f"w{i}")
                 for i in range(2)]
        first = [ServeJob(_spec(seed=seed), "s1") for seed in (1, 2)]
        other = [ServeJob(_spec(seed=seed), "s2") for seed in (3, 4)]
        for job in first + other:
            daemon.queue.add(job)
        daemon._dispatch(now=100.0)
        assert [self._jobs_sent(w) for w in fleet] == \
            [[first[0].key], [other[0].key]]
        assert daemon.queue.queued_for("s1") == 1
        assert daemon.queue.queued_for("s2") == 1

    def test_busy_and_killing_workers_get_no_job(self):
        daemon = self._daemon()
        busy = self._register(daemon, "busy")
        killing = self._register(daemon, "killing")
        idle = self._register(daemon, "idle")
        held = ServeJob(_spec(seed=9), "s1")
        assert daemon.lease(busy, held, now=0.0)
        killing.killing = True
        assert daemon.idle_workers() == [idle]
        jobs = self._queue(daemon, (1, 2))
        daemon._dispatch(now=1.0)
        assert self._jobs_sent(busy) == [held.key]
        assert self._jobs_sent(killing) == []
        assert self._jobs_sent(idle) == [jobs[0].key]
        assert len(daemon.queue) == 1
        assert daemon.queue.next_job(now=1.0) is jobs[1]

    def test_send_failure_marks_killing_and_keeps_job_ready(self):
        daemon = self._daemon()
        broken = self._register(daemon, "broken", broken=True)
        first, second = self._queue(daemon, (1, 2))
        daemon._dispatch(now=5.0)
        assert broken.killing and broken.connection.closed
        assert broken.jobs == {} and broken.deadline is None
        kind, worker, reason = daemon._events.get_nowait()
        assert (kind, worker) == ("dead", broken)
        assert "send failed" in reason
        assert daemon.idle_workers() == []
        # The job goes back to the front of its session's queue.
        assert len(daemon.queue) == 2
        assert daemon.queue.next_job(now=5.0) is first

    def test_serve_send_failure_requeues_at_front(self):
        """A job whose send fails goes back to the front of its queue, so
        the next idle worker in the same pass takes it."""
        daemon = self._daemon()
        broken = self._register(daemon, "broken", broken=True)
        healthy = self._register(daemon, "healthy")
        first, second = self._queue(daemon, (1, 2))
        daemon._dispatch(now=5.0)
        assert broken.killing
        assert daemon._events.get_nowait()[0] == "dead"
        assert self._jobs_sent(healthy) == [first.key]
        assert healthy.jobs == {first.key: first}
        assert len(daemon.queue) == 1
        assert daemon.queue.next_job(now=5.0) is second

    def test_result_ends_lease_and_clears_deadline(self):
        daemon = self._daemon()
        worker = self._register(daemon, "w")
        job = ServeJob(_spec(seed=1), "s1")
        assert daemon.lease(worker, job, now=10.0)
        assert worker.deadline == 40.0
        # A stale RESULT leaves the live lease and its expiry alone.
        assert daemon.release(worker, "some-other-key") is None
        assert worker.jobs == {job.key: job} and worker.deadline == 40.0
        assert daemon.release(worker, job.key) is job
        assert worker.jobs == {} and worker.deadline is None
        assert daemon.idle_workers() == [worker]

    def test_drop_worker_returns_its_lost_job(self):
        daemon = self._daemon()
        worker = self._register(daemon, "w")
        job = ServeJob(_spec(seed=1), "s1")
        daemon.lease(worker, job, now=0.0)
        assert daemon.drop_worker(worker) == [job]
        assert not worker.alive and worker.connection.closed
        assert worker.jobs == {} and worker.deadline is None
        assert daemon.live_workers() == []


# ---------------------------------------------------------------------------
# Loopback cluster helpers
# ---------------------------------------------------------------------------
class _Loopback:
    """A started serve daemon plus the client sessions dialled into it:
    what ``--backend cluster`` runs in the sweep process, with test
    timeouts."""

    def __init__(self, **daemon_kwargs):
        self.daemon = ServeDaemon(quiet=True, **daemon_kwargs)
        self.daemon.start()
        self.port = self.daemon.port
        self._clients = []

    def executor(self, tmp_path=None, *, cache=None, ledger=None,
                 **kwargs):
        """A ServeExecutor on a new session; with ``tmp_path``, over the
        result cache and ``runs.jsonl`` ledger there."""
        if tmp_path is not None:
            cache = ResultCache(str(tmp_path))
            ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        client = ServeClient(self.daemon.address,
                             secret=self.daemon.secret, tls=False)
        self._clients.append(client)
        return ServeExecutor(client, cache=cache, ledger=ledger, **kwargs)

    def close(self):
        for client in self._clients:
            client.close()
        self.daemon.close()


@pytest.fixture
def cluster():
    loopback = _Loopback(job_timeout=120, heartbeat_timeout=15.0,
                         retry_base=0.05, retry_cap=0.2, worker_grace=30.0)
    yield loopback
    loopback.close()


def _thread_worker(cluster, **kwargs):
    """An in-process worker serving the daemon from a daemon thread."""
    worker = Worker(f"127.0.0.1:{cluster.port}", **kwargs)
    thread = threading.Thread(target=worker.serve, daemon=True)
    thread.start()
    return worker, thread


# ---------------------------------------------------------------------------
# End-to-end: subprocess workers on 127.0.0.1 (the CI loopback suite)
# ---------------------------------------------------------------------------
class TestLoopbackSweep:
    def test_two_subprocess_workers_match_serial(self, cluster, tmp_path):
        specs = _sweep_specs(6)
        serial = Executor(jobs=1, cache=NullCache()).run(specs)

        cluster.daemon.spawn_local_workers(2)
        cluster.daemon.wait_for_workers(2, timeout=60)
        clustered = cluster.executor(tmp_path).run(specs)

        for expected, actual in zip(serial, clustered):
            assert json.dumps(actual.to_dict(), sort_keys=True) == \
                json.dumps(expected.to_dict(), sort_keys=True)
        records = RunLedger.read(str(tmp_path / "runs.jsonl"))
        assert len(records) == len(specs)
        workers = {str(r["worker"]) for r in records}
        assert "parent" not in workers          # everything ran remotely
        assert all(r["retries"] == 0 for r in records)
        # Second run: everything is served from the sweep process's cache.
        rerun = cluster.executor(tmp_path).run(specs)
        records = RunLedger.read(str(tmp_path / "runs.jsonl"))
        assert [r["cache"] for r in records[len(specs):]] == \
            ["hit"] * len(specs)
        for expected, actual in zip(serial, rerun):
            assert actual.cycles == expected.cycles

    def test_sigkill_worker_mid_sweep_reassigns_leases(self, cluster,
                                                       tmp_path):
        """Acceptance: kill one of two workers; the sweep still completes
        with bit-identical metrics."""
        specs = _sweep_specs(8)
        serial = Executor(jobs=1, cache=NullCache()).run(specs)

        processes = cluster.daemon.spawn_local_workers(2)
        cluster.daemon.wait_for_workers(2, timeout=60)

        class KillOnFirstResult:
            """Progress hook that SIGKILLs a worker at the first result."""

            def __init__(self, victim):
                self.victim = victim
                self.killed = False

            def update(self, done, total, spec, cached):
                if not self.killed:
                    self.killed = True
                    self.victim.send_signal(signal.SIGKILL)

            def finish(self, total, cached, wall_s):
                pass

        progress = KillOnFirstResult(processes[0])
        clustered = cluster.executor(tmp_path, progress=progress).run(specs)

        assert progress.killed
        assert processes[0].wait(timeout=30) is not None
        for expected, actual in zip(serial, clustered):
            assert json.dumps(actual.to_dict(), sort_keys=True) == \
                json.dumps(expected.to_dict(), sort_keys=True)
        records = RunLedger.read(str(tmp_path / "runs.jsonl"))
        assert len(records) == len(specs)
        assert all("ipc" in r for r in records)


# ---------------------------------------------------------------------------
# Fault tolerance with in-process workers (fast, deterministic injection)
# ---------------------------------------------------------------------------
class TestFaultTolerance:
    def test_stale_salt_worker_rejected(self, cluster):
        worker = Worker(f"127.0.0.1:{cluster.port}", salt="stale-tree")
        assert worker.serve() == 2              # WorkerRejected exit code
        assert cluster.daemon.live_workers() == []

    def test_job_exception_requeues_with_retry_accounting(self, cluster,
                                                          tmp_path):
        from repro.harness.runner import run_spec
        failures = {"left": 1}

        def flaky(spec):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("injected job crash")
            return run_spec(spec)

        _thread_worker(cluster, run_job=flaky, worker_id="flaky-w")
        cluster.daemon.wait_for_workers(1, timeout=10)
        executor = cluster.executor(tmp_path)
        results = executor.run([_spec()])
        assert results[0].cycles > 0
        records = RunLedger.read(str(tmp_path / "runs.jsonl"))
        assert records[-1]["status"] == "retried"
        assert records[-1]["retries"] == 1
        assert records[-1]["worker"] == "flaky-w"

    def test_lease_timeout_moves_job_to_healthy_worker(self, tmp_path):
        from repro.harness.runner import run_spec
        cluster = _Loopback(job_timeout=1.0, heartbeat_timeout=30.0,
                            retry_base=0.05, retry_cap=0.1,
                            worker_grace=30.0)
        try:
            def stuck(spec):
                time.sleep(60)
                return run_spec(spec)

            # The stuck worker joins first, so it gets the first lease.
            _thread_worker(cluster, run_job=stuck, worker_id="stuck-w")
            cluster.daemon.wait_for_workers(1, timeout=10)
            _thread_worker(cluster, run_job=run_spec, worker_id="healthy-w")
            cluster.daemon.wait_for_workers(2, timeout=10)

            executor = cluster.executor(tmp_path)
            results = executor.run([_spec()])
            assert results[0].cycles > 0
            record = RunLedger.read(str(tmp_path / "runs.jsonl"))[-1]
            assert record["worker"] == "healthy-w"
            assert record["retries"] >= 1
        finally:
            cluster.close()

    def test_no_workers_falls_back_to_parent(self, tmp_path):
        cluster = _Loopback(worker_grace=0.2, retry_base=0.01)
        try:
            executor = cluster.executor(tmp_path)
            results = executor.run([_spec()])
            assert results[0].cycles > 0
            record = RunLedger.read(str(tmp_path / "runs.jsonl"))[-1]
            assert record["worker"] == "parent"
            assert record["status"] == "retried"
        finally:
            cluster.close()

    def test_drain_and_rejoin(self, cluster, tmp_path):
        """A worker that leaves after every job (max_jobs=1) rejoins and
        the sweep still finishes."""
        from repro.harness.runner import run_spec
        stop = threading.Event()

        def rejoin_loop():
            while not stop.is_set():
                worker = Worker(f"127.0.0.1:{cluster.port}",
                                worker_id="revolving-w", max_jobs=1,
                                run_job=run_spec)
                if worker.serve() != 0:       # daemon gone
                    return

        thread = threading.Thread(target=rejoin_loop, daemon=True)
        thread.start()
        try:
            specs = [_spec(seed=s) for s in (21, 22, 23)]
            results = cluster.executor(tmp_path).run(specs)
            assert all(m.cycles > 0 for m in results)
            records = RunLedger.read(str(tmp_path / "runs.jsonl"))
            assert len(records) == 3
            assert {r["worker"] for r in records} == {"revolving-w"}
        finally:
            stop.set()


# ---------------------------------------------------------------------------
# Shared-secret handshake authentication
# ---------------------------------------------------------------------------
class TestAuth:
    SECRET = "s3cret-handshake"

    @pytest.fixture
    def secured(self):
        cluster = _Loopback(job_timeout=120, retry_base=0.05, retry_cap=0.2,
                            worker_grace=30.0, secret=self.SECRET)
        yield cluster
        cluster.close()

    def test_mac_helpers_are_constant_time_hmac(self):
        mac = protocol.compute_mac(self.SECRET, "nonce-1")
        assert protocol.verify_mac(self.SECRET, "nonce-1", mac)
        assert not protocol.verify_mac(self.SECRET, "nonce-2", mac)
        assert not protocol.verify_mac("other", "nonce-1", mac)
        assert not protocol.verify_mac(self.SECRET, "nonce-1", None)

    def test_authenticated_worker_joins_and_serves(self, secured, tmp_path):
        from repro.harness.runner import run_spec
        _thread_worker(secured, run_job=run_spec, worker_id="auth-w",
                       secret=self.SECRET)
        secured.daemon.wait_for_workers(1, timeout=10)
        results = secured.executor(tmp_path).run([_spec()])
        assert results[0].cycles > 0
        record = RunLedger.read(str(tmp_path / "runs.jsonl"))[-1]
        assert record["worker"] == "auth-w"

    def test_worker_without_secret_rejected_before_hello(self, secured):
        worker = Worker(f"127.0.0.1:{secured.port}", secret=None,
                        reconnect=0, quiet=True)
        assert worker.serve() == 2
        assert secured.daemon.live_workers() == []

    def test_worker_with_wrong_secret_rejected(self, secured):
        worker = Worker(f"127.0.0.1:{secured.port}", secret="not-it",
                        reconnect=0, quiet=True)
        assert worker.serve() == 2
        assert secured.daemon.live_workers() == []

    @pytest.mark.parametrize("kwargs", [
        pytest.param({"secret": None}, id="no-secret"),
        pytest.param({"secret": "not-it"}, id="wrong-secret"),
        pytest.param({"secret": SECRET, "salt": "stale-tree"},
                     id="stale-salt"),
    ])
    def test_refused_handshake_closes_the_socket(self, secured, kwargs):
        """A worker the daemon refuses closes its socket: the garbage
        collector finds none left open (each reconnect would add one)."""
        import gc
        import warnings
        worker = Worker(f"127.0.0.1:{secured.port}", reconnect=0,
                        quiet=True, **kwargs)
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert worker.serve() == 2
            gc.collect()
        leaked = [str(w.message) for w in caught
                  if issubclass(w.category, ResourceWarning)
                  and f", {secured.port})" in str(w.message)]
        assert leaked == []

    def test_status_query_requires_the_secret(self, secured):
        address = f"127.0.0.1:{secured.port}"
        with pytest.raises(AuthenticationError):
            query_status(address, secret="wrong-secret")
        info = query_status(address, secret=self.SECRET)
        assert info["workers"] == []

    def test_cli_status_wrong_secret_exits_nonzero(self, secured, capsys):
        from repro.__main__ import main
        code = main(["cluster", "status",
                     "--connect", f"127.0.0.1:{secured.port}",
                     "--secret", "wrong-secret"])
        assert code == 1
        assert "cluster status:" in capsys.readouterr().err

    def test_secretless_worker_against_secretless_coordinator(self,
                                                              monkeypatch):
        """Explicit secret=None disables auth on both ends regardless of
        the environment (the env fallback is only for unset secrets)."""
        monkeypatch.delenv("REPRO_CLUSTER_SECRET", raising=False)
        daemon = ServeDaemon(secret=None, quiet=True)
        daemon.start()
        try:
            from repro.harness.runner import run_spec
            _thread_worker(daemon, run_job=run_spec,
                           worker_id="open-w", secret=None)
            daemon.wait_for_workers(1, timeout=10)
        finally:
            daemon.close()


# ---------------------------------------------------------------------------
# Resume + failure-report degradation
# ---------------------------------------------------------------------------
class _AbortAfter:
    """Progress hook simulating a SIGKILL'd parent mid-sweep."""

    def __init__(self, results):
        self.results = results

    def update(self, done, total, spec, cached):
        if done >= self.results:
            raise KeyboardInterrupt

    def finish(self, total, cached, wall_s):
        pass


class TestResume:
    def test_interrupted_sweep_resumes_dispatching_only_remainder(
            self, cluster, tmp_path):
        from repro.harness.runner import run_spec
        _thread_worker(cluster, run_job=run_spec, worker_id="resume-w")
        cluster.daemon.wait_for_workers(1, timeout=10)
        specs = _sweep_specs(6)
        serial = Executor(jobs=1, cache=NullCache()).run(specs)
        path = str(tmp_path / "runs.jsonl")

        # Sweep dies (parent killed) after three results are recorded.
        with pytest.raises(KeyboardInterrupt):
            cluster.executor(tmp_path, progress=_AbortAfter(3)).run(specs)
        interrupted = RunLedger.read(path)
        assert len(interrupted) == 3

        # --resume: completed specs replay from the ledger + cache;
        # only the remainder is dispatched to workers.
        resumed = cluster.executor(
            tmp_path, resume_index=RunLedger.completed_index(path)).run(specs)
        for expected, actual in zip(serial, resumed):
            assert json.dumps(actual.to_dict(), sort_keys=True) == \
                json.dumps(expected.to_dict(), sort_keys=True)
        completed_keys = {record["key"] for record in interrupted}
        replay = RunLedger.read(path)[3:]
        assert len(replay) == 6
        by_key = {record["key"]: record for record in replay}
        for key, record in by_key.items():
            if key in completed_keys:
                assert record["cache"] == "resume"
                assert record["worker"] == "parent"
            else:
                assert record["cache"] == "miss"
                assert record["worker"] == "resume-w"

    def test_resume_with_missing_cache_bytes_redispatches(self, tmp_path):
        specs = [_spec(seed=71), _spec(seed=72)]
        path = str(tmp_path / "runs.jsonl")
        Executor(jobs=1, cache=ResultCache(str(tmp_path)),
                 ledger=RunLedger(path)).run(specs)
        index = RunLedger.completed_index(path)
        assert set(index) == {spec.key for spec in specs}
        # The cache is wiped (pruned/host change): resume must degrade
        # to re-dispatch with a warning, not crash or serve nothing.
        fresh_cache = ResultCache(str(tmp_path / "elsewhere"))
        with pytest.warns(RuntimeWarning, match="missing from the result "
                                                "cache"):
            results = Executor(jobs=1, cache=fresh_cache,
                               ledger=RunLedger(path),
                               resume_index=index).run(specs)
        assert all(metrics.cycles > 0 for metrics in results)


class TestFailureReport:
    def test_exhausted_sweep_returns_partial_results(self, tmp_path):
        cluster = _Loopback(worker_grace=0.2, retry_base=0.01)
        try:
            path = str(tmp_path / "runs.jsonl")
            executor = cluster.executor(cache=NullCache(),
                                        ledger=RunLedger(path),
                                        on_failure="report")
            good, bad = _spec(seed=81), _spec(workload="no-such-workload")
            results = executor.run([good, bad])
            assert results[0].cycles > 0        # partial results survive
            assert results[1] is None
            report = executor.failure_report
            assert not report.ok and len(report) == 1
            failure = report.failures[0]
            assert failure["key"] == bad.key
            assert failure["stage"] == "cluster"
            assert failure["attempts"] >= 1
            assert "exhausted" in report.render()
        finally:
            cluster.close()

    def test_on_failure_raise_remains_the_default_contract(self, tmp_path):
        cluster = _Loopback(worker_grace=0.2, retry_base=0.01)
        try:
            from repro.jobs import JobError
            executor = cluster.executor(cache=NullCache(),
                                        ledger=NullLedger())
            with pytest.raises(JobError):
                executor.run([_spec(workload="no-such-workload")])
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# Status introspection
# ---------------------------------------------------------------------------
class TestStatus:
    def test_query_status_reports_workers(self, cluster):
        from repro.harness.runner import run_spec
        _thread_worker(cluster, run_job=run_spec, worker_id="status-w")
        cluster.daemon.wait_for_workers(1, timeout=10)
        info = query_status(f"127.0.0.1:{cluster.port}")
        assert info["address"].endswith(str(cluster.port))
        assert [w["name"] for w in info["workers"]] == ["status-w"]
        assert info["workers"][0]["state"] == "idle"
        assert info["daemon"]["jobs_done"] == 0

    def test_status_counts_jobs_after_sweep(self, cluster, tmp_path):
        from repro.harness.runner import run_spec
        _thread_worker(cluster, run_job=run_spec, worker_id="count-w")
        cluster.daemon.wait_for_workers(1, timeout=10)
        cluster.executor(tmp_path).run([_spec(seed=31), _spec(seed=32)])
        info = query_status(f"127.0.0.1:{cluster.port}")
        assert info["daemon"]["jobs_done"] == 2
        assert info["daemon"]["jobs_failed"] == 0


# ---------------------------------------------------------------------------
# `--backend cluster` through ExecutionContext
# ---------------------------------------------------------------------------
def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestClusterBackend:
    def test_close_stops_workers_and_frees_the_port(self, tmp_path):
        context = ExecutionContext(backend="cluster",
                                   cache_dir=str(tmp_path),
                                   cluster={"workers": 1})
        try:
            assert context.executor().run([_spec()])[0].cycles > 0
            daemon = context._daemon
            processes = list(daemon._spawned)
            port = daemon.port
        finally:
            context.close()
        assert len(processes) == 1
        assert all(process.poll() is not None for process in processes)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()

    def test_spawned_workers_of_a_plaintext_daemon_ignore_tls_env(
            self, monkeypatch):
        """A fingerprint in the environment is trust for some other
        server; a loopback worker of a plaintext daemon must not dial
        TLS with it."""
        monkeypatch.setenv("REPRO_TLS_FINGERPRINT", "sha256:" + "ab" * 32)
        daemon = ServeDaemon(quiet=True)
        daemon.start()
        try:
            daemon.spawn_local_workers(1)
            assert daemon.wait_for_workers(1, timeout=20) == 1
        finally:
            daemon.close()

    def test_tls_cert_reaches_the_in_process_daemon(self, tmp_path,
                                                    tls_cert):
        cert, key = tls_cert
        specs = _sweep_specs(2)
        serial = Executor(jobs=1, cache=NullCache()).run(specs)
        address = f"127.0.0.1:{_free_port()}"
        context = ExecutionContext(
            backend="cluster", cache_dir=str(tmp_path),
            cluster={"bind": address, "workers": 1,
                     "tls": TLSConfig.server(cert, key)})
        try:
            results = context.executor().run(specs)
            for expected, actual in zip(serial, results):
                assert json.dumps(actual.to_dict(), sort_keys=True) == \
                    json.dumps(expected.to_dict(), sort_keys=True)
            with pytest.raises((OSError, ProtocolError)):
                query_status(address, tls=False)
            info = query_status(address, tls=TLSConfig.client(cafile=cert))
            assert info["daemon"]["tls"] is True
        finally:
            context.close()
