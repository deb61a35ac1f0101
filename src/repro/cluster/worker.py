"""Cluster worker: dial a coordinator, run leased jobs, stream results.

A worker owns no cache and no ledger -- it connects to the coordinator
(``repro cluster worker --connect HOST:PORT``), authenticates its source
tree via the code salt, then loops: receive a ``JOB`` frame, simulate it
with :func:`repro.harness.runner.run_spec`, send the ``RESULT`` back.
A daemon thread heartbeats while a simulation runs (CPython's preemptive
thread switching guarantees it gets scheduled), so the coordinator can
tell a busy worker from a dead one.

Job exceptions are reported as ``RESULT {ok: false}`` and never kill the
worker; a lost connection triggers bounded reconnect attempts
(``--reconnect N``), which is also how a drained worker rejoins a new
sweep on the same coordinator address.

The socket always carries a bounded timeout: the coordinator echoes
every heartbeat, so a healthy connection sees traffic at least every
``heartbeat_interval`` seconds even when the worker is idle.  If no
frame arrives for ``coordinator_timeout`` seconds the coordinator is
declared dead (crashed mid-job, or a one-way partition swallowed its
frames) and the worker exits nonzero with a one-line message instead of
hanging on recv forever.

The coordinator leases a worker one job at a time, so a worker never
holds more than one ``JOB``: it answers each with a ``RESULT`` before
the next one is sent.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time

from ..analysis.threadsan import make_lock
from .protocol import (AuthenticationError, CHALLENGE, Connection, DRAIN,
                       GOODBYE, HEARTBEAT, HELLO, JOB, PROTOCOL_VERSION,
                       ProtocolError, REJECT, RESULT, WELCOME,
                       authenticate_client, default_secret, parse_address)


class WorkerRejected(RuntimeError):
    """The coordinator refused the handshake (auth/salt/version mismatch)."""


def _default_run_job(spec):
    from ..harness.runner import run_spec
    return run_spec(spec)


class Worker:
    """One worker loop; ``serve()`` blocks until drained or disconnected."""

    #: Sentinel: "no secret passed, fall back to $REPRO_CLUSTER_SECRET".
    _SECRET_FROM_ENV = object()
    #: Sentinel: "no TLS config passed, fall back to $REPRO_TLS_*".
    _TLS_FROM_ENV = object()

    def __init__(self, address, worker_id=None, max_jobs=None, reconnect=0,
                 reconnect_delay=0.5, heartbeat_interval=2.0, run_job=None,
                 salt=None, quiet=None, secret=_SECRET_FROM_ENV,
                 socket_timeout=5.0, coordinator_timeout=20.0,
                 injector=None, tls=_TLS_FROM_ENV):
        self.host, self.port = parse_address(address)
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.max_jobs = max_jobs
        self.reconnect = max(0, int(reconnect))
        self.reconnect_delay = reconnect_delay
        self.heartbeat_interval = heartbeat_interval
        # Bounded recv timeout + the staleness window after which a
        # silent coordinator (no frames, not even heartbeat echoes) is
        # declared dead.  The window must comfortably exceed one
        # heartbeat round-trip; the job runner never blocks recv, so a
        # busy worker is unaffected.
        self.socket_timeout = socket_timeout
        self.coordinator_timeout = max(coordinator_timeout,
                                       3 * heartbeat_interval)
        self._run_job = run_job or _default_run_job
        self._salt = salt            # tests override; None = real code_salt()
        if secret is Worker._SECRET_FROM_ENV:
            secret = default_secret()
        self.secret = secret or None
        # Client-side TLSConfig (CA verify or fingerprint pinning), or
        # None for plaintext.  Spawned loopback workers inherit the
        # coordinator's trust material through $REPRO_TLS_*.
        if tls is Worker._TLS_FROM_ENV:
            from .tls import TLSConfig
            tls = TLSConfig.from_env()
        self.tls = tls or None
        # Optional repro.faults.FaultInjector wrapping this worker's
        # connection (frame drop/delay/corruption/partition injection).
        self.injector = injector
        if quiet is None:
            quiet = os.environ.get("REPRO_PROGRESS", "") == "0"
        self.quiet = quiet
        # Guards jobs_done: bumped on the serve loop, read by the
        # heartbeat thread for HEARTBEAT frames.
        self._lock = make_lock("Worker._lock")
        self.jobs_done = 0

    # ------------------------------------------------------------------
    def _log(self, text):
        if not self.quiet:
            print(f"[worker {self.worker_id}] {text}", file=sys.stderr,
                  flush=True)

    def _code_salt(self):
        if self._salt is not None:
            return self._salt
        from ..jobs.cache import code_salt
        return code_salt()

    # ------------------------------------------------------------------
    def serve(self):
        """Run until drained (0), rejected (2), or connection lost (1)."""
        attempts = self.reconnect
        while True:
            try:
                return self._serve_once()
            except WorkerRejected as error:
                self._log(f"rejected by coordinator: {error}")
                return 2
            except AuthenticationError as error:
                # Wrong/missing secret is a config problem, not a flaky
                # network: retrying would spam the coordinator's log.
                self._log(f"authentication failed: {error}")
                return 2
            except (OSError, ProtocolError) as error:
                if attempts <= 0:
                    self._log(f"connection lost: {error}")
                    return 1
                attempts -= 1
                self._log(f"reconnecting after error ({error}); "
                          f"{attempts} attempt(s) left")
                time.sleep(self.reconnect_delay)

    def _serve_once(self):
        sock = socket.create_connection((self.host, self.port), timeout=10)
        # Keep a bounded timeout for the whole session (not settimeout
        # (None)): a coordinator that dies mid-job or gets partitioned
        # away must not hang this worker on send/recv forever.
        sock.settimeout(self.socket_timeout)
        if self.tls is not None:
            # TLS first, so the HMAC handshake (and every frame after)
            # runs inside the encrypted channel.  A pinning mismatch is
            # a PinnedCertificateError (an SSLError/OSError) and lands
            # in serve()'s reconnect path like any dead connection.
            sock = self.tls.wrap(sock)
        connection = Connection(sock)
        if self.injector is not None:
            connection = self.injector.wrap_connection(
                connection, scope=self.worker_id)
        try:
            authenticate_client(connection, self.secret)
        except socket.timeout:
            # A coordinator running *without* a secret never challenges:
            # it is silently waiting for our HELLO while we wait for its
            # CHALLENGE.  Surface the config mismatch instead of retrying.
            raise WorkerRejected(
                f"no auth challenge within {self.socket_timeout:.0f}s -- "
                f"a secret is configured here but the coordinator appears "
                f"to run without one") from None
        connection.send(HELLO, worker=self.worker_id,
                        host=socket.gethostname(), pid=os.getpid(),
                        salt=self._code_salt(), version=PROTOCOL_VERSION)
        reply = self._recv_bounded(connection)
        if reply is None:
            raise ProtocolError("coordinator closed during handshake")
        if reply.get("type") == REJECT:
            raise WorkerRejected(reply.get("reason", "no reason given"))
        if reply.get("type") == CHALLENGE:
            # We dialed without a secret and the coordinator wants one.
            raise WorkerRejected(
                "coordinator requires a shared secret "
                "(--secret / $REPRO_CLUSTER_SECRET)")
        if reply.get("type") != WELCOME:
            raise ProtocolError(f"expected welcome, got {reply.get('type')!r}")
        self._log(f"connected to {self.host}:{self.port}")
        stop = threading.Event()
        beat = threading.Thread(target=self._heartbeat_loop,
                                args=(connection, stop), daemon=True)
        beat.start()
        try:
            while True:
                message = self._recv_bounded(connection)
                if message is None:
                    raise ProtocolError("coordinator closed the connection")
                kind = message.get("type")
                if kind == JOB:
                    self._run_one(connection, message)
                    with self._lock:
                        self.jobs_done += 1
                    if self.max_jobs is not None \
                            and self.jobs_done >= self.max_jobs:
                        connection.send(GOODBYE, reason="max-jobs")
                        self._log(f"served {self.jobs_done} job(s); leaving")
                        return 0
                elif kind == DRAIN:
                    connection.send(GOODBYE, reason="drained")
                    self._log("drained")
                    return 0
                # Unknown frame types are ignored for forward compatibility.
        finally:
            stop.set()
            connection.close()

    def _recv_bounded(self, connection):
        """``recv`` that tolerates idle timeouts but not a dead peer.

        An idle ``socket.timeout`` at a frame boundary is normal (no
        lease right now); but the coordinator echoes every heartbeat, so
        going ``coordinator_timeout`` seconds without a single frame
        means it is gone -- raise and let ``serve`` reconnect or exit
        with a one-line message instead of blocking forever.
        """
        last_frame = time.monotonic()
        while True:
            try:
                return connection.recv()
            except socket.timeout:
                quiet_s = time.monotonic() - last_frame
                if quiet_s >= self.coordinator_timeout:
                    raise ProtocolError(
                        f"no traffic from coordinator for {quiet_s:.0f}s "
                        f"(dead or partitioned)") from None

    # ------------------------------------------------------------------
    def _heartbeat_loop(self, connection, stop):
        while not stop.wait(self.heartbeat_interval):
            try:
                with self._lock:
                    done = self.jobs_done
                connection.send(HEARTBEAT, jobs_done=done)
            except OSError:
                return

    def _run_one(self, connection, message):
        from ..jobs.spec import JobSpec
        job_id = message.get("job_id")
        if self.injector is not None:
            # May stall past the lease timeout or raise WorkerCrash -- a
            # BaseException, so the `except Exception` below cannot turn
            # a simulated hard crash into a polite failure report.
            self.injector.worker_enter(job_id)
        start = time.perf_counter()
        try:
            metrics = self._run_job(JobSpec.from_dict(message["spec"]))
            connection.send(RESULT, job_id=job_id, ok=True,
                            metrics=metrics.to_dict(),
                            wall_s=time.perf_counter() - start)
        except Exception as error:
            # The job failed, not the worker: report and stay available.
            connection.send(RESULT, job_id=job_id, ok=False,
                            error=repr(error),
                            wall_s=time.perf_counter() - start)
        if self.injector is not None:
            self.injector.worker_exit(job_id)
