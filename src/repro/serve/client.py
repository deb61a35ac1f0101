"""Serve-daemon client: submit sweeps, stream results, Executor backend.

:class:`ServeClient` speaks the protocol-v3 client dialect -- dial (TLS
under HMAC, same as workers), open a ``SESSION``, ``SUBMIT`` sweeps,
consume the ``JOB_DONE`` stream until ``SWEEP_DONE``.  A heartbeat
thread keeps the session visibly alive while the client merely listens,
mirroring the worker's design, and the daemon's heartbeat echoes bound
the client's recv timeout the same way.

:class:`ServeExecutor` plugs the client in behind the standard
``Executor.run(specs) -> [Metrics]`` contract: dedup, local cache
lookups, ledger records, progress, and input-order results are the
shared code paths, so a daemon-served sweep is bit-identical to a local
one.  It is the executor of both remote backends: ``--backend serve``
dials a running daemon, ``--backend cluster`` one started in the sweep
process.  Results the daemon pulled from its shared store arrive flagged
``cached`` and are recorded as ledger hits (worker ``"store"``): no
worker simulated them for this sweep.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from ..cluster.protocol import (CHALLENGE, GOODBYE, HEARTBEAT, JOB_DONE,
                                PROTOCOL_VERSION, ProtocolError, REJECT,
                                SESSION, SESSION_OK, SUBMIT, SWEEP_ACCEPTED,
                                SWEEP_DONE, AuthenticationError,
                                default_secret, dial)
from ..jobs.executor import Executor, JobError


class ServeRejected(RuntimeError):
    """The daemon refused the session or a sweep (salt/version/decode)."""


class ServeClient:
    """One client session against a running ``repro serve`` daemon."""

    #: Sentinel: "no secret passed, fall back to $REPRO_CLUSTER_SECRET".
    _SECRET_FROM_ENV = object()

    def __init__(self, address, *, secret=_SECRET_FROM_ENV, tls=None,
                 client_id=None, salt=None, socket_timeout=5.0,
                 server_timeout=30.0, heartbeat_interval=2.0):
        self.address = address
        if secret is ServeClient._SECRET_FROM_ENV:
            secret = default_secret()
        self.secret = secret or None
        #: Client TLSConfig; None defers to $REPRO_TLS_* (see dial()),
        #: False forces plaintext.
        self.tls = tls
        self.client_id = client_id or \
            f"{socket.gethostname()}-{os.getpid()}"
        self._salt = salt            # tests override; None = real code_salt
        self.socket_timeout = socket_timeout
        self.server_timeout = max(server_timeout, 3 * heartbeat_interval)
        self.heartbeat_interval = heartbeat_interval
        self.session_id = None
        self._connection = None
        self._stop_beat = None

    def _code_salt(self):
        if self._salt is not None:
            return self._salt
        from ..jobs.cache import code_salt
        return code_salt()

    # ------------------------------------------------------------------
    def connect(self):
        """Dial + TLS + HMAC + SESSION handshake (idempotent)."""
        if self._connection is not None:
            return self.session_id
        connection = dial(self.address, timeout=10.0, tls=self.tls,
                          secret=self.secret)
        try:
            connection.sock.settimeout(self.socket_timeout)
            connection.send(SESSION, client=self.client_id,
                            version=PROTOCOL_VERSION, salt=self._code_salt())
            reply = self._recv_bounded(connection)
        except BaseException:
            connection.close()
            raise
        if reply is None:
            connection.close()
            raise ProtocolError("daemon closed during the session handshake")
        kind = reply.get("type")
        if kind == CHALLENGE:
            connection.close()
            raise AuthenticationError(
                "daemon requires a shared secret "
                "(--secret / $REPRO_CLUSTER_SECRET)")
        if kind == REJECT:
            connection.close()
            raise ServeRejected(reply.get("reason", "no reason given"))
        if kind != SESSION_OK:
            connection.close()
            raise ProtocolError(f"expected session-ok, got {kind!r}")
        self.session_id = reply.get("session")
        self._connection = connection
        self._stop_beat = threading.Event()
        threading.Thread(target=self._heartbeat_loop, daemon=True,
                         name=f"serve-client-beat-{self.session_id}").start()
        return self.session_id

    def _heartbeat_loop(self):
        stop, connection = self._stop_beat, self._connection
        while not stop.wait(self.heartbeat_interval):
            try:
                connection.send(HEARTBEAT)
            except OSError:
                return

    def _recv_bounded(self, connection=None):
        """recv tolerating idle timeouts but not a silent/dead daemon."""
        connection = connection or self._connection
        last_frame = time.monotonic()
        while True:
            try:
                return connection.recv()
            except socket.timeout:
                quiet_s = time.monotonic() - last_frame
                if quiet_s >= self.server_timeout:
                    raise ProtocolError(
                        f"no traffic from the serve daemon for "
                        f"{quiet_s:.0f}s (dead or partitioned)") from None

    # ------------------------------------------------------------------
    def run(self, specs, on_result):
        """Submit one sweep; stream completions into ``on_result``.

        ``on_result(spec, metrics, worker=..., retries=..., wall_s=...,
        from_store=...)`` fires on this thread per completed job, so the
        caller's cache and ledger stay single-writer.  Returns ``key ->
        (spec, error, attempts)`` for jobs the daemon gave up on; the
        executor retries those once in its own process.
        """
        from ..harness.metrics import Metrics
        self.connect()
        specs = list(specs)
        by_key = {}
        for spec in specs:
            by_key.setdefault(spec.key, spec)
        self._connection.send(
            SUBMIT, specs=[spec.to_dict() for spec in specs])
        sweep_id = None
        failed = {}
        settled = set()
        while True:
            message = self._recv_bounded()
            if message is None:
                raise ProtocolError("daemon closed mid-sweep")
            kind = message.get("type")
            if kind == HEARTBEAT:
                continue
            if kind == REJECT:
                raise ServeRejected(message.get("reason", "sweep rejected"))
            if kind == SWEEP_ACCEPTED:
                sweep_id = message.get("sweep")
                continue
            if kind == JOB_DONE:
                # Frames before SWEEP_ACCEPTED belong to an earlier sweep
                # on this session (one whose caller stopped reading).
                if sweep_id is None or message.get("sweep") != sweep_id:
                    continue
                key = message.get("job_id")
                spec = by_key.get(key)
                if spec is None or key in settled:
                    continue
                settled.add(key)
                if message.get("ok"):
                    on_result(spec, Metrics.from_dict(message["metrics"]),
                              worker=message.get("worker") or "serve",
                              retries=message.get("retries", 0),
                              wall_s=message.get("wall_s", 0.0),
                              from_store=message.get("cached", False))
                else:
                    failed[key] = (spec,
                                   message.get("error", "daemon error"),
                                   message.get("retries", 0))
                continue
            if kind == SWEEP_DONE:
                if sweep_id is not None and message.get("sweep") == sweep_id:
                    return failed
            # Unknown frame types are ignored for forward compatibility.

    def close(self):
        if self._stop_beat is not None:
            self._stop_beat.set()
        if self._connection is not None:
            try:
                self._connection.send(GOODBYE, reason="client closed")
            except OSError:
                pass
            self._connection.close()
            self._connection = None
        self.session_id = None


class ServeExecutor(Executor):
    """Run JobSpecs: dedup -> local cache -> serve daemon -> ledger."""

    def __init__(self, client, cache=None, ledger=None, timeout=None,
                 progress=None, on_failure="raise", resume_index=None,
                 failure_report=None):
        super().__init__(jobs=1, cache=cache, ledger=ledger, timeout=timeout,
                         progress=progress, on_failure=on_failure,
                         resume_index=resume_index,
                         failure_report=failure_report)
        self.client = client

    def _run_pending(self, pending, unique, results, cached):
        def finish(spec, metrics, *, worker, retries, wall_s,
                   from_store=False):
            # A store-served result warms the local cache but ledgers
            # as a *hit*: no worker simulated it for this sweep.
            self._finish_job(spec, metrics, unique, results, cached,
                             wall_s=wall_s, worker=worker,
                             status="ok" if retries == 0 else "retried",
                             retries=retries,
                             disposition="hit" if from_store else None)

        failed = self.client.run(pending, finish)
        # Last resort, in input order for determinism: one in-parent
        # attempt per given-up job, like the local pool's retry.
        for spec in pending:
            failure = failed.get(spec.key)
            if failure is None:
                continue
            _spec, error, attempts = failure
            try:
                metrics, wall_s = self._retry_in_parent(
                    spec, RuntimeError(f"serve daemon gave up after "
                                       f"{attempts} attempt(s): {error}"))
            except JobError as exhausted:
                self._give_up(spec, exhausted, attempts + 1, unique,
                              results, cached, stage="cluster")
                continue
            self._finish_job(spec, metrics, unique, results, cached,
                             wall_s=wall_s, worker="parent",
                             status="retried", retries=attempts + 1)
