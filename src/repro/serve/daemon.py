"""`repro serve`: an always-on sweep service over one worker fleet.

A :class:`ServeDaemon` is the one class that owns a worker fleet and
the one scheduling loop of the sweep stack: ``repro serve`` runs it as
a long-lived service, ``--backend cluster`` runs a single-session one
inside the sweep process (see :class:`repro.jobs.ExecutionContext`).

It owns the listening socket.  Every dialer is TLS-wrapped (given a
server TLSConfig) and must pass the shared-secret HMAC gate before its
first frame is read; that frame says what it is:

* a **worker** (``HELLO``) -- a loopback subprocess from
  :meth:`ServeDaemon.spawn_local_workers`, or a remote ``repro cluster
  worker --connect`` -- joins the registry and holds at most one job
  *lease* at a time;
* a **client** (``SESSION``) opens a session and streams its sweeps'
  results back as they complete;
* a **status query** (``STATUS``) gets one :meth:`ServeDaemon.status`
  reply.

Workers and clients both offer their protocol version and code salt,
and one check rejects either kind built from a different source tree:
a worker could serve, and a client could submit, results the store
would mis-attribute.  On top of the fleet the daemon adds:

* **concurrent sweep multiplexing** -- every ``SUBMIT`` frame becomes a
  sweep whose jobs enter one :class:`~.fairshare.FairShareQueue`:
  round-robin across sessions, submission order within each;
* **cross-sweep dedup** -- a spec key that is already queued or leased
  is *joined*, not re-run: every watching (session, sweep) receives the
  one result when it lands;
* **the shared store** -- results are published to a
  :class:`~repro.jobs.cache.ResultCache` on the store directory before
  they are streamed, so any other daemon (or this one after a restart)
  serves them as cache hits.

The scheduler carries the whole fault matrix of DESIGN.md (dead or
silent workers and expired leases requeue with backoff, stale-salt
dialers are rejected, ``max_attempts`` and ``worker_grace`` give up)
plus the client-side rows: a client that disconnects mid-sweep loses
only its own undelivered results -- its queued jobs are dropped unless
another session's sweep still wants them, jobs already on a worker
finish into the store, and every other session's sweep proceeds
undisturbed.

Single-writer discipline: scheduling state (``_interest``,
``_inflight``, the workers' leases) is mutated only on the scheduler
thread; the accept and reader threads just put events on ``_events``.
State that *does* cross threads is explicitly synchronized: the worker
list and the ``_stats`` counters live under the daemon lock, which is
never held across a send or another lock, and the session registry and
fair-share queue are internally locked ``@thread_safe`` containers.
"""

from __future__ import annotations

import os
import queue as queue_module
import socket
import subprocess
import sys
import threading
import time

from ..analysis.threadsan import make_lock
from ..cluster.protocol import (AUTH, CHALLENGE, ClusterError, Connection,
                                DRAIN, GOODBYE, HEARTBEAT, HELLO, JOB,
                                JOB_DONE, PROTOCOL_VERSION, ProtocolError,
                                REJECT, RESULT, SESSION, SESSION_OK, STATUS,
                                STATUS_REPLY, SUBMIT, SWEEP_ACCEPTED,
                                SWEEP_DONE, WELCOME, default_secret,
                                verify_mac)
from ..cluster.tls import TLS_ENVIRONMENT
from ..jobs.ledger import NullLedger
from .fairshare import FairShareQueue, ServeJob
from .sessions import SessionRegistry, Sweep


class WorkerHandle:
    """Daemon-side state for one connected worker.

    A worker holds at most one lease.  ``jobs`` maps the leased job's key
    to the job, so a RESULT whose key is not there is recognized as stale
    and ignored; it never holds more than one entry.  ``deadline`` is the
    lease expiry: armed by :meth:`ServeDaemon.lease`, cleared by
    :meth:`ServeDaemon.release` when the result lands.
    """

    def __init__(self, connection, name, host=None, pid=None):
        self.connection = connection
        self.name = name
        self.host = host
        self.pid = pid
        self.last_seen = time.monotonic()
        self.alive = True
        self.killing = False         # close() issued, death event pending
        self.jobs = {}               # job key -> leased job (at most one)
        self.deadline = None         # monotonic lease expiry, or None
        self.done = 0

    @property
    def label(self):
        return self.name or self.connection.peer


class ServeDaemon:
    """Own the fleet; serve sweep submissions from many clients."""

    #: Sentinel: "no secret passed, fall back to $REPRO_CLUSTER_SECRET".
    _SECRET_FROM_ENV = object()

    def __init__(self, host="127.0.0.1", port=0, *, store=None, ledger=None,
                 secret=_SECRET_FROM_ENV, tls=None,
                 job_timeout=None, heartbeat_timeout=15.0,
                 session_timeout=30.0, retry_base=0.25, retry_cap=5.0,
                 max_attempts=3, worker_grace=60.0, poll_interval=0.05,
                 heartbeat_interval=2.0, quiet=False):
        self.host = host
        self.port = port
        # Shared handshake secret: every dialer must answer a CHALLENGE
        # with HMAC-SHA256(secret, nonce) before any other frame is
        # processed.  None disables authentication.
        if secret is ServeDaemon._SECRET_FROM_ENV:
            secret = default_secret()
        self.secret = secret or None
        # Server-side TLSConfig, or None for plaintext.  Accepted sockets
        # are wrapped before any frame is read, so the HMAC handshake
        # (and everything after it) runs inside the encrypted channel.
        self.tls = tls
        #: ResultCache on the store dir (or any get/put cache); None
        #: disables result reuse.
        self.store = store
        #: Daemon-side ledger: audits every job the fleet ran.
        self.ledger = ledger if ledger is not None else NullLedger()
        self.job_timeout = job_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.session_timeout = max(session_timeout, 3 * heartbeat_interval)
        self.heartbeat_interval = heartbeat_interval
        #: A failed lease is retried after ``retry_base * 2^(attempts-1)``
        #: seconds (capped at ``retry_cap``), ``max_attempts`` times in
        #: all; queued jobs fail after ``worker_grace`` seconds with no
        #: live worker.
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.max_attempts = max(1, int(max_attempts))
        self.worker_grace = worker_grace
        self.poll_interval = poll_interval
        self.quiet = quiet
        self.registry = SessionRegistry()
        self.queue = FairShareQueue()
        self._interest = {}          # key -> [(session_id, sweep_id), ...]
        self._inflight = {}          # key -> ServeJob (queued or leased)
        #: (kind, subject, payload) events from the accept and reader
        #: threads; the scheduler thread is their one consumer.
        self._events = queue_module.Queue()
        #: Guards _workers and _stats: the accept, reader and scheduler
        #: threads change them, and STATUS replies read them.
        self._lock = make_lock("ServeDaemon._lock")
        self._workers = []
        self._stats = {"jobs_done": 0, "jobs_failed": 0, "store_hits": 0,
                       "sweeps_done": 0, "sessions_served": 0}
        self._spawned = []
        self._server = None
        self._accept_thread = None
        self._scheduler = None
        self._started_at = None
        self._closing = False
        self._stopped = threading.Event()

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self):
        return f"{self.host}:{self.port}"

    def start(self, workers=0):
        """Bind, start accepting and scheduling, spawn ``workers``.

        With ``workers`` > 0, that many loopback worker subprocesses are
        spawned and the first of them has joined on return.  Returns the
        (host, port) actually bound.
        """
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind((self.host, self.port))
        except OSError as error:
            server.close()
            raise ClusterError(
                f"cannot bind coordinator to {self.address}: {error}"
            ) from error
        server.listen(64)
        self.port = server.getsockname()[1]
        self._server = server
        self._started_at = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True)
        self._accept_thread.start()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="serve-scheduler", daemon=True)
        self._scheduler.start()
        if workers:
            self.spawn_local_workers(workers)
            self.wait_for_workers(1)
        return self.host, self.port

    def close(self):
        """Close sessions, drain workers, stop the server, reap children."""
        if self._closing:
            return
        self._closing = True
        for session in self.registry.live():
            session.connection.close()
        for worker in self.live_workers():
            # Ask each worker to finish its job and exit.
            try:
                worker.connection.send(DRAIN)
            except OSError:
                pass
        if self._server is not None:
            try:
                # Wakes the accept thread: with close() alone, its
                # blocked accept() keeps the port listening.
                self._server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._server.close()
            self._accept_thread.join(timeout=5)
        for process in self._spawned:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        self._spawned = []
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.connection.close()
        if self._scheduler is not None:
            self._scheduler.join(timeout=5)
        self._stopped.set()

    def serve_forever(self):
        """Block until :meth:`close` (for the `repro serve` CLI)."""
        self._stopped.wait()

    def _log(self, text):
        if not self.quiet:
            print(f"[serve] {text}", file=sys.stderr, flush=True)

    # -- the worker fleet ----------------------------------------------
    def spawn_local_workers(self, count):
        """Start ``count`` loopback worker subprocesses; returns Popens."""
        package_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env = os.environ.copy()
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = package_root + (
                os.pathsep + existing if existing else "")
        if self.secret:
            # Hand the handshake secret to loopback workers via the
            # environment, never argv (argv is world-readable in ps).
            env["REPRO_CLUSTER_SECRET"] = self.secret
        if self.tls is not None:
            # Children pin our certificate fingerprint -- trust without
            # distributing any file.
            env.update(self.tls.child_environment())
        else:
            # Inherited TLS trust would make a child dial TLS into our
            # plaintext socket and never join.
            for name in TLS_ENVIRONMENT:
                env.pop(name, None)
        command = [sys.executable, "-m", "repro", "cluster", "worker",
                   "--connect", self.address]
        processes = [subprocess.Popen(command, env=env)
                     for _ in range(count)]
        self._spawned.extend(processes)
        return processes

    def live_workers(self):
        with self._lock:
            return [w for w in self._workers if w.alive]

    def idle_workers(self):
        """Live workers that hold no lease and are not being closed."""
        with self._lock:
            return [w for w in self._workers
                    if w.alive and not w.killing and not w.jobs]

    def wait_for_workers(self, count, timeout=60.0):
        """Block until ``count`` workers are registered (or raise)."""
        deadline = time.monotonic() + timeout
        while True:
            live = len(self.live_workers())
            if live >= count:
                return live
            if time.monotonic() >= deadline:
                raise ClusterError(
                    f"only {live} of {count} worker(s) connected to "
                    f"{self.address} within {timeout:.0f}s")
            time.sleep(0.02)

    # -- accept thread and per-connection threads ----------------------
    def _accept_loop(self):
        while not self._closing:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return                     # server socket closed
            thread = threading.Thread(target=self._serve_connection,
                                      args=(sock,), daemon=True)
            thread.start()

    def _serve_connection(self, sock):
        """Handshake one dialer; its first frame says what it is."""
        try:
            sock.settimeout(10.0)
            if self.tls is not None:
                # Handshake failures (e.g. a plaintext dialer) are
                # OSErrors; the dialer is dropped before any frame.
                sock = self.tls.wrap(sock)
        except (OSError, ValueError):
            try:
                sock.close()
            except OSError:
                pass
            return
        connection = Connection(sock)
        try:
            if not self._authenticate(connection):
                # Drain until the dialer has read the REJECT and closed:
                # closing first can RST away the queued REJECT while the
                # dialer's HELLO is still in flight, and it would see a
                # reset instead of the rejection reason.
                try:
                    while connection.recv() is not None:
                        pass
                except (OSError, ProtocolError):
                    pass
                connection.close()
                return
            message = connection.recv()
            sock.settimeout(None)
        except (OSError, ProtocolError):
            connection.close()
            return
        kind = message.get("type") if message is not None else None
        if kind == STATUS:
            try:
                connection.send(STATUS_REPLY, **self.status())
            except OSError:
                pass
            connection.close()
            return
        if kind not in (HELLO, SESSION):
            connection.close()
            return
        # HELLO names its sender in "worker", SESSION in "client".
        peer = "worker" if kind == HELLO else "client"
        reason = self._refusal(message, peer)
        if reason is not None:
            self._log(f"rejecting {peer} {message.get(peer)}: {reason}")
            try:
                connection.send(REJECT, reason=reason)
            except OSError:
                pass
            connection.close()
            return
        if kind == HELLO:
            self._register_worker(connection, message)
        else:
            self._client_session(connection, message)

    def _authenticate(self, connection):
        """Shared-secret gate, before the first frame is even read.

        With no secret configured this is a no-op.  Otherwise the dialer
        must answer a fresh-nonce CHALLENGE with the right HMAC; anything
        else (a HELLO from an unauthenticated worker, a bad MAC) is
        rejected here, so an untrusted dialer never reaches registration.
        """
        if not self.secret:
            return True
        nonce = os.urandom(16).hex()
        connection.send(CHALLENGE, nonce=nonce)
        answer = connection.recv()
        if answer is None:
            return False
        if answer.get("type") != AUTH:
            reason = (f"authentication required (got {answer.get('type')!r} "
                      f"before auth); dial with --secret")
        elif not verify_mac(self.secret, nonce, answer.get("mac")):
            reason = "authentication failed: wrong shared secret"
        else:
            return True
        print(f"[cluster] rejecting unauthenticated dialer "
              f"{connection.peer}: {reason}", file=sys.stderr)
        try:
            connection.send(REJECT, reason=reason)
        except OSError:
            pass
        return False

    def _refusal(self, frame, peer):
        """Why a HELLO or SESSION frame is refused, or None to admit it."""
        from ..jobs.cache import code_salt
        expected = code_salt()
        if frame.get("version") != PROTOCOL_VERSION:
            return (f"protocol version mismatch (daemon {PROTOCOL_VERSION}, "
                    f"{peer} {frame.get('version')})")
        if frame.get("salt") != expected:
            return (f"code salt mismatch (daemon {expected}, {peer} "
                    f"{frame.get('salt')}): update the {peer}'s source tree")
        return None

    def _register_worker(self, connection, hello):
        """Join the registry, then become the worker's reader loop."""
        worker = WorkerHandle(connection, name=hello.get("worker"),
                              host=hello.get("host"), pid=hello.get("pid"))
        with self._lock:
            self._workers.append(worker)
        try:
            connection.send(WELCOME, coordinator=self.address,
                            version=PROTOCOL_VERSION)
        except OSError:
            self._events.put(("dead", worker, "welcome send failed"))
            return
        self._events.put(("join", worker, None))
        while True:
            try:
                message = connection.recv()
            except (OSError, ProtocolError) as error:
                self._events.put(("dead", worker, repr(error)))
                return
            if message is None:
                self._events.put(("dead", worker, "connection closed"))
                return
            kind = message.get("type")
            worker.last_seen = time.monotonic()
            if kind == RESULT:
                self._events.put(("result", worker, message))
            elif kind == GOODBYE:
                self._events.put(
                    ("left", worker, message.get("reason", "goodbye")))
                return
            elif kind == HEARTBEAT:
                # Echo heartbeats so the worker sees periodic traffic and
                # can bound its recv timeout: a partitioned daemon stops
                # echoing, which is how the worker tells "idle" from
                # "dead" instead of blocking on recv forever.
                try:
                    connection.send(HEARTBEAT)
                except OSError:
                    pass             # death surfaces via recv shortly
            # Unknown types only refresh last_seen (forward compat).

    def _client_session(self, connection, frame):
        """Open a session, then become the client's reader loop."""
        session = self.registry.create(connection, name=frame.get("client"))
        with self._lock:
            self._stats["sessions_served"] += 1
        try:
            connection.send(SESSION_OK, session=session.session_id,
                            version=PROTOCOL_VERSION, daemon=self.address)
        except OSError:
            self._events.put(("client-gone", session, "session-ok failed"))
            return
        self._log(f"session {session.session_id} opened "
                  f"({session.name} @ {connection.peer})")
        while True:
            try:
                message = connection.recv()
            except (OSError, ProtocolError) as error:
                self._events.put(("client-gone", session, repr(error)))
                return
            if message is None:
                self._events.put(("client-gone", session, "disconnected"))
                return
            kind = message.get("type")
            session.last_seen = time.monotonic()
            if kind == SUBMIT:
                self._events.put(("submit", session, message))
            elif kind == HEARTBEAT:
                try:
                    connection.send(HEARTBEAT)
                except OSError:
                    pass             # death surfaces via recv shortly
            elif kind == GOODBYE:
                self._events.put(("client-gone", session, "goodbye"))
                return
            # Unknown types only refresh last_seen (forward compat).

    # -- leases (driven by the scheduler thread) -----------------------
    def _expired_workers(self, now):
        expired = []
        with self._lock:
            workers = [w for w in self._workers if w.alive and not w.killing]
        for worker in workers:
            if worker.deadline is not None and now > worker.deadline:
                expired.append((worker, "job lease timed out"))
            elif now - worker.last_seen > self.heartbeat_timeout:
                expired.append((worker, "heartbeat timeout"))
        return expired

    def lease(self, worker, job, now):
        """Send ``job`` to ``worker``, record the lease, arm its expiry.

        Returns False when the send fails: the worker is closed and a
        ``dead`` event queued, and the caller keeps the job.
        """
        try:
            worker.connection.send(JOB, job_id=job.key,
                                   spec=job.spec.to_dict())
        except OSError as error:
            worker.killing = True
            worker.connection.close()
            self._events.put(("dead", worker, f"send failed: {error}"))
            return False
        worker.jobs[job.key] = job
        worker.deadline = now + self.job_timeout if self.job_timeout else None
        return True

    def release(self, worker, key):
        """A RESULT for ``key`` arrived: end that lease, return its job.

        Returns None for a stale result (no lease on ``key``), which
        leaves the worker's current lease and its expiry alone.
        """
        job = worker.jobs.pop(key, None)
        if not worker.jobs:
            worker.deadline = None
        worker.done += 1
        return job

    def drop_worker(self, worker):
        """Unregister a dead or departed worker; returns its lost jobs."""
        with self._lock:
            worker.alive = False
            if worker in self._workers:
                self._workers.remove(worker)
        worker.connection.close()
        lost = list(worker.jobs.values())
        worker.jobs.clear()
        worker.deadline = None
        return lost

    # -- scheduler thread ----------------------------------------------
    def _scheduler_loop(self):
        last_beat = 0.0
        last_live = time.monotonic()
        while not self._closing:
            now = time.monotonic()
            for worker, reason in self._expired_workers(now):
                worker.killing = True
                worker.connection.close()    # reader thread emits "dead"
                self._log(f"disconnecting worker {worker.label}: {reason}")
            for session in self.registry.expired(now, self.session_timeout):
                session.connection.close()   # reader emits "client-gone"
                self._log(f"session {session.session_id} silent for "
                          f"{self.session_timeout:.0f}s; disconnecting")
            self._dispatch(now)
            # The grace window runs while jobs wait with no live worker:
            # an empty queue restarts it, so idle time never counts.
            if self.live_workers() or not len(self.queue):
                last_live = now
            elif now - last_live > self.worker_grace:
                self._fail_all_queued(
                    f"no live workers for {self.worker_grace:.0f}s")
            if now - last_beat >= self.heartbeat_interval:
                last_beat = now
                for session in self.registry.live():
                    try:
                        session.connection.send(HEARTBEAT)
                    except OSError:
                        self._events.put(
                            ("client-gone", session, "heartbeat failed"))
            try:
                kind, subject, payload = self._events.get(
                    timeout=self.poll_interval)
            except queue_module.Empty:
                continue
            try:
                if kind == "join":
                    self._log(f"worker {subject.label} joined "
                              f"(fleet={len(self.live_workers())})")
                elif kind == "result":
                    job = self.release(subject, payload.get("job_id"))
                    # Skip stale results (the lease was since reassigned).
                    if job is not None and self._inflight.get(job.key) is job:
                        self._finish_job(job, subject, payload)
                elif kind in ("dead", "left"):
                    reason = f"worker {subject.label} {kind}: {payload}"
                    lost = self.drop_worker(subject)
                    self._log(f"{reason} "
                              f"(fleet={len(self.live_workers())})")
                    for job in lost:
                        if self._inflight.get(job.key) is job:
                            self._settle_failure(job, reason)
                elif kind == "submit":
                    self._on_submit(subject, payload)
                elif kind == "client-gone":
                    self._on_client_gone(subject, payload)
            except Exception as error:
                # A bug in one event must not take the scheduler thread
                # (and with it every session) down; log and keep serving.
                self._log(f"error handling {kind!r} event: {error!r}")

    def _dispatch(self, now):
        """Lease the fair-share queue's next job to each idle worker."""
        for worker in self.idle_workers():
            job = self.queue.next_job(now)
            if job is None:
                return
            if not self.lease(worker, job, now):
                self.queue.add(job, front=True)

    # -- sweep submission ----------------------------------------------
    def _on_submit(self, session, message):
        from ..jobs.spec import JobSpec
        if not session.alive:
            return
        try:
            raw = message.get("specs") or []
            specs = [JobSpec.from_dict(item) for item in raw]
        except Exception as error:
            try:
                session.connection.send(
                    REJECT, reason=f"undecodable sweep: {error!r}")
            except OSError:
                pass
            return
        unique = {}
        for spec in specs:
            unique.setdefault(spec.key, spec)
        sweep = Sweep(self.registry.next_sweep_id(), session.session_id,
                      list(unique.values()))
        session.sweeps[sweep.sweep_id] = sweep
        try:
            session.connection.send(SWEEP_ACCEPTED, sweep=sweep.sweep_id,
                                    jobs=sweep.total, submitted=len(raw))
        except OSError:
            self._events.put(("client-gone", session, "accept failed"))
            return
        self._log(f"sweep {sweep.sweep_id}: {sweep.total} job(s) from "
                  f"session {session.session_id}")
        watcher = (session.session_id, sweep.sweep_id)
        for key, spec in sweep.specs.items():
            metrics = self.store.get(spec) if self.store else None
            if metrics is not None:
                with self._lock:
                    self._stats["store_hits"] += 1
                sweep.settle(key, ok=True, cached=True)
                self._send_job_done(session, sweep, key, ok=True,
                                    metrics=metrics, cached=True,
                                    worker="store", wall_s=0.0, retries=0)
                continue
            if key in self._inflight:
                # setdefault: a leased job can outlive its last watcher
                # (the submitter vanished) with its interest entry gone.
                self._interest.setdefault(key, []).append(watcher)
            else:
                job = ServeJob(spec, session.session_id)
                self._inflight[key] = job
                self._interest[key] = [watcher]
                self.queue.add(job)
        if sweep.settled:
            self._finish_sweep(session, sweep)

    # -- results -------------------------------------------------------
    def _finish_job(self, job, worker, payload):
        """Store, ledger and deliver a leased job's RESULT (or retry it)."""
        if payload.get("ok"):
            from ..harness.metrics import Metrics
            metrics = Metrics.from_dict(payload["metrics"])
            wall_s = payload.get("wall_s", 0.0)
            if self.store is not None:
                self.store.put(job.spec, metrics)
            self.ledger.record(job.spec, cache="miss", worker=worker.label,
                               wall_s=wall_s, metrics=metrics,
                               retries=job.attempts)
            with self._lock:
                self._stats["jobs_done"] += 1
            del self._inflight[job.key]
            self._deliver(job.key, ok=True, metrics=metrics, cached=False,
                          worker=worker.label, wall_s=wall_s,
                          retries=job.attempts)
        else:
            self._settle_failure(job,
                                 payload.get("error", "worker error"))

    def _live_watchers(self, key):
        """Interest entries whose session is still connected."""
        watchers = []
        for session_id, sweep_id in self._interest.get(key, ()):
            session = self.registry.get(session_id)
            if session is not None and session.alive:
                watchers.append((session_id, sweep_id))
        return watchers

    def _settle_failure(self, job, error):
        """A lease attempt failed: back off + requeue, or give up."""
        job.attempts += 1
        job.last_error = error
        watchers = self._live_watchers(job.key)
        if not watchers:
            # Every interested client is gone; retrying would burn the
            # fleet on a result nobody will read (and the store only
            # wants successes).
            self._inflight.pop(job.key, None)
            self._interest.pop(job.key, None)
            return
        if job.attempts >= self.max_attempts:
            with self._lock:
                self._stats["jobs_failed"] += 1
            self._inflight.pop(job.key, None)
            self._deliver(job.key, ok=False, error=str(error),
                          retries=job.attempts)
        else:
            backoff = min(self.retry_cap,
                          self.retry_base * (2 ** (job.attempts - 1)))
            job.not_before = time.monotonic() + backoff
            # Ownership may have moved if the original submitter left.
            job.session_id = watchers[0][0]
            self.queue.add(job)

    def _fail_all_queued(self, reason):
        for job in self.queue.drain():
            with self._lock:
                self._stats["jobs_failed"] += 1
            self._inflight.pop(job.key, None)
            self._deliver(job.key, ok=False, error=reason,
                          retries=job.attempts)

    def _deliver(self, key, *, ok, metrics=None, error=None, cached=False,
                 worker=None, wall_s=0.0, retries=0):
        """Stream one settled key to every watching (session, sweep)."""
        for session_id, sweep_id in self._interest.pop(key, ()):
            session = self.registry.get(session_id)
            if session is None or not session.alive:
                continue
            sweep = session.sweeps.get(sweep_id)
            if sweep is None or not sweep.settle(key, ok=ok, cached=cached):
                continue
            if not ok:
                sweep.failed[key] = str(error)
            self._send_job_done(session, sweep, key, ok=ok, metrics=metrics,
                                error=error, cached=cached, worker=worker,
                                wall_s=wall_s, retries=retries)
            if sweep.settled:
                self._finish_sweep(session, sweep)

    def _send_job_done(self, session, sweep, key, *, ok, metrics=None,
                       error=None, cached=False, worker=None, wall_s=0.0,
                       retries=0):
        fields = {"sweep": sweep.sweep_id, "job_id": key, "ok": ok,
                  "cached": cached, "worker": worker, "wall_s": wall_s,
                  "retries": retries}
        if ok:
            fields["metrics"] = metrics.to_dict()
        else:
            fields["error"] = str(error)
        try:
            session.connection.send(JOB_DONE, **fields)
        except OSError:
            self._events.put(("client-gone", session, "job-done failed"))

    def _finish_sweep(self, session, sweep):
        with self._lock:
            self._stats["sweeps_done"] += 1
        session.sweeps_done += 1
        session.sweeps.pop(sweep.sweep_id, None)
        try:
            session.connection.send(
                SWEEP_DONE, sweep=sweep.sweep_id, total=sweep.total,
                done=sweep.done, cached=sweep.cached,
                failed=dict(sweep.failed))
        except OSError:
            self._events.put(("client-gone", session, "sweep-done failed"))
        self._log(f"sweep {sweep.sweep_id} settled: {sweep.done}/"
                  f"{sweep.total} ok ({sweep.cached} from store, "
                  f"{len(sweep.failed)} failed)")

    # -- client departure ----------------------------------------------
    def _on_client_gone(self, session, reason):
        if self.registry.get(session.session_id) is None:
            return                   # duplicate event
        self.registry.remove(session.session_id)
        session.connection.close()
        self._log(f"session {session.session_id} gone ({reason}); "
                  f"{self.queue.queued_for(session.session_id)} queued "
                  f"job(s) affected")
        # Queued jobs owned by the departed session: hand each to the
        # first surviving watcher, or drop it if nobody else wants the
        # key.  Leased jobs (already on a worker) are left to finish --
        # their results still land in the shared store.
        for job in self.queue.drop_session(session.session_id):
            watchers = self._live_watchers(job.key)
            if watchers:
                self._interest[job.key] = watchers
                job.session_id = watchers[0][0]
                self.queue.add(job)
            else:
                self._interest.pop(job.key, None)
                self._inflight.pop(job.key, None)
        # Scrub the departed session from interest lists on jobs it
        # merely watched (owned by others, or leased).
        for key in list(self._interest):
            kept = [w for w in self._interest[key]
                    if w[0] != session.session_id]
            if kept:
                self._interest[key] = kept
            else:
                self._interest.pop(key)
                # A leased job keeps running (the store wants the
                # result); a queued one belongs to another session's
                # queue only if someone watched it, so nothing to drop.

    # -- introspection -------------------------------------------------
    def status(self):
        """The STATUS reply: address, live workers, the daemon section."""
        now = time.monotonic()
        with self._lock:
            live = [w for w in self._workers if w.alive]
            workers = [{
                "name": worker.label,
                "host": worker.host,
                "pid": worker.pid,
                "state": "busy" if worker.jobs else "idle",
                "jobs_done": worker.done,
                "last_seen_s": round(now - worker.last_seen, 3),
            } for worker in live]
            stats = dict(self._stats)
        daemon = {
            "uptime_s": round(now - (self._started_at or now), 3),
            "protocol": PROTOCOL_VERSION,
            "tls": self.tls is not None,
            "fleet": len(live),
            "active_jobs": sum(len(w.jobs) for w in live),
            "queued_jobs": len(self.queue),
            "sessions": self.registry.snapshot(now),
        }
        daemon.update(stats)
        if self.store is not None:
            daemon["store"] = {"hits": self.store.hits,
                               "misses": self.store.misses}
        return {"address": self.address, "workers": workers,
                "daemon": daemon}
