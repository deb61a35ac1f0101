"""Cluster coordinator: listening socket, worker registry, job leases.

The coordinator owns the TCP listening socket.  Workers dial in (local
subprocesses spawned by :meth:`Coordinator.spawn_local_workers`, or
remote hosts running ``repro cluster worker --connect``), handshake with
their code salt -- a worker built from a different source tree is
rejected, so it can never serve results the cache would mis-attribute --
and then hold at most one *lease* at a time.

The coordinator provides the lease steps and turns what happens on its
sockets (joins, results, deaths) into events on one queue;
:class:`repro.serve.ServeDaemon`'s scheduler is the one loop that
consumes them, for ``repro serve`` and ``--backend cluster`` alike.
Fault model (see DESIGN.md for the full matrix):

* worker crash / SIGKILL mid-job: the reader thread sees EOF, the lease
  is reassigned to another worker after a bounded exponential backoff;
* network partition (no FIN): the worker misses heartbeats, the
  coordinator declares it dead after ``heartbeat_timeout`` and reassigns;
* stuck job: the lease's ``job_timeout`` deadline expires, the worker is
  disconnected and the job reassigned;
* job exception on a healthy worker: ``RESULT {ok: false}`` comes back
  and the job is requeued (the worker stays in the pool);
* all workers gone: after ``worker_grace`` seconds with an empty
  registry the remaining jobs are reported as failures so the executor
  can fall back to running them in the parent process.

The scheduler hands a job that fails ``max_attempts`` times back as
failed rather than retrying it forever.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import sys
import threading
import time

from ..analysis.threadsan import make_lock
from .protocol import (AUTH, CHALLENGE, Connection, DRAIN, GOODBYE,
                       HEARTBEAT, HELLO, JOB, PROTOCOL_VERSION,
                       ProtocolError, REJECT, RESULT, SESSION, STATUS,
                       STATUS_REPLY, WELCOME, default_secret, verify_mac)
from .tls import TLS_ENVIRONMENT


class ClusterError(RuntimeError):
    """Cluster-level failure (no workers, bad bind, handshake trouble)."""


class WorkerHandle:
    """Coordinator-side state for one connected worker.

    A worker holds at most one lease.  ``jobs`` maps the leased job's key
    to the job, so a RESULT whose key is not there is recognized as stale
    and ignored; it never holds more than one entry.  ``deadline`` is the
    lease expiry: armed by :meth:`Coordinator.lease`, cleared by
    :meth:`Coordinator.release` when the result lands.
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


class Coordinator:
    """Accepts workers, leases them jobs, expires their leases."""

    #: Sentinel: "no secret passed, fall back to $REPRO_CLUSTER_SECRET".
    _SECRET_FROM_ENV = object()

    def __init__(self, host="127.0.0.1", port=0, *, job_timeout=None,
                 heartbeat_timeout=15.0, secret=_SECRET_FROM_ENV, tls=None):
        self.host = host
        self.port = port
        self.job_timeout = job_timeout
        # Shared handshake secret: every dialer (worker or status client)
        # must answer a CHALLENGE with HMAC-SHA256(secret, nonce) before
        # any other frame is processed.  None disables authentication.
        if secret is Coordinator._SECRET_FROM_ENV:
            secret = default_secret()
        self.secret = secret or None
        # Server-side TLSConfig, or None for plaintext.  Accepted sockets
        # are wrapped before any frame is read, so the HMAC handshake
        # (and everything after it) runs inside the encrypted channel.
        self.tls = tls
        #: Serve-daemon hook: a callable ``(connection, session_frame)``
        #: that takes ownership of a client connection whose first frame
        #: is SESSION; None closes such dialers.
        self.client_handler = None
        #: Serve-daemon hook: extra fields merged into :meth:`status`
        #: replies (uptime, sessions, fleet) for `repro cluster status`.
        self.status_extra = None
        self.heartbeat_timeout = heartbeat_timeout
        self._events = queue.Queue()
        # Guards _workers (accept/reader/serve threads).
        self._lock = make_lock("Coordinator._lock")
        self._workers = []
        self._spawned = []
        self._server = None
        self._accept_thread = None
        self._closing = False

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self):
        return f"{self.host}:{self.port}"

    def start(self):
        """Bind + listen; returns the (host, port) actually bound."""
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
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True)
        self._accept_thread.start()
        return self.host, self.port

    def close(self):
        """Drain workers, stop the server, reap spawned subprocesses."""
        if self._closing:
            return
        self._closing = True
        self.drain()
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
            workers = list(self._workers)
            self._workers = []
        for worker in workers:
            worker.connection.close()

    def drain(self):
        """Ask every connected worker to finish its job and exit."""
        with self._lock:
            workers = [w for w in self._workers if w.alive]
        for worker in workers:
            try:
                worker.connection.send(DRAIN)
            except OSError:
                pass

    # -- worker management ---------------------------------------------
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
                   "--connect", f"{self.host}:{self.port}"]
        processes = [subprocess.Popen(command, env=env)
                     for _ in range(count)]
        self._spawned.extend(processes)
        return processes

    def live_workers(self):
        with self._lock:
            return [w for w in self._workers if w.alive]

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

    # -- accept / reader threads ---------------------------------------
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
        try:
            sock.settimeout(10.0)
            if self.tls is not None:
                # Handshake failures (plaintext dialer, bad client cert)
                # are OSErrors; the dialer is dropped before any frame.
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
        if message is None:
            connection.close()
            return
        kind = message.get("type")
        if kind == STATUS:
            try:
                connection.send(STATUS_REPLY, **self.status())
            except OSError:
                pass
            connection.close()
            return
        if kind == SESSION and self.client_handler is not None:
            # Serve daemon: this thread becomes the session's reader
            # loop; the handler owns the connection from here on.
            self.client_handler(connection, message)
            return
        if kind != HELLO:
            connection.close()
            return
        self._register_worker(connection, message)

    def _authenticate(self, connection):
        """Shared-secret gate, before HELLO/STATUS is even read.

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

    def _expected_salt(self):
        from ..jobs.cache import code_salt
        return code_salt()

    def _register_worker(self, connection, hello):
        expected = self._expected_salt()
        offered = hello.get("salt")
        if hello.get("version") != PROTOCOL_VERSION:
            reason = (f"protocol version mismatch (coordinator "
                      f"{PROTOCOL_VERSION}, worker {hello.get('version')})")
        elif offered != expected:
            reason = (f"code salt mismatch (coordinator {expected}, worker "
                      f"{offered}): update the worker's source tree")
        else:
            reason = None
        if reason is not None:
            print(f"[cluster] rejecting worker "
                  f"{hello.get('worker')}: {reason}", file=sys.stderr)
            try:
                connection.send(REJECT, reason=reason)
            except OSError:
                pass
            connection.close()
            return
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
        self._reader_loop(worker)

    def _reader_loop(self, worker):
        connection = worker.connection
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
                # can bound its recv timeout: a partitioned coordinator
                # stops echoing, which is how the worker tells "idle"
                # from "dead" instead of blocking on recv forever.
                try:
                    connection.send(HEARTBEAT)
                except OSError:
                    pass             # death surfaces via recv shortly
            # Unknown types only refresh last_seen (forward compat).

    # -- leases (the serve daemon's scheduler drives these) ------------
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

    def idle_workers(self):
        """Live workers that hold no lease and are not being closed."""
        with self._lock:
            return [w for w in self._workers
                    if w.alive and not w.killing and not w.jobs]

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

    # -- introspection -------------------------------------------------
    def status(self):
        now = time.monotonic()
        with self._lock:
            workers = [{
                "name": worker.label,
                "host": worker.host,
                "pid": worker.pid,
                "state": "busy" if worker.jobs else "idle",
                "jobs_done": worker.done,
                "last_seen_s": round(now - worker.last_seen, 3),
            } for worker in self._workers if worker.alive]
        info = {"address": self.address, "workers": workers}
        if self.status_extra is not None:
            info.update(self.status_extra())
        return info
