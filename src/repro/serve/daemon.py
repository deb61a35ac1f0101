"""`repro serve`: an always-on sweep service over one worker fleet.

A :class:`ServeDaemon` is the one scheduling loop of the sweep stack.
It embeds a :class:`~repro.cluster.coordinator.Coordinator`, which owns
the listening socket, the TLS/HMAC handshake, the worker registry and
the lease steps, and drives it from one scheduler thread.  ``repro
serve`` runs it as a long-lived service; ``--backend cluster`` runs a
single-session one inside the sweep process (see
:class:`repro.jobs.ExecutionContext`).  On top of the coordinator's
event queue the daemon adds:

* **client sessions** -- a dialer whose first frame is ``SESSION``
  (instead of a worker's ``HELLO``) is handed to the daemon, which
  checks its protocol version and code salt (a client built from a
  different tree would submit specs the store would mis-attribute),
  registers it, and streams results back as they complete;
* **concurrent sweep multiplexing** -- every ``SUBMIT`` frame becomes a
  sweep whose jobs enter one :class:`~.fairshare.FairShareQueue`:
  round-robin across sessions, longest-expected-first within each
  (learned from the daemon's ledger);
* **cross-sweep dedup** -- a spec key that is already queued or leased
  is *joined*, not re-run: every watching (session, sweep) receives the
  one result when it lands;
* **the shared store** -- results are published to a
  :class:`~repro.jobs.cache.ResultCache` on the store directory before
  they are streamed, so any other coordinator (or this daemon after a
  restart) serves them as cache hits.

The scheduler carries the whole cluster fault matrix (dead workers
requeue leases with backoff, stuck jobs expire, stale-salt dialers are
rejected, ``max_attempts`` and ``worker_grace`` give up) plus the
client-side rows: a client that disconnects mid-sweep loses only its
own undelivered results -- its queued jobs are dropped unless another
session's sweep still wants them, jobs already on a worker finish into
the store, and every other session's sweep proceeds undisturbed.

Single-writer discipline: scheduling state (``_interest``,
``_inflight``) is mutated only on the scheduler thread; reader threads
just enqueue events, exactly the coordinator's own design.  State that
*does* cross threads is explicitly synchronized: the ``_stats``
counters (bumped on reader threads and the scheduler, read by STATUS
replies) live under the daemon lock, and the session registry and
fair-share queue are internally locked ``@thread_safe`` containers.
"""

from __future__ import annotations

import queue as queue_module
import sys
import threading
import time

from ..cluster.coordinator import Coordinator
from ..cluster.protocol import (GOODBYE, HEARTBEAT, JOB_DONE,
                                PROTOCOL_VERSION, ProtocolError, REJECT,
                                SESSION_OK, SUBMIT, SWEEP_ACCEPTED,
                                SWEEP_DONE)
from ..analysis.threadsan import make_lock
from ..cluster.scheduler import cost_model_for, longest_first
from ..jobs.ledger import NullLedger
from .fairshare import FairShareQueue, ServeJob
from .sessions import SessionRegistry, Sweep


class ServeDaemon:
    """Own the fleet; serve sweep submissions from many clients."""

    def __init__(self, host="127.0.0.1", port=0, *, store=None, ledger=None,
                 secret=Coordinator._SECRET_FROM_ENV, tls=None,
                 job_timeout=None, heartbeat_timeout=15.0,
                 session_timeout=30.0, retry_base=0.25, retry_cap=5.0,
                 max_attempts=3, worker_grace=60.0, poll_interval=0.05,
                 heartbeat_interval=2.0, quiet=False):
        self.coordinator = Coordinator(
            host=host, port=port, job_timeout=job_timeout,
            heartbeat_timeout=heartbeat_timeout, secret=secret, tls=tls)
        self.coordinator.client_handler = self._client_session
        self.coordinator.status_extra = self._status_extra
        #: ResultCache on the store dir (or any get/put cache); None
        #: disables result reuse.
        self.store = store
        #: Daemon-side ledger: feeds the cost model and audits the fleet.
        self.ledger = ledger if ledger is not None else NullLedger()
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
        self._cost_model = None
        self._cost_model_loaded = False
        #: Guards _stats: counters are bumped from per-connection reader
        #: threads and the scheduler, and read by STATUS replies.
        self._lock = make_lock("ServeDaemon._lock")
        self._stats = {"jobs_done": 0, "jobs_failed": 0, "store_hits": 0,
                       "sweeps_done": 0, "sessions_served": 0}
        self._started_at = None
        self._closing = False
        self._stopped = threading.Event()
        self._scheduler = None

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self):
        return self.coordinator.address

    def start(self, workers=0):
        """Bind, start the scheduler, optionally spawn loopback workers."""
        self.coordinator.start()
        self._started_at = time.monotonic()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="serve-scheduler", daemon=True)
        self._scheduler.start()
        if workers:
            self.coordinator.spawn_local_workers(workers)
            self.coordinator.wait_for_workers(1)
        return self.coordinator.host, self.coordinator.port

    def close(self):
        if self._closing:
            return
        self._closing = True
        for session in self.registry.live():
            session.connection.close()
        self.coordinator.close()
        if self._scheduler is not None:
            self._scheduler.join(timeout=5)
        self._stopped.set()

    def serve_forever(self):
        """Block until :meth:`close` (for the `repro serve` CLI)."""
        self._stopped.wait()

    def _log(self, text):
        if not self.quiet:
            print(f"[serve] {text}", file=sys.stderr, flush=True)

    # -- client connections (per-connection reader threads) ------------
    def _client_session(self, connection, frame):
        """Own a client connection; runs on its accept thread."""
        from ..jobs.cache import code_salt
        expected = code_salt()
        if frame.get("version") != PROTOCOL_VERSION:
            reason = (f"protocol version mismatch (daemon "
                      f"{PROTOCOL_VERSION}, client {frame.get('version')})")
        elif frame.get("salt") != expected:
            reason = (f"code salt mismatch (daemon {expected}, client "
                      f"{frame.get('salt')}): update the client's tree")
        else:
            reason = None
        if reason is not None:
            self._log(f"rejecting client {frame.get('client')}: {reason}")
            try:
                connection.send(REJECT, reason=reason)
            except OSError:
                pass
            connection.close()
            return
        session = self.registry.create(connection, name=frame.get("client"))
        with self._lock:
            self._stats["sessions_served"] += 1
        try:
            connection.send(SESSION_OK, session=session.session_id,
                            version=PROTOCOL_VERSION,
                            daemon=self.coordinator.address)
        except OSError:
            self._events().put(("client-gone", session, "session-ok failed"))
            return
        self._log(f"session {session.session_id} opened "
                  f"({session.name} @ {connection.peer})")
        while True:
            try:
                message = connection.recv()
            except (OSError, ProtocolError) as error:
                self._events().put(("client-gone", session, repr(error)))
                return
            if message is None:
                self._events().put(("client-gone", session, "disconnected"))
                return
            kind = message.get("type")
            session.last_seen = time.monotonic()
            if kind == SUBMIT:
                self._events().put(("submit", session, message))
            elif kind == HEARTBEAT:
                try:
                    connection.send(HEARTBEAT)
                except OSError:
                    pass             # death surfaces via recv shortly
            elif kind == GOODBYE:
                self._events().put(("client-gone", session, "goodbye"))
                return
            # Unknown types only refresh last_seen (forward compat).

    def _events(self):
        return self.coordinator._events

    # -- scheduler thread ----------------------------------------------
    def _scheduler_loop(self):
        coordinator = self.coordinator
        last_beat = 0.0
        last_live = time.monotonic()
        while not self._closing:
            now = time.monotonic()
            for worker, reason in coordinator._expired_workers(now):
                worker.killing = True
                worker.connection.close()    # reader thread emits "dead"
                self._log(f"disconnecting worker {worker.label}: {reason}")
            for session in self.registry.expired(now, self.session_timeout):
                session.connection.close()   # reader emits "client-gone"
                self._log(f"session {session.session_id} silent for "
                          f"{self.session_timeout:.0f}s; disconnecting")
            self._dispatch(now)
            if coordinator.live_workers():
                last_live = now
            elif len(self.queue) and now - last_live > self.worker_grace:
                self._fail_all_queued(
                    f"no live workers for {self.worker_grace:.0f}s")
            if now - last_beat >= self.heartbeat_interval:
                last_beat = now
                for session in self.registry.live():
                    try:
                        session.connection.send(HEARTBEAT)
                    except OSError:
                        self._events().put(
                            ("client-gone", session, "heartbeat failed"))
            try:
                kind, subject, payload = self._events().get(
                    timeout=self.poll_interval)
            except queue_module.Empty:
                continue
            try:
                if kind == "join":
                    self._log(f"worker {subject.label} joined "
                              f"(fleet={len(coordinator.live_workers())})")
                elif kind == "result":
                    job = coordinator.release(subject, payload.get("job_id"))
                    # Skip stale results (the lease was since reassigned).
                    if job is not None and self._inflight.get(job.key) is job:
                        self._finish_job(job, subject, payload)
                elif kind in ("dead", "left"):
                    reason = f"worker {subject.label} {kind}: {payload}"
                    lost = coordinator.drop_worker(subject)
                    self._log(f"{reason} "
                              f"(fleet={len(coordinator.live_workers())})")
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
        for worker in self.coordinator.idle_workers():
            job = self.queue.next_job(now)
            if job is None:
                return
            if not self.coordinator.lease(worker, job, now):
                self.queue.add(job, front=True)

    # -- sweep submission ----------------------------------------------
    def _cost_model_lazy(self):
        if not self._cost_model_loaded:
            self._cost_model = cost_model_for(self.ledger)
            self._cost_model_loaded = True
        return self._cost_model

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
        ordered = longest_first(list(unique.values()),
                                self._cost_model_lazy())
        sweep = Sweep(self.registry.next_sweep_id(), session.session_id,
                      ordered)
        session.sweeps[sweep.sweep_id] = sweep
        try:
            session.connection.send(SWEEP_ACCEPTED, sweep=sweep.sweep_id,
                                    jobs=sweep.total, submitted=len(raw))
        except OSError:
            self._events().put(("client-gone", session, "accept failed"))
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
            self._events().put(("client-gone", session, "job-done failed"))

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
            self._events().put(("client-gone", session, "sweep-done failed"))
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
    def _status_extra(self):
        """Daemon fields merged into STATUS replies (cluster status CLI)."""
        now = time.monotonic()
        live = self.coordinator.live_workers()
        info = {
            "uptime_s": round(now - (self._started_at or now), 3),
            "protocol": PROTOCOL_VERSION,
            "tls": self.coordinator.tls is not None,
            "fleet": len(live),
            "active_jobs": sum(len(w.jobs) for w in live),
            "queued_jobs": len(self.queue),
            "sessions": self.registry.snapshot(now),
        }
        with self._lock:
            info.update(self._stats)
        if self.store is not None:
            info["store"] = {"hits": self.store.hits,
                             "misses": self.store.misses}
        return {"daemon": info}
