"""The fault injector and the seam wrappers it hands out.

One :class:`FaultInjector` is shared by every wrapped seam of a chaos
run (all worker connections, the cache, the ledger).  All decisions
funnel through :meth:`FaultInjector.decide`, which is content-keyed --
``sha256(seed | site | identity)`` against the rule's probability -- so
the schedule is a pure function of the plan and the spec set, immune to
thread interleaving and retry races.  A probabilistic fault fires only
on the first occurrence of its identity: the retry that follows is
guaranteed to pass the same site, so every injected failure converges.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time

from .plan import FaultPlan, KNOWN_SITES  # noqa: F401  (re-exported)


class WorkerCrash(BaseException):
    """Simulated hard worker death (SIGKILL-equivalent).

    Deliberately a ``BaseException``: the worker's job loop catches
    ``Exception`` to report job failures as ``RESULT {ok: false}``
    without dying, and a *crash* must not be reported -- it has to rip
    straight through the loop like a real kill would, closing the
    connection mid-lease so the coordinator's reassignment path is
    exercised.
    """


def _fraction(seed, site, ident):
    """Deterministic uniform-[0,1) draw keyed on (seed, site, ident)."""
    digest = hashlib.sha256(f"{seed}|{site}|{ident}".encode()).hexdigest()
    return int(digest[:12], 16) / float(16 ** 12)


class FaultInjector:
    """Decides, logs, and applies the faults of one chaos run."""

    def __init__(self, plan):
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan.from_dict(plan)
        self.plan = plan
        self._lock = threading.Lock()
        self._occurrences = {}       # site -> count seen (for `at` rules)
        self._fired_once = set()     # (site, ident) that already fired
        self._log = []               # chronological fired-fault records

    # -- decision core -------------------------------------------------
    def decide(self, site, ident):
        """Should ``site`` fault for ``ident``?  Returns the rule or None.

        Thread-safe; increments the site occurrence counter either way.
        Probabilistic rules fire at most once per ``(site, ident)`` so
        retries of the same job/spec always make progress.
        """
        with self._lock:
            occurrence = self._occurrences.get(site, 0)
            self._occurrences[site] = occurrence + 1
            for rule in self.plan.rules_for(site):
                if occurrence in rule.at:
                    pass             # explicit trigger: fire regardless
                elif (site, ident) in self._fired_once:
                    continue
                elif not (rule.probability
                          and _fraction(self.plan.seed, site, ident)
                          < rule.probability):
                    continue
                self._fired_once.add((site, ident))
                self._log.append({"site": site, "ident": ident,
                                  "occurrence": occurrence})
                return rule
        return None

    def schedule(self):
        """The fired faults as a canonical (sorted) ``site:ident`` list.

        Chronological order varies with thread races; the *set* of fired
        faults does not, so this sorted view is the replayable schedule
        two same-seed runs are compared on.
        """
        with self._lock:
            return sorted(f"{entry['site']}:{entry['ident']}"
                          for entry in self._log)

    def fired(self):
        with self._lock:
            return list(self._log)

    def summary(self):
        counts = {}
        for entry in self.fired():
            counts[entry["site"]] = counts.get(entry["site"], 0) + 1
        return counts

    # -- worker seam ---------------------------------------------------
    def worker_enter(self, job_id):
        """Called as a worker starts a lease: stall or crash pre-result."""
        rule = self.decide("worker.stall", job_id)
        if rule is not None:
            time.sleep(rule.param if rule.param is not None else 3.0)
        if self.decide("worker.crash-before-result", job_id) is not None:
            raise WorkerCrash(f"injected crash before result of {job_id}")

    def worker_exit(self, job_id):
        """Called after the RESULT frame went out: crash post-result."""
        if self.decide("worker.crash-after-result", job_id) is not None:
            raise WorkerCrash(f"injected crash after result of {job_id}")

    # -- seam wrappers -------------------------------------------------
    def wrap_connection(self, connection, scope=""):
        return FaultyConnection(connection, self, scope=scope)

    def wrap_cache(self, cache):
        return FaultyCache(cache, self)

    def wrap_ledger(self, ledger):
        return FaultyLedger(ledger, self)


class FaultyConnection:
    """A :class:`~repro.cluster.protocol.Connection` with send faults.

    Only *job-carrying* frames (those with a ``job_id`` field, i.e.
    ``RESULT``) are fault candidates, identified as ``"<type>:<job_id>"``
    -- handshake and heartbeat frames pass through untouched, which
    keeps the schedule content-keyed (heartbeat counts are timing
    noise).  Receive-direction faults are covered by the peer's send
    side and by the worker/coordinator timeout machinery.
    """

    def __init__(self, connection, injector, scope=""):
        self._inner = connection
        self._injector = injector
        self._scope = scope
        self._partitioned = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def recv(self):
        return self._inner.recv()

    def close(self):
        self._inner.close()

    def send(self, message_type, **fields):
        if self._partitioned:
            return                   # one-way partition swallows everything
        job_id = fields.get("job_id")
        if job_id is None:
            return self._inner.send(message_type, **fields)
        ident = f"{message_type}:{job_id}"
        decide = self._injector.decide
        rule = decide("conn.partition", ident)
        if rule is not None:
            # From this frame on, nothing we send arrives; we still
            # receive.  The peer's heartbeat/lease timeouts must notice.
            self._partitioned = True
            return
        if decide("conn.drop", ident) is not None:
            return                   # this frame silently vanishes
        rule = decide("conn.delay", ident)
        if rule is not None:
            time.sleep(rule.param if rule.param is not None else 0.2)
        if decide("conn.truncate", ident) is not None:
            return self._send_mangled(message_type, fields, truncate=True)
        if decide("conn.corrupt", ident) is not None:
            return self._send_mangled(message_type, fields, truncate=False)
        return self._inner.send(message_type, **fields)

    def _send_mangled(self, message_type, fields, *, truncate):
        """Emit a damaged frame; framing (not luck) must reject it.

        Truncation sends half the frame then closes, desynchronizing
        the stream; corruption keeps the length header but inverts the
        payload bytes, guaranteeing undecodable JSON.  Either way the
        peer sees ``ProtocolError``, never silently-wrong data.
        """
        from ..cluster.protocol import _HEADER, encode
        message = {"type": message_type}
        message.update(fields)
        frame = encode(message)
        sock = self._inner.sock
        with self._inner._send_lock:
            try:
                if truncate:
                    sock.sendall(frame[:max(_HEADER.size, len(frame) // 2)])
                else:
                    header, payload = frame[:_HEADER.size], \
                        frame[_HEADER.size:]
                    sock.sendall(header
                                 + bytes(b ^ 0xFF for b in payload))
            except OSError:
                pass                 # already dead; same outcome
        if truncate:
            self._inner.close()


class FaultyCache:
    """A :class:`ResultCache` whose freshly-written entries can rot.

    Damage is applied *after* a successful ``put`` -- the in-memory
    sweep result is untouched; what's tested is that the next reader
    hits the checksum gate and degrades to a miss instead of consuming
    garbage.
    """

    def __init__(self, cache, injector):
        self._inner = cache
        self._injector = injector

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def get(self, spec):
        return self._inner.get(spec)

    def put(self, spec, metrics):
        self._inner.put(spec, metrics)
        path = self._inner._path(spec.key)
        if self._injector.decide("cache.truncate", spec.key) is not None:
            self._damage(path, truncate=True)
        if self._injector.decide("cache.corrupt", spec.key) is not None:
            self._damage(path, truncate=False)

    @staticmethod
    def _damage(path, *, truncate):
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                if truncate:
                    handle.truncate(max(1, size // 2))
                else:
                    handle.seek(max(0, size // 2))
                    byte = handle.read(1) or b"\x00"
                    handle.seek(max(0, size // 2))
                    handle.write(bytes([byte[0] ^ 0xFF]))
        except OSError:
            pass                     # entry already evicted


class FaultyLedger:
    """A :class:`RunLedger` whose appends can be torn mid-record.

    Mimics a crash between ``write`` and the newline hitting disk: the
    just-appended line is cut in half (then newline-terminated so only
    that one record is lost).  ``RunLedger.read`` must skip it with a
    warning, and resume must treat the spec as incomplete.
    """

    def __init__(self, ledger, injector):
        self._inner = ledger
        self._injector = injector

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def record(self, spec, **kwargs):
        entry = self._inner.record(spec, **kwargs)
        if self._injector.decide("ledger.torn", spec.key) is not None:
            self._tear_last_line()
        return entry

    def record_meta(self, kind, **payload):
        return self._inner.record_meta(kind, **payload)

    def _tear_last_line(self):
        path = self._inner.path
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return
        body = data.rstrip(b"\n")
        cut = body.rfind(b"\n") + 1          # start of the last record
        torn = body[cut:cut + max(1, (len(body) - cut) // 2)]
        with open(path, "wb") as handle:
            handle.write(data[:cut] + torn + b"\n")
