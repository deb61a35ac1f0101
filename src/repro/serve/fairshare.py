"""Fair-share job queue: round-robin across sessions, FIFO within.

The serve daemon multiplexes many clients' sweeps over one worker
fleet.  Scheduling is two-level:

* **Across sessions** -- strict round-robin.  Each time a worker goes
  idle the queue offers the *next* session's first job, so a client
  that submits a 10,000-point sweep cannot starve one that submits ten
  points; both make proportional progress.
* **Within a session** -- submission order, the enumeration order every
  other backend dispatches in too.

Each :class:`ServeJob` carries its retry/backoff state (``attempts``,
``not_before``); a backoff-gated job is skipped, not blocking -- the
session's next eligible job (or the next session) runs instead.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from ..analysis.threadsan import make_lock, thread_safe


class ServeJob:
    """One queued simulation, owned by a session, watched by sweeps."""

    __slots__ = ("spec", "session_id", "attempts", "not_before",
                 "last_error")

    def __init__(self, spec, session_id):
        self.spec = spec
        self.session_id = session_id
        self.attempts = 0            # completed lease attempts that failed
        self.not_before = 0.0        # backoff gate (monotonic seconds)
        self.last_error = None

    @property
    def key(self):
        return self.spec.key


@thread_safe
class FairShareQueue:
    """Round-robin-across-sessions queue of :class:`ServeJob` records.

    Mutation happens on the daemon's scheduler thread, but ``__len__``
    and the per-session counts feed STATUS replies built on connection
    threads, so the queue synchronizes internally (``@thread_safe``).
    """

    def __init__(self):
        # session_id -> deque of ServeJob, in within-session priority
        # order.  OrderedDict preserves session arrival order; the
        # rotation cursor walks it circularly.
        self._lock = make_lock("FairShareQueue._lock")
        self._queues = OrderedDict()
        self._cursor = 0             # rotation position among live sessions

    def __len__(self):
        with self._lock:
            return sum(len(q) for q in self._queues.values())

    def queued_for(self, session_id):
        with self._lock:
            return len(self._queues.get(session_id, ()))

    def sessions(self):
        with self._lock:
            return [sid for sid, q in self._queues.items() if q]

    # ------------------------------------------------------------------
    def add(self, job, *, front=False):
        """Queue ``job`` under its session (``front`` for requeues)."""
        with self._lock:
            queue = self._queues.get(job.session_id)
            if queue is None:
                queue = self._queues[job.session_id] = deque()
            if front:
                queue.appendleft(job)
            else:
                queue.append(job)

    def next_job(self, now):
        """Pop the next dispatchable job, or ``None``.

        Walks sessions round-robin starting at the rotation cursor; for
        each, the first job whose backoff gate has passed is taken and
        the cursor advances past that session, so consecutive calls
        spread leases across sessions even when every session has work.
        """
        with self._lock:
            session_ids = list(self._queues.keys())
            if not session_ids:
                return None
            count = len(session_ids)
            for step in range(count):
                index = (self._cursor + step) % count
                queue = self._queues[session_ids[index]]
                for position, job in enumerate(queue):
                    if job.not_before <= now:
                        del queue[position]
                        self._cursor = (index + 1) % count
                        return job
            return None

    def drain(self):
        """Remove and return every queued job (fleet-gone failure path)."""
        with self._lock:
            jobs = [job for queue in self._queues.values() for job in queue]
            self._queues.clear()
            self._cursor = 0
            return jobs

    def drop_session(self, session_id):
        """Remove a session's queued jobs; returns them (for interest
        reassignment -- a job another session still wants must survive
        its owner's disconnect)."""
        with self._lock:
            queue = self._queues.pop(session_id, None)
            self._cursor = 0         # cursor indexes a changed list; reset
            return list(queue) if queue else []
