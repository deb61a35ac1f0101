"""Always-on sweep service: daemon, fair-share scheduling, shared store.

``repro.serve`` holds the :class:`ServeDaemon`, the one class that owns
a worker fleet: its socket, worker registry and leases.  ``repro
serve`` runs it as a long-running service that serves sweep
submissions from many concurrent clients (``repro submit``) over the
protocol-v3 framed-TCP API -- TLS under the HMAC handshake, round-robin
fair-share across client sessions in submission order within each,
cross-sweep dedup of identical specs, and a shared content-addressed
store (a :class:`~repro.jobs.cache.ResultCache` on ``--store DIR``)
that every daemon (and every daemon restart) reads and writes, so cache
hits are fleet-wide instead of per-process.  ``--backend cluster`` runs
a single-session daemon inside the sweep process.
"""

from .client import ServeClient, ServeExecutor, ServeRejected
from .daemon import ServeDaemon
from .fairshare import FairShareQueue, ServeJob
from .sessions import Session, SessionRegistry, Sweep

__all__ = [
    "FairShareQueue",
    "ServeClient",
    "ServeDaemon",
    "ServeExecutor",
    "ServeJob",
    "ServeRejected",
    "Session",
    "SessionRegistry",
    "Sweep",
]
