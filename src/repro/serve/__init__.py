"""Always-on sweep service: daemon, fair-share scheduling, shared store.

``repro.serve`` turns the per-sweep cluster coordinator into a
long-running service (``repro serve``) that owns the worker fleet and
serves sweep submissions from many concurrent clients (``repro
submit``) over the protocol-v3 framed-TCP API -- TLS under the HMAC
handshake, round-robin fair-share across client sessions with
longest-expected-first within each, cross-sweep dedup of identical
specs, and a shared content-addressed store (a
:class:`~repro.jobs.cache.ResultCache` on ``--store DIR``) that every
coordinator (and every daemon restart) reads and writes, so cache hits
are fleet-wide instead of per-process.
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
