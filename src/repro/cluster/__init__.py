"""Distributed sweep execution over a TCP worker protocol.

``repro.cluster`` scales the ``repro.jobs`` execution engine past one
machine: a :class:`Coordinator` accepts workers over a length-prefixed
JSON-over-TCP protocol (:mod:`.protocol`, optionally under TLS,
:mod:`.tls`), verifies their code salt at handshake, and leases them
content-addressed ``JobSpec``s with heartbeat liveness and per-job lease
timeouts.  Workers are plain ``repro cluster worker --connect
HOST:PORT`` processes -- loopback subprocesses for tests and CI, remote
hosts for full-scale sweeps.  The scheduling loop over those leases
(backoff, reassignment, giving up) is :class:`repro.serve.ServeDaemon`'s:
``--backend cluster`` runs one inside the sweep process and submits
through :class:`repro.serve.ServeExecutor`, the same ``Executor.run``
contract the local process pool implements.  The ledger-learned
:class:`CostModel` orders dispatch longest-expected-first everywhere.
"""

from .coordinator import ClusterError, Coordinator, WorkerHandle
from .costmodel import CostModel
from .protocol import (AuthenticationError, Connection, MAX_MESSAGE_BYTES,
                       PROTOCOL_VERSION, ProtocolError, authenticate_client,
                       compute_mac, default_secret, dial, parse_address,
                       query_status)
from .scheduler import cost_model_for, longest_first
from .tls import (PinnedCertificateError, TLSConfig, TLSConfigError,
                  certificate_fingerprint)
from .worker import Worker, WorkerRejected

__all__ = [
    "AuthenticationError",
    "ClusterError",
    "Connection",
    "Coordinator",
    "CostModel",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "PinnedCertificateError",
    "ProtocolError",
    "TLSConfig",
    "TLSConfigError",
    "Worker",
    "WorkerHandle",
    "WorkerRejected",
    "authenticate_client",
    "certificate_fingerprint",
    "compute_mac",
    "cost_model_for",
    "default_secret",
    "dial",
    "longest_first",
    "parse_address",
    "query_status",
]
