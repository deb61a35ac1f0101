"""Distributed sweep execution over a TCP worker protocol.

``repro.cluster`` scales the ``repro.jobs`` execution engine past one
machine.  It holds the length-prefixed JSON-over-TCP protocol
(:mod:`.protocol`, optionally under TLS, :mod:`.tls`) and the worker
that speaks it: plain ``repro cluster worker --connect HOST:PORT``
processes -- loopback subprocesses for tests and CI, remote hosts for
full-scale sweeps.  The other end of every connection is
:class:`repro.serve.ServeDaemon`: it verifies each worker's code salt
at handshake and leases it content-addressed ``JobSpec``s with
heartbeat liveness and per-job lease timeouts.  ``--backend cluster``
runs one daemon inside the sweep process and submits through
:class:`repro.serve.ServeExecutor`, the same ``Executor.run`` contract
the local process pool implements.  Every backend dispatches in
enumeration order.
"""

from .protocol import (AuthenticationError, ClusterError, Connection,
                       MAX_MESSAGE_BYTES, PROTOCOL_VERSION, ProtocolError,
                       authenticate_client, compute_mac, default_secret,
                       dial, parse_address, query_status)
from .tls import (PinnedCertificateError, TLSConfig, TLSConfigError,
                  certificate_fingerprint)
from .worker import Worker, WorkerRejected

__all__ = [
    "AuthenticationError",
    "ClusterError",
    "Connection",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "PinnedCertificateError",
    "ProtocolError",
    "TLSConfig",
    "TLSConfigError",
    "Worker",
    "WorkerRejected",
    "authenticate_client",
    "certificate_fingerprint",
    "compute_mac",
    "default_secret",
    "dial",
    "parse_address",
    "query_status",
]
