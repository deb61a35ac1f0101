"""Process-wide execution defaults: worker count, cache, ledger.

The CLI (``--jobs/--no-cache/--cache-dir``) and the environment
(``REPRO_JOBS``, ``REPRO_NO_CACHE``, ``REPRO_CACHE_DIR``) configure one
shared context; experiment code just calls :func:`run_specs` and inherits
it.  Tests can install a scratch context with :func:`configure` /
:func:`set_context`.
"""

from __future__ import annotations

import os

from .cache import (NullCache, ResultCache, default_cache_dir,
                    default_store_dir)
from .executor import Executor, SweepFailureReport
from .ledger import NullLedger, RunLedger

_context = None


class ExecutionContext:
    """Everything an :class:`Executor` needs, built once per process."""

    def __init__(self, jobs=1, cache_dir=None, no_cache=False, timeout=None,
                 ledger_path=None, backend="local", cluster=None,
                 serve=None, store=None, resume=False, on_failure="raise"):
        self.jobs = max(1, int(jobs))
        self.cache_dir = cache_dir or default_cache_dir()
        self.no_cache = bool(no_cache)
        self.timeout = timeout
        #: Shared-store root (``--store`` / $REPRO_STORE_DIR): when set,
        #: the local per-machine cache is stacked over the fleet-wide
        #: content-addressed store, so independent sweeps (and the serve
        #: daemon) share hits through one path.
        self.store_dir = default_store_dir() if store is None else store
        self.cache = (NullCache() if no_cache
                      else ResultCache.tiered(self.cache_dir, self.store_dir))
        # The ledger records runs even when result reuse is off.
        if ledger_path is None:
            ledger_path = os.path.join(self.cache_dir, "runs.jsonl")
        self.ledger_path = ledger_path
        self.ledger = (RunLedger(ledger_path) if ledger_path
                       else NullLedger())
        if backend not in ("local", "cluster", "serve"):
            raise ValueError(f"unknown executor backend {backend!r} "
                             f"(expected 'local', 'cluster' or 'serve')")
        self.backend = backend
        #: Cluster options, for the serve daemon this process starts:
        #: ``bind`` ("HOST:PORT", port 0 = ephemeral), ``workers``
        #: (loopback subprocesses to spawn; 0 = wait for external
        #: ``repro cluster worker --connect`` processes), ``secret``
        #: (shared handshake secret; default ``$REPRO_CLUSTER_SECRET``),
        #: ``tls`` (a server TLSConfig; None = plaintext).
        self.cluster_options = dict(cluster or {})
        #: Serve-backend options: ``connect`` ("HOST:PORT" of a running
        #: `repro serve` daemon), ``secret``, ``tls`` (a client
        #: TLSConfig; None = $REPRO_TLS_* environment).
        self.serve_options = dict(serve or {})
        self._daemon = None
        self._client = None
        #: ``repro sweep --resume``: replay specs the ledger already
        #: records as completed, dispatching only the remainder.  The
        #: index is snapshotted once per context so mid-sweep appends
        #: don't shift the baseline.
        self.resume = bool(resume)
        self._resume_index = None
        #: Failure policy shared by every executor this context builds:
        #: "report" collects exhausted jobs in ``failure_report`` and
        #: returns partial results instead of raising mid-sweep.
        self.on_failure = on_failure
        self.failure_report = SweepFailureReport()

    def resume_index(self):
        if not self.resume:
            return None
        if self._resume_index is None:
            self._resume_index = RunLedger.completed_index(self.ledger_path)
        return self._resume_index

    def executor(self):
        kwargs = dict(cache=self.cache, ledger=self.ledger,
                      timeout=self.timeout, on_failure=self.on_failure,
                      resume_index=self.resume_index(),
                      failure_report=self.failure_report)
        if self.backend == "local":
            return Executor(jobs=self.jobs, **kwargs)
        from ..serve import ServeExecutor
        return ServeExecutor(self._ensure_client(), **kwargs)

    def _ensure_client(self):
        """Open the serve-daemon session on first use."""
        if self._client is None:
            from ..serve import ServeClient
            if self.backend == "cluster":
                address, kwargs = self._start_daemon()
            else:
                address = self.serve_options.get("connect")
                if not address:
                    raise ValueError("serve backend needs a daemon address "
                                     "(--connect HOST:PORT)")
                kwargs = {key: self.serve_options[key]
                          for key in ("secret", "tls")
                          if key in self.serve_options}
            client = ServeClient(address, **kwargs)
            client.connect()
            self._client = client
        return self._client

    def _start_daemon(self):
        """The cluster backend: a serve daemon in this process.

        It has no store and no ledger: this process's executor writes
        the cache and ledger.  Returns the address to dial and the
        client's ``secret``/``tls`` arguments.
        """
        import sys

        from ..cluster import TLSConfig
        from ..cluster.protocol import parse_address
        from ..serve import ServeDaemon
        host, port = parse_address(
            self.cluster_options.get("bind") or "127.0.0.1:0")
        tls = self.cluster_options.get("tls")
        kwargs = {}
        if "secret" in self.cluster_options:
            kwargs["secret"] = self.cluster_options["secret"]
        daemon = self._daemon = ServeDaemon(
            host=host, port=port, tls=tls, job_timeout=self.timeout,
            **kwargs)
        workers = int(self.cluster_options.get("workers", 0))
        daemon.start(workers=workers)
        if workers:
            print(f"[cluster] coordinator on {daemon.address}, "
                  f"spawned {workers} loopback worker(s)", file=sys.stderr)
        else:
            print(f"[cluster] coordinator on {daemon.address}, "
                  f"waiting for workers (`repro cluster worker "
                  f"--connect {daemon.address}`)", file=sys.stderr)
        # The client pins our own certificate, as spawned workers do.
        client_tls = (TLSConfig.client(fingerprint=tls.own_fingerprint())
                      if tls is not None else False)
        return daemon.address, {"secret": daemon.secret, "tls": client_tls}

    def close(self):
        """Release cluster/serve resources (no-op for the local backend)."""
        if self._client is not None:
            self._client.close()
            self._client = None
        if self._daemon is not None:
            self._daemon.close()
            self._daemon = None

    @classmethod
    def from_env(cls):
        return cls(jobs=int(os.environ.get("REPRO_JOBS", "1")),
                   cache_dir=os.environ.get("REPRO_CACHE_DIR"),
                   no_cache=os.environ.get("REPRO_NO_CACHE", "") not in
                   ("", "0"))


def get_context():
    """The current process-wide context (created from env on first use)."""
    global _context
    if _context is None:
        _context = ExecutionContext.from_env()
    return _context


def set_context(context):
    """Install ``context`` (or ``None`` to fall back to env defaults).

    The previous context's cluster resources (if any) are released.
    """
    global _context
    if _context is not None and _context is not context:
        _context.close()
    _context = context
    return context


def close_context():
    """Release the current context's resources without replacing it."""
    if _context is not None:
        _context.close()


def configure(**kwargs):
    """Build + install a context from keyword overrides (CLI entry)."""
    return set_context(ExecutionContext(**kwargs))


def run_specs(specs, context=None):
    """Run JobSpecs under ``context`` (default: the process-wide one).

    Returns a list of Metrics aligned with ``specs``.
    """
    context = context or get_context()
    return context.executor().run(specs)
