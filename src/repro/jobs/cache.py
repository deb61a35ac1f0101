"""Content-addressed stores: sim results and analysis artifacts, tiered.

Layout, the same for a local cache dir and a shared store dir::

    <dir>/results/<salt>/<spec-key>.json      # one Metrics per file
    <dir>/artifacts/<salt>/<node-hash>.json   # one analysis table per file
    <cache_dir>/runs.jsonl                    # run ledger (see ledger.py)

The *salt* is a hash over every ``repro`` source file, so any code change
invalidates previous entries wholesale -- stale entries from older builds
can never satisfy a lookup.  Entries are written atomically (temp file +
rename) so concurrent executors on the same directory are safe.

Every entry carries a sha256 checksum over the canonical JSON of its
payload: a torn write, bit rot, or a hand-edited file degrades to a
*miss* (the spec is simply re-simulated, the analysis recomputed)
instead of crashing the run or silently feeding it wrong data.

:class:`ContentStore` holds all of that for one kind in one directory;
:class:`ResultCache` and :class:`~repro.specs.artifacts.ArtifactStore`
only say how their values are keyed and decoded.  :class:`CacheStack`
layers a machine-local directory over a shared one (``--store``) for
either kind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from contextlib import contextmanager

from ..analysis.threadsan import make_lock, thread_safe

try:
    import fcntl
except ImportError:              # non-POSIX: degrade to unlocked behaviour
    fcntl = None

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_STORE = "REPRO_STORE_DIR"
_code_salt = None


@contextmanager
def generation_lock(root_dir, *, exclusive=False):
    """Advisory file lock over a store's kind directory (``<root>/.lock``).

    Writers take the lock *shared* (atomic temp-file + rename already
    makes them safe against each other) and pruners take it *exclusive*,
    so a prune scan can never interleave with an in-flight ``put`` --
    previously a prune racing a concurrent writer could delete the
    writer's temp file between its write and its rename, turning the
    ``put`` into an ``os.replace`` crash, or evict an entry the writer
    had just published.  ``flock`` is advisory and per-open-file, so
    every acquisition opens the lock file fresh (thread- and
    process-safe); on platforms without ``fcntl`` this degrades to the
    historical unlocked behaviour.
    """
    if fcntl is None:
        yield
        return
    os.makedirs(root_dir, exist_ok=True)
    fd = os.open(os.path.join(root_dir, ".lock"),
                 os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield
    finally:
        os.close(fd)             # releases the flock


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` > ``$XDG_CACHE_HOME/repro`` > ``~/.cache/repro``."""
    explicit = os.environ.get(_ENV_DIR)
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def default_store_dir():
    """``$REPRO_STORE_DIR``, or ``None`` -- there is no implicit store."""
    return os.environ.get(_ENV_STORE) or None


def code_salt():
    """Hash of the whole ``repro`` package source (cached per process)."""
    global _code_salt
    if _code_salt is None:
        package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(package_dir)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, package_dir).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _code_salt = digest.hexdigest()[:12]
    return _code_salt


def metrics_checksum(metrics_dict):
    """sha256 over the canonical JSON form of a metrics dict."""
    blob = json.dumps(metrics_dict, sort_keys=True,
                      separators=(",", ":"), default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _remove_tree(top):
    """Delete ``top`` and everything under it; returns the file count."""
    removed = 0
    for dirpath, _dirnames, filenames in os.walk(top, topdown=False):
        for filename in filenames:
            os.unlink(os.path.join(dirpath, filename))
            removed += 1
        os.rmdir(dirpath)
    return removed


@thread_safe
class ContentStore:
    """One kind of content-addressed entry under one directory.

    A subclass names its ``kind`` (the subdirectory) and the payload
    ``field`` the checksum covers, and defines ``get``/``put`` over
    :meth:`_read` and :meth:`_write`.  Entries are immutable -- a key's
    bytes are fully determined by its content hash -- so readers need
    no coordination.  The session counters are bumped on whichever
    thread calls ``get`` (the serve daemon's scheduler) and read by
    STATUS replies on connection threads, so they live under a lock.
    """

    kind = None
    field = None

    def __init__(self, root=None, salt=None):
        self.root = root or default_cache_dir()
        self.salt = salt or code_salt()
        self.kind_dir = os.path.join(self.root, self.kind)
        self.generation_dir = os.path.join(self.kind_dir, self.salt)
        self._counter_lock = make_lock(f"{type(self).__name__}._counter_lock")
        self.hits = 0
        self.misses = 0
        self.corrupt = 0             # entries rejected by checksum/schema

    @classmethod
    def tiered(cls, cache_dir, store_dir=None):
        """This kind in ``cache_dir``, stacked over ``store_dir`` if set."""
        local = cls(cache_dir)
        return CacheStack(local, cls(store_dir)) if store_dir else local

    def _path(self, key):
        return os.path.join(self.generation_dir, f"{key}.json")

    def contains(self, key):
        """Existence probe: nothing is read, decoded or counted."""
        return os.path.exists(self._path(key))

    def _reject(self, key, reason):
        """Corrupt entry: count it, warn, drop the file, miss."""
        with self._counter_lock:
            self.corrupt += 1
            self.misses += 1
        warnings.warn(f"entry {self.kind}/{key}.json is corrupt ({reason}); "
                      f"treating as a miss", RuntimeWarning, stacklevel=4)
        try:
            os.unlink(self._path(key))
        except OSError:
            pass                     # concurrent eviction, read-only dir
        return None

    def _read(self, key, decode=None):
        """The checked payload stored under ``key`` (decoded), or ``None``.

        Any defect -- unreadable JSON, a missing or mismatching
        checksum, or a payload ``decode`` cannot rebuild -- degrades to
        a miss (the entry is discarded so the next ``put`` replaces it),
        never an exception and never a wrong value.
        """
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            with self._counter_lock:
                self.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return self._reject(key, "undecodable JSON")
        if not isinstance(payload, dict) or self.field not in payload:
            return self._reject(key, f"no {self.field} payload")
        value = payload[self.field]
        recorded = payload.get("sha256")
        if recorded != metrics_checksum(value):
            return self._reject(
                key, "checksum mismatch" if recorded else "no checksum")
        if decode is not None:
            try:
                value = decode(value)
            except Exception as error:
                # Valid JSON, right checksum, but a schema the current
                # code cannot rebuild (should be impossible within one
                # salt generation -- defend anyway).
                return self._reject(key, f"schema mismatch: {error!r}")
        with self._counter_lock:
            self.hits += 1
        return value

    def _write(self, key, value, **header):
        """Publish ``value`` (after ``header``) atomically under ``key``.

        The generation lock is held *shared* across the temp-file write
        and the rename, so a concurrent prune or clear (which take it
        exclusive) can never evict the entry -- or delete the temp file
        or its directory -- between the steps.  A concurrent writer of
        the same key writes identical bytes, so that race is benign.
        """
        payload = dict(header)
        payload[self.field] = value
        payload["sha256"] = metrics_checksum(value)
        with generation_lock(self.kind_dir):
            os.makedirs(self.generation_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=self.generation_dir,
                                            suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle)
                os.replace(tmp_path, self._path(key))
            except BaseException:
                if os.path.exists(tmp_path):
                    os.unlink(tmp_path)
                raise

    # ------------------------------------------------------------------
    def _generations(self):
        """``{salt: directory}`` for every generation on disk."""
        if not os.path.isdir(self.kind_dir):
            return {}
        generations = {}
        for salt in sorted(os.listdir(self.kind_dir)):
            gen_dir = os.path.join(self.kind_dir, salt)
            if os.path.isdir(gen_dir):
                generations[salt] = gen_dir
        return generations

    def stats(self):
        """Whole-directory view: entries/bytes per salt generation."""
        generations = {}
        for salt, gen_dir in self._generations().items():
            entries = 0
            total = 0
            for dirpath, _dirnames, filenames in os.walk(gen_dir):
                for name in filenames:
                    if not name.endswith(".json"):
                        continue
                    entries += 1
                    try:
                        total += os.path.getsize(os.path.join(dirpath, name))
                    except OSError:
                        pass         # concurrent eviction
            generations[salt] = {"entries": entries, "bytes": total}
        return {"root": self.root, "current_salt": self.salt,
                "generations": generations}

    def prune(self):
        """Delete every *stale* generation (salt != current). Returns count.

        Any source change re-salts the store, so old generations can
        never be read again; pruning reclaims their disk without losing
        entries the current build could still reuse.
        """
        if not os.path.isdir(self.kind_dir):
            return 0
        # Exclusive generation lock across the whole scan: a concurrent
        # writer (shared lock) can never lose an entry -- or its
        # in-flight temp file -- to a racing prune.
        with generation_lock(self.kind_dir, exclusive=True):
            return sum(_remove_tree(gen_dir)
                       for salt, gen_dir in self._generations().items()
                       if salt != self.salt)

    def prune_to_bytes(self, max_bytes):
        """Evict oldest-mtime entries of the *current* generation until it
        fits in ``max_bytes``.  Returns the number of entries removed.

        Stale generations are the business of :meth:`prune`; the size
        budget applies to entries the current build could still reuse,
        trading the least-recently-written ones for disk space.
        """
        if not os.path.isdir(self.generation_dir):
            return 0
        with generation_lock(self.kind_dir, exclusive=True):
            entries = []
            for name in sorted(os.listdir(self.generation_dir)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(self.generation_dir, name)
                try:
                    stat = os.stat(path)
                except FileNotFoundError:      # concurrent eviction
                    continue
                entries.append((stat.st_mtime, name, path, stat.st_size))
            entries.sort()                     # oldest first, name tie-break
            total = sum(size for _mtime, _name, _path, size in entries)
            removed = 0
            for _mtime, _name, path, size in entries:
                if total <= max_bytes:
                    break
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    continue
                total -= size
                removed += 1
        return removed

    def clear(self):
        """Delete every entry of this kind (all generations). Returns count.

        The lock file itself stays, so later writers still serialize
        against later prunes.
        """
        if not os.path.isdir(self.kind_dir):
            return 0
        with generation_lock(self.kind_dir, exclusive=True):
            return sum(_remove_tree(gen_dir)
                       for gen_dir in self._generations().values())


class ResultCache(ContentStore):
    """Maps :class:`~repro.jobs.spec.JobSpec` -> cached ``Metrics``."""

    kind = "results"
    field = "metrics"

    def get(self, spec):
        """Cached :class:`Metrics` for ``spec``, or ``None`` on a miss."""
        # Lazy import: repro.harness pulls in this package at import time.
        from ..harness.metrics import Metrics
        return self._read(spec.key, Metrics.from_dict)

    def put(self, spec, metrics):
        """Persist ``metrics`` atomically; concurrent writers are safe."""
        self._write(spec.key, metrics.to_dict(), spec=spec.to_dict())


class NullCache:
    """Cache stand-in when caching is disabled (``--no-cache``)."""

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def get(self, spec):
        self.misses += 1
        return None

    def put(self, spec, metrics):
        pass

    def contains(self, key):
        return False


class CacheStack:
    """Tiered store: a fast local tier over a shared one.

    ``get`` consults tiers in order and *backfills* upper tiers on a
    lower-tier hit (the second lookup is local); ``put`` publishes to
    every tier, so a run against a stack warms both the machine's own
    cache and the fleet-wide store.  Works for either kind -- result
    caches keyed by spec, artifact stores keyed by node hash -- and
    quacks like a single tier for the executor and the DAG runner.
    """

    def __init__(self, *layers):
        self.layers = [layer for layer in layers if layer is not None]
        self.hits = 0
        self.misses = 0

    def get(self, item):
        for depth, layer in enumerate(self.layers):
            value = layer.get(item)
            if value is not None:
                self.hits += 1
                for upper in self.layers[:depth]:
                    upper.put(item, value)
                return value
        self.misses += 1
        return None

    def put(self, item, value):
        for layer in self.layers:
            layer.put(item, value)

    def contains(self, key):
        return any(layer.contains(key) for layer in self.layers)
