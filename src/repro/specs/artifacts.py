"""Artifact cache: analysis results keyed by DAG node hash.

The sim half of a DAG is already cached by ``repro.jobs``
(:class:`~repro.jobs.cache.ResultCache`); this is the matching store for
the *analysis* half.  An artifact is the JSON table an analysis node
produced; its key is the node's content hash, which covers the function,
its args, and the full identity of every upstream sim -- so a hit is
sound by construction, and editing one knob upstream re-keys
(invalidates) exactly the affected subgraph.

Artifacts live next to the results they derive from, in the same
:class:`~repro.jobs.cache.ContentStore` layout and tiers::

    <cache_dir>/artifacts/<code salt>/<hash>.json   # local
    <store_dir>/artifacts/<code salt>/<hash>.json   # shared (--store)
"""

from __future__ import annotations

from ..jobs.cache import ContentStore


class ArtifactStore(ContentStore):
    """Content-addressed ``node hash -> artifact dict`` store."""

    kind = "artifacts"
    field = "artifact"

    def get(self, node_hash):
        """The cached artifact for a node hash, or ``None`` on a miss."""
        return self._read(node_hash)

    def put(self, node_hash, artifact):
        """Publish ``artifact`` under ``node_hash`` atomically."""
        self._write(node_hash, artifact)
