"""Canonical description of one simulation: the unit of work.

A :class:`JobSpec` pins down everything that determines a simulation's
result -- workload name and parameters, the full :class:`SimConfig`, the
build seed, and a fingerprint of any named input (graph specs) -- and
hashes all of it into a stable content key.  Two specs with the same key
are guaranteed to produce the same :class:`~repro.harness.metrics.Metrics`
(the simulator is deterministic), which is what makes the result cache
and cross-figure deduplication sound.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..config import (SimConfig, canonical_digest, config_from_dict,
                      config_to_dict)


def _input_fingerprint(workload, params):
    """Content identity of named inputs the workload name doesn't pin down.

    GAP kernels take a ``graph`` parameter naming an entry of
    ``GRAPH_INPUTS``; the registry entry can differ between sessions (tests
    register scaled-down inputs under fresh names), so the generator
    parameters must be part of the job identity, not just the name.
    """
    graph = params.get("graph")
    if graph is None:
        return {}
    from ..workloads.graphs import GRAPH_INPUTS
    spec = GRAPH_INPUTS.get(graph)
    if spec is None:
        return {}
    return {"graph": asdict(spec)}


@dataclass(frozen=True)
class JobSpec:
    """One simulation, ready to run anywhere (including a worker process).

    ``key`` and ``config_digest`` are derived from one canonical form,
    once, in ``__post_init__`` (which ``from_dict`` and
    ``dataclasses.replace`` run too).  They cannot go stale: the config is
    frozen, and nothing writes ``params`` or ``inputs`` after
    construction.  Computing them eagerly also lets threads share a spec
    without a lock.
    """

    workload: str                     # name in repro.workloads.ALL_WORKLOADS
    config: SimConfig
    params: dict = field(default_factory=dict)   # workload kwargs (graph=...)
    seed: int = 12345
    label: str = ""                   # display label, e.g. "bfs_KR"
    inputs: dict = field(default_factory=dict)   # named-input fingerprint
    #: Stable content hash of the canonical form -- the cache / dedup
    #: identity.
    key: str = field(init=False, repr=False, compare=False)
    #: Stable hash of the config alone (``config_digest(config)``): the
    #: cost model's feature key and the ``--resume`` config check.
    config_digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", self.workload)
        if not self.inputs:
            object.__setattr__(
                self, "inputs", _input_fingerprint(self.workload, self.params))
        canonical = self.canonical()
        object.__setattr__(self, "key", canonical_digest(canonical, 24))
        object.__setattr__(self, "config_digest",
                           canonical_digest(canonical["config"], 16))

    @property
    def technique(self):
        return self.config.technique

    # ------------------------------------------------------------------
    def canonical(self):
        """JSON-stable dict of everything that determines the result.

        ``label`` is presentation-only and deliberately excluded.
        """
        return {
            "workload": self.workload,
            "params": self.params,
            "seed": self.seed,
            "inputs": self.inputs,
            "config": config_to_dict(self.config),
        }

    # ------------------------------------------------------------------
    def to_dict(self):
        data = self.canonical()
        data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(workload=data["workload"],
                   config=config_from_dict(SimConfig, data["config"]),
                   params=dict(data.get("params", {})),
                   seed=data.get("seed", 12345),
                   label=data.get("label", ""),
                   inputs=dict(data.get("inputs", {})))

    def __repr__(self):
        return (f"<JobSpec {self.label}/{self.technique} seed={self.seed} "
                f"key={self.key[:8]}>")
