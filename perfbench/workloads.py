"""The benchmark's workloads: which specs each runs, at which scale, how.

The seed reaches the program only as ``ExperimentScale.seed``.  Every
spec is loaded from disk and concretized by ``repro.specs``, so set-up
always includes spec load and concretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: Guest image of the sim-long and specs-warm sims.  Every workload they
#: run fits in 21 MB; the default 256 MB image would only add set-up
#: (list allocation, GC walks) to workloads whose point is elsewhere.
SMALL_IMAGE = {"memsys.guest_memory_bytes": 32 * 2 ** 20}

#: The repository's default ExperimentScale seed.  golden.json also pins
#: the held-out seed 20231, which no tuning run used.
DEFAULT_SEED = 12345


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple                     # spec paths, relative to the checkout
    instructions: int
    gap_graphs: tuple = ()
    hpcdb: tuple = ()
    knobs: dict = field(default_factory=dict)
    workers: int = 1                 # pool size; 1 runs jobs in-process
    cache: str = "fresh"             # "fresh" | "none" | "warm"
    #: Nominal wall time of one pass on a 2-core Xeon host.  A run makes
    #: ``round(seconds / pass_s)`` passes, so every run of the same
    #: length has the same number of samples whatever the host's speed.
    pass_s: float = 1.0

    def passes(self, seconds):
        return max(1, round(seconds / self.pass_s))

    def scale(self, seed):
        from repro.harness.experiments import ExperimentScale
        return ExperimentScale(gap_graphs=self.gap_graphs, hpcdb=self.hpcdb,
                               max_instructions=self.instructions, seed=seed)

    def load_specs(self, root):
        """Every spec of this workload, with the workload's knobs added
        to the spec defaults."""
        import os

        from repro.specs.format import load_spec

        specs = []
        for path in self.specs:
            spec = load_spec(os.path.join(root, path))
            if self.knobs:
                spec = replace(spec, defaults={**spec.defaults, **self.knobs})
            specs.append(spec)
        return specs


WORKLOADS = {
    workload.name: workload for workload in (
        # Cold figure sweep: per-sim set-up (input build, build_sim, GC
        # over the 256 MB guest image) and the cache/ledger write side.
        Workload(
            name="fig7-cold",
            specs=("specs/fig7.toml",),
            instructions=10_000,
            hpcdb=("camel", "graph500", "nas-is"),
            workers=2,
            cache="fresh",
            pass_s=7.0,
        ),
        # The cycle loop and the parts it drives; set-up kept small.
        Workload(
            name="sim-long",
            specs=("perfbench/sim_long.json",),
            instructions=80_000,
            knobs=SMALL_IMAGE,
            workers=1,
            cache="none",
            pass_s=7.0,
        ),
        # The read side: every sim a cache hit, nothing simulated.
        Workload(
            name="specs-warm",
            specs=("specs/fig12.toml", "specs/fig2.toml", "specs/fig7.toml",
                   "specs/fig8.toml", "specs/mere_rob.toml"),
            instructions=500,
            gap_graphs=("KR",),
            knobs=SMALL_IMAGE,
            workers=1,
            cache="warm",
            pass_s=1.0,
        ),
    )
}
