"""LaneBatch: N independent sims advanced in lockstep by one loop.

Each lane owns a full ``(core, hierarchy, engine)`` triple built through
the existing :func:`~repro.harness.runner.build_sim` seam, so a lane
computes exactly what a serial :func:`~repro.harness.runner.run_spec`
call would.  The batch loop slices every live lane forward by ``step``
committed instructions per outer iteration via
:meth:`OoOCore.advance`, which only ever pauses between whole cycles --
interleaving is therefore invisible to the model and metrics stay
bit-identical (the PR-2 fast-forward machinery keeps jumping inside a
slice, because the fast-forward guard tests the run limit, not the
slice stop).

Construction is where a batch beats N serial runs: specs that differ
only in technique share one built workload.  The first lane to need a
``(workload, params, seed, inputs, memory_bytes)`` template builds it;
later lanes clone it (program and metadata are immutable after build,
so a clone is a fresh guest image holding a copy of the template's
allocated words instead of a full rebuild -- for graph workloads that
skips graph generation and CSR layout).  The last user of a template
takes ownership of the pristine original, so nothing is copied that
doesn't have to be.

A lane that raises (model bug, sanitizer assertion) is marked failed
and detached; the other lanes' metrics are unaffected.  The caller
(:class:`~repro.lanes.executor.BatchExecutor`) routes failed lanes
through the executor's normal retry path.
"""

from __future__ import annotations

import gc
import json
import time
from collections import deque

from ..harness.runner import build_sim, build_spec_workload, collect_metrics
from ..isa.machine import GuestMemory
from ..isa.instructions import WORD_BYTES
from ..workloads.base import BuiltWorkload

#: Committed instructions per lane per outer scheduler iteration.  Small
#: enough that lanes interleave visibly, large enough that the outer
#: loop's bookkeeping is noise against the per-cycle work inside.
DEFAULT_STEP = 2_000


def template_key(spec):
    """Build identity of a spec's workload: everything except technique.

    Two specs with equal keys build byte-identical ``BuiltWorkload``
    instances (the build is deterministic in workload, params, inputs,
    seed and guest-memory size), so one can be cloned from the other.
    """
    return (spec.workload,
            json.dumps(spec.params, sort_keys=True, default=list),
            json.dumps(spec.inputs, sort_keys=True, default=list),
            spec.seed,
            spec.config.memsys.guest_memory_bytes)


def clone_built(built):
    """Fresh, independently mutable copy of a built workload.

    The program and metadata never change after build; only guest memory
    is written during simulation, so a clone is a fresh image holding a
    copy of the template's memory -- no data generation.  Builds only
    write through the bump allocator, so everything above the allocation
    high-water mark is still zero in a pristine template and only the
    allocated prefix needs copying.
    """
    src = built.memory
    mem = GuestMemory(src.size_bytes)
    high_water = (src._next_free + WORD_BYTES - 1) // WORD_BYTES
    mem.words[:high_water] = src.words[:high_water]
    mem._next_free = src._next_free
    return BuiltWorkload(built.name, built.program, mem,
                         metadata=dict(built.metadata),
                         reference_check=built.reference_check)


class TemplateStore:
    """Reference-counted cache of built workloads for one batch.

    ``reserve()`` counts how many specs will use each template;
    ``checkout()`` builds on first use, clones for middle users, and
    hands the pristine original to the last user (templates are never
    simulated directly, so the original stays clean until then).
    """

    def __init__(self):
        self._templates = {}
        self._remaining = {}

    def reserve(self, specs):
        for spec in specs:
            key = template_key(spec)
            self._remaining[key] = self._remaining.get(key, 0) + 1

    def checkout(self, spec):
        key = template_key(spec)
        remaining = self._remaining.get(key, 1)
        template = self._templates.get(key)
        if template is None:
            template = build_spec_workload(spec)
            if remaining > 1:
                self._templates[key] = template
        self._remaining[key] = remaining - 1
        if remaining <= 1:
            self._templates.pop(key, None)
            return template
        return clone_built(template)


class Lane:
    """One sim instance inside a batch, with its own clock and status."""

    __slots__ = ("index", "spec", "built", "core", "status", "wall_s",
                 "metrics", "error")

    def __init__(self, index, spec):
        self.index = index            # position in the batch's spec list
        self.spec = spec
        self.built = None
        self.core = None
        self.status = "pending"       # pending -> running -> done | failed
        self.wall_s = 0.0             # this lane's own build + sim seconds
        self.metrics = None
        self.error = None

    @property
    def live(self):
        return self.status == "running"


class LaneBatch:
    """Advance up to ``lanes`` sims in lockstep until all specs retire.

    Per-lane clocks (``core.now``), commit counts and statuses live in
    the lanes themselves; the batch keeps them in one flat list and
    round-robins every live lane per outer iteration.  When a lane
    retires (its core hits ``max_instructions``) or fails, the next
    pending spec takes its slot.
    """

    def __init__(self, specs, lanes=8, step=DEFAULT_STEP,
                 on_lane_start=None):
        self.specs = list(specs)
        self.lanes = max(1, int(lanes))
        self.step = max(1, int(step))
        #: Test seam: called with each Lane right after construction.
        self.on_lane_start = on_lane_start
        self.templates = TemplateStore()

    def run(self, on_finish=None):
        """Run every spec; returns Lanes aligned with the input order.

        ``on_finish(lane)`` fires as each lane retires or fails --
        streaming, not batched, so callers can cache/ledger/report while
        the rest of the batch is still running.
        """
        lanes = [Lane(i, spec) for i, spec in enumerate(self.specs)]
        self.templates.reserve(self.specs)
        pending = deque(lanes)
        live = []
        perf_counter = time.perf_counter
        step = self.step
        # Cyclic GC pauses scale with the number of live container
        # objects, and a batch keeps N sims' predictor and cache tables
        # resident at once (a guest image is one buffer and costs the
        # collector nothing).  Lane teardown frees everything big by
        # refcount, so collection is deferred to batch end (same
        # discipline as the bench harness's timed runs).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._run_loop(pending, live, on_finish, perf_counter, step)
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect()
        return lanes

    def _run_loop(self, pending, live, on_finish, perf_counter, step):
        while live or pending:
            # Fill free slots before each sweep over the live lanes.
            while pending and len(live) < self.lanes:
                lane = pending.popleft()
                if self._start_lane(lane):
                    live.append(lane)
                elif on_finish is not None:
                    on_finish(lane)       # failed during construction
            # One lockstep iteration: every live lane moves ``step``
            # committed instructions (or to its next failure/retirement).
            retired = False
            for lane in live:
                start = perf_counter()
                try:
                    more = lane.core.advance(step)
                except Exception as error:   # sanitizer assertion, model bug
                    lane.wall_s += perf_counter() - start
                    lane.status = "failed"
                    lane.error = error
                    retired = True
                    continue
                if not more:
                    lane.core.finish()
                    lane.metrics = collect_metrics(
                        lane.built, lane.spec.config, lane.core)
                    lane.wall_s += perf_counter() - start
                    lane.status = "done"
                    lane.core = None      # release sim + memory image
                    lane.built = None
                    retired = True
                else:
                    lane.wall_s += perf_counter() - start
            if retired:
                for lane in live:
                    if not lane.live and on_finish is not None:
                        on_finish(lane)
                live[:] = [lane for lane in live if lane.live]

    def _start_lane(self, lane):
        """Build one lane's sim (template checkout + build_sim)."""
        start = time.perf_counter()
        try:
            built = self.templates.checkout(lane.spec)
            lane.built = built
            lane.core = build_sim(built, lane.spec.config)
            lane.core.start(lane.spec.config.max_instructions)
        except Exception as error:
            lane.wall_s += time.perf_counter() - start
            lane.status = "failed"
            lane.error = error
            return False
        lane.wall_s += time.perf_counter() - start
        lane.status = "running"
        if self.on_lane_start is not None:
            self.on_lane_start(lane)
        return True
