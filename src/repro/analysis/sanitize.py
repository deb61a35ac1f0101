"""Runtime sanitizer: cheap invariant assertions for sanitized runs.

Enabled with ``SimConfig.sanitize`` / ``--sanitize``.  The harness
builds one :class:`Sanitizer` per simulation and attaches it to the
core, the memory hierarchy and (for VR/DVR) the vector subthread; each
component calls its hook at most once per simulated cycle.  A violated
invariant raises :class:`SanitizerError` immediately -- the simulator
state at that point *is* the bug report.

The sanitizer is observation-only: it never mutates simulator state, so
a sanitized run produces **bit-identical metrics** to an unsanitized one
(asserted by ``tests/test_analysis_sanitize.py`` and, on the four
fast-forward pin cases, by ``tests/test_fast_forward.py``).  Its own
accounting (``checks``) lives on the sanitizer object and is never
folded into :class:`Metrics`.

The invariant catalogue -- what each assertion protects and the paper
mechanism it maps to -- is documented in DESIGN.md.
"""

from __future__ import annotations

from ..memsys.cache import LINE_SHIFT


class SanitizerError(AssertionError):
    """A microarchitectural invariant was violated during simulation."""


class Sanitizer:
    """Invariant checks wired into the core, memory system and subthread."""

    def __init__(self, config):
        self.config = config
        self.checks = 0             # hook invocations (sanity telemetry)
        self._last_commit_seq = -1  # seq of the last committed instruction
        self._last_commit_cycle = -1

    def _fail(self, where, message):
        raise SanitizerError(f"[sanitize:{where}] {message}")

    # ------------------------------------------------------------------
    # OoOCore hooks
    # ------------------------------------------------------------------
    def on_commit(self, core, rob, head0, head):
        """After the commit stage: in-order, monotone, completed commits,
        ROB/queue occupancy bounds, and parked loads."""
        self.checks += 1
        now = core.now
        cfg = core.core_cfg
        if head - head0 > cfg.width:
            self._fail("commit", f"committed {head - head0} instructions "
                                 f"in one cycle (width {cfg.width})")
        for index in range(head0, head):
            dyn = rob[index]
            if not dyn.completed:
                self._fail("commit", f"committed incomplete instruction "
                                     f"seq={dyn.seq} at cycle {now}")
            if dyn.seq <= self._last_commit_seq:
                self._fail("commit", f"commit order violation: seq "
                                     f"{dyn.seq} after "
                                     f"{self._last_commit_seq}")
            if dyn.complete_cycle > now:
                self._fail("commit", f"seq={dyn.seq} committed at cycle "
                                     f"{now} before completing at "
                                     f"{dyn.complete_cycle}")
            self._last_commit_seq = dyn.seq
            self._last_commit_cycle = now
        occupancy = len(rob) - head
        if not 0 <= occupancy <= cfg.rob_size:
            self._fail("rob", f"ROB occupancy {occupancy} outside "
                              f"[0, {cfg.rob_size}]")
        if not 0 <= core._iq_count <= cfg.issue_queue_size:
            self._fail("iq", f"issue-queue count {core._iq_count} outside "
                             f"[0, {cfg.issue_queue_size}]")
        if not 0 <= core._lq_count <= cfg.load_queue_size:
            self._fail("lq", f"load-queue count {core._lq_count} outside "
                             f"[0, {cfg.load_queue_size}]")
        if not 0 <= core._sq_count <= cfg.store_queue_size:
            self._fail("sq", f"store-queue count {core._sq_count} outside "
                             f"[0, {cfg.store_queue_size}]")
        self._check_parked(core)

    def _check_parked(self, core):
        """A load parked on the MSHR file's current version must still be
        certain to be refused: its line absent from L1, L2 and L3, and
        the file full."""
        hierarchy = core.hierarchy
        mshrs = hierarchy.mshrs
        version = mshrs.version
        for dyn in core._retry:
            if dyn.parked != version:
                continue
            line_addr = dyn.mem_addr >> LINE_SHIFT
            for cache in (hierarchy.l1d, hierarchy.l2, hierarchy.l3):
                if cache.contains(line_addr):
                    self._fail("parked", f"seq={dyn.seq} parked at version "
                                         f"{version} but line "
                                         f"{line_addr:#x} is in "
                                         f"{cache.name}")
            if mshrs.occupancy() < mshrs.num_entries:
                self._fail("parked", f"seq={dyn.seq} parked at version "
                                     f"{version} but only "
                                     f"{mshrs.occupancy()} of "
                                     f"{mshrs.num_entries} MSHRs are held")

    def on_fast_forward(self, core, now, target):
        """Before an event jump: the skipped span must be provably inert
        -- nothing ready, retrying, or completing before ``target``."""
        self.checks += 1
        if target <= now:
            self._fail("fast-forward", f"non-advancing jump "
                                       f"{now} -> {target}")
        if core._ready or core._retry:
            self._fail("fast-forward",
                       f"jump over a ready instruction at cycle {now}: "
                       f"ready={len(core._ready)} "
                       f"retry={len(core._retry)}")
        head = core.rob_head_instruction()
        if head is not None and head.completed:
            self._fail("fast-forward",
                       f"jump while ROB head seq={head.seq} is completed "
                       f"and could commit at cycle {now + 1}")
        heap = core._writebacks
        if heap and heap[0][0] < target:
            self._fail("fast-forward",
                       f"jump to {target} hides a writeback scheduled "
                       f"for cycle {heap[0][0]}")

    # ------------------------------------------------------------------
    # MemoryHierarchy hook
    # ------------------------------------------------------------------
    def on_mem_tick(self, hierarchy, now):
        """MSHR leak accounting: allocate/fill/release must balance."""
        self.checks += 1
        mshrs = hierarchy.mshrs
        outstanding = len(mshrs._outstanding)
        if mshrs.allocations - mshrs.releases != outstanding:
            self._fail("mshr", f"leak: {mshrs.allocations} allocations - "
                               f"{mshrs.releases} releases != "
                               f"{outstanding} outstanding at cycle {now}")
        if outstanding > mshrs.num_entries:
            self._fail("mshr", f"occupancy {outstanding} exceeds "
                               f"{mshrs.num_entries} entries")
        # Every outstanding miss must have a scheduled release, or it
        # would hold its MSHR forever.
        if outstanding > len(mshrs._release_heap):
            self._fail("mshr", f"{outstanding} outstanding misses but "
                               f"only {len(mshrs._release_heap)} "
                               f"scheduled releases")
        for line_addr, fill_cycle in mshrs._outstanding.items():
            if fill_cycle <= now:
                # drain(now) ran just before this hook: anything due has
                # been released already.
                self._fail("mshr", f"line {line_addr:#x} filled at cycle "
                                   f"{fill_cycle} still holds an MSHR at "
                                   f"cycle {now}")
            break   # spot-check one entry per cycle; full scan is O(n)

    # ------------------------------------------------------------------
    # VectorSubthread hook (VR / DVR)
    # ------------------------------------------------------------------
    def on_subthread_step(self, sub):
        """Structural limits of the decoupled subthread."""
        self.checks += 1
        dvr = sub.config
        if len(sub.reconv) > sub.reconv.depth:
            self._fail("reconv", f"reconvergence stack depth "
                                 f"{len(sub.reconv)} exceeds bound "
                                 f"{sub.reconv.depth}")
        if len(sub.active) > dvr.max_lanes:
            self._fail("lanes", f"{len(sub.active)} active lanes exceed "
                               f"max_lanes={dvr.max_lanes}")
        if sub.executed > dvr.subthread_timeout:
            self._fail("timeout", f"subthread executed {sub.executed} "
                                  f"instructions past timeout "
                                  f"{dvr.subthread_timeout}")
        vrat = sub.vrat
        if not 0 <= vrat.free_int_regs <= vrat.int_capacity:
            self._fail("vrat", f"int free list {vrat.free_int_regs} "
                               f"outside [0, {vrat.int_capacity}]")
        if not 0 <= vrat.free_vector_regs <= vrat.vec_capacity:
            self._fail("vrat", f"vector free list "
                               f"{vrat.free_vector_regs} outside "
                               f"[0, {vrat.vec_capacity}]")
