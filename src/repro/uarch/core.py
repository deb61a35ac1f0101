"""Cycle-level out-of-order core model.

Timing-first, correct-path simulation: instructions execute functionally
(in program order) at dispatch, so architectural state is always correct;
the timing model tracks operand readiness, issue-width and FU-port
contention, memory latency through the hierarchy, and in-order commit.
Mispredicted conditional branches stall fetch until the branch resolves
plus a front-end redirect penalty of ``frontend_stages`` cycles.

Runahead engines (PRE / VR / DVR) attach via a small hook interface:

* ``on_dispatch(dyn, core)``   -- observe the main thread's instruction
  stream (stride detection, Discovery Mode).
* ``on_rob_stall(now, head)``  -- called every cycle dispatch is blocked
  by a full ROB (the classic runahead trigger).
* ``tick(now, ports)``         -- consume spare issue slots.
* ``blocks_dispatch/blocks_commit`` -- runahead modes that occupy the
  front-end or delay termination.
* ``quiescent(now)/next_event(now)`` -- the quiescence contract used by
  event-driven fast-forwarding (see :meth:`OoOCore.run`): a quiescent
  engine promises its ``tick`` is a no-op and its blocking predicates
  are constant until ``next_event``.

Event-driven fast-forwarding: when a cycle ends with nothing in flight
that could retire, wake, issue or dispatch next cycle -- ready queue and
retry list empty, ROB head (if any) incomplete, dispatch structurally
blocked, engine quiescent -- the simulator jumps ``now`` straight to the
next scheduled event (writeback-heap head, fetch redirect, earliest MSHR
fill, engine wake-up) and bulk-attributes the skipped span into the same
statistics the cycle-by-cycle loop would have accumulated.  Metrics are
bit-identical with the feature on or off (``SimConfig.fast_forward``).
"""

from __future__ import annotations

import heapq

from ..isa.instructions import Op
from ..isa.machine import execute
from ..branch.predictor import TagePredictor
from .dynins import FU_MEM, DynIns
from .scheduler import IssuePorts


class SimulationLimitError(Exception):
    """The cycle safety limit was hit (almost certainly a model deadlock)."""


class NullEngine:
    """Default no-op runahead engine."""

    name = "none"

    def on_dispatch(self, dyn, core):
        pass

    def on_rob_stall(self, now, head):
        pass

    def tick(self, now, ports):
        pass

    def blocks_dispatch(self, now):
        return False

    def blocks_commit(self, now):
        return False

    def quiescent(self, now):
        return True

    def next_event(self, now):
        return None

    def stats(self):
        return {}


class CoreStats:
    def __init__(self):
        self.cycles = 0
        self.committed = 0
        self.dispatched = 0
        self.rob_full_cycles = 0          # dispatch blocked, ROB full
        self.rob_full_mem_cycles = 0      # ...with an incomplete load at head
        self.commit_blocked_runahead = 0  # delayed-termination stalls (VR)
        self.fast_forward_cycles = 0      # cycles skipped by event jumps
        self.fast_forward_spans = 0       # number of event jumps taken
        self.halted = False
        self.branch_lookups = 0
        self.branch_mispredicts = 0
        # CPI stack: why each cycle's commit slot group was (not) used.
        self.cycle_breakdown = {
            "base": 0,       # committed at least one instruction
            "memory": 0,     # ROB head is a load waiting for data
            "execute": 0,    # ROB head waiting on a non-load FU
            "frontend": 0,   # ROB empty (mispredict redirect / fetch dry)
            "runahead": 0,   # commit blocked by a runahead engine
        }

    def cpi_stack(self):
        """Per-component cycles-per-instruction (Sniper-style CPI stack)."""
        if self.committed == 0:
            return {}
        return {name: count / self.committed
                for name, count in self.cycle_breakdown.items()}

    @property
    def ipc(self):
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def rob_full_fraction(self):
        return self.rob_full_cycles / self.cycles if self.cycles else 0.0


class OoOCore:
    def __init__(self, program, guest_memory, config, hierarchy,
                 engine=None, perfect_memory=False, trace=None,
                 sanitizer=None):
        self.program = program
        self.mem = guest_memory
        self.config = config
        self.core_cfg = config.core
        self.hierarchy = hierarchy
        self.engine = engine or NullEngine()
        self.perfect_memory = perfect_memory
        self.trace = trace
        self.sanitizer = sanitizer      # repro.analysis.sanitize, or None
        self.predictor = TagePredictor(config.branch)
        self.ports = IssuePorts(config.core)
        self.stats = CoreStats()

        self.regs = [0] * 32            # architectural state @ dispatch frontier
        self.pc = 0
        self.now = 0
        self._seq = 0
        self._rob = []                  # FIFO list of DynIns (popped from front lazily)
        self._rob_head = 0
        self._iq_count = 0
        self._lq_count = 0
        self._sq_count = 0
        self._ready = []                # heap of (seq, DynIns)
        self._retry = []                # FU- or MSHR-blocked, ascending seq
        self._writebacks = []           # heap of (complete_cycle, seq, DynIns)
        self._waiting_branch = None     # mispredicted branch pending resolve
        self._fetch_resume = 0
        self._producer_table = [None] * 32
        self._program_done = False
        self._l1_latency = config.memsys.l1d.latency

    # ------------------------------------------------------------------
    def run(self, max_instructions=None):
        """Simulate until ``max_instructions`` commit or HALT.

        Returns the core's :class:`CoreStats`.
        """
        limit = max_instructions or self.config.max_instructions
        max_cycles = limit * 3000 + 2_000_000
        fast_forward = self.config.fast_forward
        # Hot loop: every per-cycle callee is hoisted to a local once.
        stats = self.stats
        ports = self.ports
        writeback = self._writeback
        commit = self._commit
        issue = self._issue
        dispatch = self._dispatch
        engine_tick = self.engine.tick
        hierarchy_tick = self.hierarchy.tick
        new_cycle = ports.new_cycle
        quiescent = self._quiescent
        while stats.committed < limit and not stats.halted:
            now = self.now + 1
            self.now = now
            if now > max_cycles:
                raise SimulationLimitError(
                    f"no forward progress: {stats.committed} committed "
                    f"after {now} cycles")
            writeback()
            commit()
            new_cycle()
            issue()
            engine_tick(now, ports)
            dispatch()
            hierarchy_tick(now)
            # The run-ending cycle (HALT committed / limit reached) is
            # quiescent with no events left; the loop exit handles it.
            if fast_forward and stats.committed < limit \
                    and not stats.halted and quiescent(now):
                self._fast_forward(now, max_cycles)
        stats.cycles = self.now
        stats.branch_lookups = self.predictor.lookups
        stats.branch_mispredicts = self.predictor.mispredicts
        return stats

    # ------------------------------------------------------------------
    # Event-driven fast-forwarding
    # ------------------------------------------------------------------
    def _quiescent(self, now):
        """True when no core state can change before the next event.

        Checked at the end of a fully-simulated cycle.  Requires: nothing
        awaiting issue (ready heap and retry list both empty),
        commit blocked on an incomplete ROB head (or an empty ROB),
        a quiescent engine, and dispatch structurally blocked for a
        reason that only an event can clear (fetch redirect in the
        future, mispredicted branch pending, program drained, ROB/queue
        back-pressure -- all released by writebacks -- or an engine that
        occupies the front-end).
        """
        if self._ready or self._retry:
            return False
        rob, head_index = self._rob, self._rob_head
        if head_index < len(rob) and rob[head_index].completed:
            return False            # commit makes progress next cycle
        if not self.engine.quiescent(now):
            return False
        if self._program_done or self._waiting_branch is not None:
            return True
        if now + 1 < self._fetch_resume:
            return True             # redirect penalty; event scheduled
        cfg = self.core_cfg
        if len(rob) - head_index >= cfg.rob_size:
            return True             # ROB full; released by writeback
        if self._iq_count >= cfg.issue_queue_size:
            return True             # IQ entries free only at issue<-wakeup
        ins = self.program.instructions[self.pc]
        if ins.is_load and self._lq_count >= cfg.load_queue_size:
            return True             # LQ entries free at load writeback
        if ins.is_store and self._sq_count >= cfg.store_queue_size:
            return True             # SQ entries free at commit
        if self.engine.blocks_dispatch(now):
            return True             # constant while quiescent (contract)
        return False                # dispatch can make progress: no skip

    def _fast_forward(self, now, max_cycles):
        """Jump ``self.now`` to just before the next event, attributing
        the skipped span exactly as the per-cycle loop would have."""
        heap = self._writebacks
        target = heap[0][0] if heap else None
        if self._waiting_branch is None and now < self._fetch_resume:
            if target is None or self._fetch_resume < target:
                target = self._fetch_resume
        wake = self.engine.next_event(now)
        if wake is not None and (target is None or wake < target):
            target = wake
        if target is None:
            # An MSHR fill wakes nothing by itself while the retry list
            # is empty (the quiescence precondition), so fills do not
            # bound the jump -- they only serve as a deadlock fallback.
            target = self.hierarchy.mshrs.next_fill()
        if target is None:
            raise SimulationLimitError(
                f"model deadlock: quiescent with no scheduled events at "
                f"cycle {now} ({self.stats.committed} committed)")
        if target > max_cycles + 1:
            target = max_cycles + 1   # preserve the safety-limit abort
        skipped = target - 1 - now
        if skipped <= 0:
            return
        if self.sanitizer is not None:
            self.sanitizer.on_fast_forward(self, now, target)
        stats = self.stats
        stats.fast_forward_cycles += skipped
        stats.fast_forward_spans += 1
        # Bulk attribution: the per-cycle stages are all no-ops across the
        # span, so only the accounting they would have done remains.  The
        # ROB head (and therefore every attribution below) cannot change
        # until the event at ``target``.
        rob, head_index = self._rob, self._rob_head
        breakdown = stats.cycle_breakdown
        if head_index >= len(rob):
            breakdown["frontend"] += skipped
        else:
            head = rob[head_index]
            if head.ins.is_load:
                breakdown["memory"] += skipped
            else:
                breakdown["execute"] += skipped
            if len(rob) - head_index >= self.core_cfg.rob_size:
                stats.rob_full_cycles += skipped
                if head.ins.is_load:
                    # head incomplete by _quiescent precondition; the
                    # engine's on_rob_stall is a proven no-op over the
                    # span (trigger monotonicity / quiescence contract).
                    stats.rob_full_mem_cycles += skipped
        self.now = target - 1

    # ------------------------------------------------------------------
    def _writeback(self):
        now = self.now
        heap = self._writebacks
        if not heap or heap[0][0] > now:
            return
        heappop = heapq.heappop
        heappush = heapq.heappush
        ready = self._ready
        while heap and heap[0][0] <= now:
            _, _, dyn = heappop(heap)
            dyn.completed = True
            if dyn.ins.is_load:
                # LQ entries recycle once the data is back (commit does not
                # need them; keeps the LQ from binding before the ROB).
                self._lq_count -= 1
            for dep in dyn.dependents:
                dep.pending -= 1
                if dep.pending == 0 and not dep.issued:
                    heappush(ready, (dep.seq, dep))
            dyn.dependents = []
            if dyn is self._waiting_branch:
                self._waiting_branch = None
                self._fetch_resume = now + self.core_cfg.frontend_stages

    def _commit(self):
        # Hoisted like _issue/_writeback: stats/engine/config lookups once
        # per cycle, committed totalled locally, len(rob) computed once
        # (commit never appends).
        committed = 0
        stats = self.stats
        rob = self._rob
        head = head0 = self._rob_head
        rob_len = len(rob)
        blocked_by_engine = False
        if head < rob_len:
            width = self.core_cfg.width
            now = self.now
            blocks_commit = self.engine.blocks_commit
            while committed < width and head < rob_len:
                dyn = rob[head]
                if not dyn.completed:
                    break
                if blocks_commit(now):
                    blocked_by_engine = True
                    break
                head += 1
                committed += 1
                ins = dyn.ins
                if ins.is_store:
                    self._sq_count -= 1
                if ins.op == Op.HALT:
                    stats.halted = True
                    break
            stats.committed += committed
        if blocked_by_engine and committed == 0:
            stats.commit_blocked_runahead += 1
        # CPI-stack attribution for this cycle's commit slots.
        breakdown = stats.cycle_breakdown
        if committed > 0:
            breakdown["base"] += 1
        elif blocked_by_engine:
            breakdown["runahead"] += 1
        elif head >= rob_len:
            breakdown["frontend"] += 1
        else:
            stalled = rob[head]
            if stalled.ins.is_load:
                breakdown["memory"] += 1
            else:
                breakdown["execute"] += 1
        if self.sanitizer is not None:
            self.sanitizer.on_commit(self, rob, head0, head)
        self._rob_head = head
        if head > 4096:  # compact the ROB list occasionally
            del rob[:head]
            self._rob_head = 0

    def rob_occupancy(self):
        return len(self._rob) - self._rob_head

    def rob_head_instruction(self):
        if self._rob_head < len(self._rob):
            return self._rob[self._rob_head]
        return None

    # ------------------------------------------------------------------
    def _issue(self):
        ready = self._ready
        carry = self._retry
        if not ready and not carry:
            return
        # Instructions that could not issue last cycle -- FU-port-blocked
        # or refused by a full MSHR file -- live in ``carry`` (already in
        # ascending seq order from the pop sequence that produced them)
        # instead of being re-pushed through the ready heap every cycle;
        # candidates are drawn from whichever of carry/heap holds the
        # lowest seq, which reproduces the pure-heap pop order exactly.
        ports = self.ports
        now = self.now
        can_issue = ports.can_issue
        claim = ports.claim
        latency = ports.latency
        heappop = heapq.heappop
        heappush = heapq.heappush
        writebacks = self._writebacks
        trace = self.trace
        # A parked load -- refused on a full miss at the MSHR file's
        # current version -- is certain to be refused again unless a fill
        # lands this cycle (see repro.memsys.hierarchy, "Refusal
        # tokens").  Its retry is counted here, without probing the
        # caches, and booked in bulk after the loop.  No fill becomes due
        # within the loop: new fills are all in the future.
        mshrs = self.hierarchy.mshrs
        next_fill = mshrs.next_fill()
        parking = next_fill is not None and next_fill > now
        used = ports.used
        mem_ports = ports.capacity[FU_MEM]
        refused = 0
        retry = []
        attempts = 0
        carry_index, carry_len = 0, len(carry)
        while ports.spare_slots > 0 and attempts < 16:
            if carry_index < carry_len:
                if ready and ready[0][0] < carry[carry_index].seq:
                    _, dyn = heappop(ready)
                else:
                    dyn = carry[carry_index]
                    carry_index += 1
                    if parking and dyn.parked == mshrs.version:
                        # Exactly what can_issue would decide: the loop
                        # guard already leaves an issue slot.
                        attempts += 1
                        if used[FU_MEM] < mem_ports:
                            refused += 1
                        retry.append(dyn)
                        continue
            elif ready:
                _, dyn = heappop(ready)
            else:
                break
            attempts += 1
            if not can_issue(dyn.fu):
                retry.append(dyn)
                continue
            if dyn.ins.is_load:
                if not self._issue_load(dyn):
                    retry.append(dyn)   # refused by a full MSHR file
                    continue
            elif dyn.ins.is_store:
                if self.perfect_memory:
                    # Symmetric oracle treatment: the line is already here,
                    # but a first touch still spends bandwidth.
                    self.hierarchy.oracle_load(dyn.mem_addr, now)
                else:
                    self.hierarchy.demand_store(dyn.mem_addr, now)
                dyn.complete_cycle = now + 1
            else:
                dyn.complete_cycle = now + latency[dyn.fu]
            claim(dyn.fu)
            dyn.issued = True
            dyn.issue_cycle = now
            self._iq_count -= 1
            if trace is not None:
                trace.on_issue(dyn, now)
            heappush(writebacks, (dyn.complete_cycle, dyn.seq, dyn))
        if carry_index < carry_len:
            retry.extend(carry[carry_index:])
        self._retry = retry
        if refused:
            self.hierarchy.record_parked_refusals(refused)

    def _issue_load(self, dyn):
        if self.perfect_memory:
            dyn.complete_cycle = self.hierarchy.oracle_load(
                dyn.mem_addr, self.now)
            dyn.mem_level = "L1"
            return True
        result = self.hierarchy.demand_load(
            dyn.mem_addr, dyn.pc, dyn.value, self.now)
        if result is None:
            dyn.parked = self.hierarchy.refused_miss_version
            return False
        dyn.complete_cycle = result.complete_cycle
        dyn.mem_level = result.level
        return True

    # ------------------------------------------------------------------
    def _dispatch(self):
        now = self.now
        engine = self.engine
        if (self._program_done or self._waiting_branch is not None
                or now < self._fetch_resume
                or engine.blocks_dispatch(now)):
            self._check_rob_stall()
            return
        # First-iteration gates, checked before the hoist block: on a
        # stall cycle (ROB or IQ full, front load/store blocked on its
        # queue) dispatch does no work, and stall cycles dominate the
        # memory-bound runs this simulator exists for -- resolving a
        # dozen locals on every one of them costs more than the loop
        # they accelerate.
        cfg = self.core_cfg
        rob = self._rob
        rob_head = self._rob_head
        if len(rob) - rob_head >= cfg.rob_size:
            self._check_rob_stall(count=True)
            return
        if self._iq_count >= cfg.issue_queue_size:
            return
        instructions = self.program.instructions
        ins = instructions[self.pc]
        if ins.is_load and self._lq_count >= cfg.load_queue_size:
            return
        if ins.is_store and self._sq_count >= cfg.store_queue_size:
            return
        # Hoisted like _issue/_writeback: config bounds, the instruction
        # list, guest state, and per-instruction callees resolve once per
        # cycle instead of once per dispatched instruction.  ``self.pc``
        # and the occupancy counters stay live on self because engine
        # hooks (on_dispatch) may read them mid-group.
        width = cfg.width
        rob_size = cfg.rob_size
        iq_size = cfg.issue_queue_size
        lq_size = cfg.load_queue_size
        sq_size = cfg.store_queue_size
        regs = self.regs
        mem = self.mem
        stats = self.stats
        producers = self._producer_table
        ready = self._ready
        heappush = heapq.heappush
        predictor = self.predictor
        on_dispatch = engine.on_dispatch
        trace = self.trace
        dispatched = 0
        while dispatched < width:
            if len(rob) - rob_head >= rob_size:
                self._check_rob_stall(count=True)
                break
            if self._iq_count >= iq_size:
                break
            ins = instructions[self.pc]
            if ins.is_load and self._lq_count >= lq_size:
                break
            if ins.is_store and self._sq_count >= sq_size:
                break
            dyn = DynIns(self._seq, ins, now)
            self._seq += 1
            # Operand dependence tracking (rename equivalent).
            for reg in ins.srcs:
                producer = producers[reg]
                if producer is not None and not producer.completed:
                    dyn.pending += 1
                    producer.dependents.append(dyn)
            # Functional execution at the dispatch frontier.
            next_pc, addr = execute(ins, regs, mem)
            dyn.mem_addr = addr
            if ins.is_load:
                dyn.value = regs[ins.rd]
                self._lq_count += 1
            elif ins.is_store:
                self._sq_count += 1
            if ins.rd >= 0:
                producers[ins.rd] = dyn
            rob.append(dyn)
            self._iq_count += 1
            stats.dispatched += 1
            dispatched += 1
            if dyn.pending == 0:
                heappush(ready, (dyn.seq, dyn))
            mispredicted = False
            if ins.is_cond_branch:
                taken = next_pc != ins.pc + 1
                dyn.taken = taken
                prediction, info = predictor.predict(ins.pc)
                predictor.update(ins.pc, taken, prediction, info)
                if prediction != taken:
                    dyn.mispredicted = True
                    self._waiting_branch = dyn
                    mispredicted = True
            on_dispatch(dyn, self)
            if trace is not None:
                trace.on_dispatch(dyn, now)
            self.pc = next_pc
            if ins.op == Op.HALT:
                self._program_done = True
                break
            if mispredicted:
                break

    def _check_rob_stall(self, count=False):
        """Account a full-ROB dispatch stall and fire the runahead trigger."""
        if not count:
            if self.rob_occupancy() < self.core_cfg.rob_size:
                return
        self.stats.rob_full_cycles += 1
        head = self.rob_head_instruction()
        if head is not None and head.ins.is_load and not head.completed:
            self.stats.rob_full_mem_cycles += 1
            self.engine.on_rob_stall(self.now, head)

    # Exposed for engines ------------------------------------------------
    @property
    def _producers(self):
        return self._producer_table
