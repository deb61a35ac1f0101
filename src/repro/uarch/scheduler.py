"""Issue bandwidth and functional-unit port accounting.

One :class:`IssuePorts` instance is reset each cycle.  The main thread
claims slots first; whatever is left over ("spare slots") is offered to
the runahead engines, matching the paper's rule that a vector-runahead
subthread instruction issues "whenever there is no instruction ready from
the main thread for the same execution port".
"""

from __future__ import annotations

from .dynins import FU_ALU, FU_DIV, FU_MEM, FU_MUL


class IssuePorts:
    def __init__(self, core_config):
        self.width = core_config.width
        self.capacity = {
            FU_ALU: core_config.int_alu.count,
            FU_MUL: core_config.int_mul.count,
            FU_DIV: core_config.int_div.count,
            FU_MEM: core_config.mem_ports,
        }
        self.latency = {
            FU_ALU: core_config.int_alu.latency,
            FU_MUL: core_config.int_mul.latency,
            FU_DIV: core_config.int_div.latency,
            FU_MEM: 0,  # memory latency comes from the hierarchy
        }
        self.used = {FU_ALU: 0, FU_MUL: 0, FU_DIV: 0, FU_MEM: 0}
        self._issued = 0

    def new_cycle(self):
        used = self.used
        used[FU_ALU] = 0
        used[FU_MUL] = 0
        used[FU_DIV] = 0
        used[FU_MEM] = 0
        self._issued = 0

    def can_issue(self, fu):
        return (self._issued < self.width and
                self.used[fu] < self.capacity[fu])

    def claim(self, fu):
        self.used[fu] += 1
        self._issued += 1

    @property
    def spare_slots(self):
        return self.width - self._issued

    def spare_fu(self, fu):
        return self.capacity[fu] - self.used[fu]
