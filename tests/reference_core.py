"""A per-row reference model of the out-of-order core's timing loop.

:class:`ReferenceCore` times a batch the plain way: the ROB is a
``deque`` of commit cycles with a length check on every row, the
register-ready table a dict, and every load or store one
``MemoryHierarchy.access`` call in row order.  It is the loop
:class:`~repro.pipeline.OoOCore` used before its latency column and
ROB ring, kept only so tests can hold the kernel to it.
"""

from collections import deque

from repro.branch import PredictorHarness
from repro.isa.opcodes import OpClass
from repro.memory import MemoryHierarchy
from repro.pipeline import CoreStats


class ReferenceCore:
    """The core's cycle accounting, one row at a time."""

    def __init__(self, config, predictor, hierarchy=None):
        self.config = config
        self.harness = PredictorHarness(predictor)
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy()
        self.stats = CoreStats(config.name, predictor_name=predictor.name)
        self.stats.branches = self.harness.stats
        self._reg_ready = {}
        self._frontend_ready = 0
        self._dispatch_cycle = 0
        self._dispatch_slots = 0
        self._commit_cycle = 0
        self._commit_slots = 0
        self._commit_times = deque()
        self._last_cycle = 0

    def consume_batch(self, batch) -> None:
        mispredicted = []
        self.harness.consume_batch(batch, mispredicted)
        misses = set(mispredicted)
        config = self.config
        latency_of = config.latencies
        self.stats.instructions += len(batch.pcs)
        for i in range(len(batch.pcs)):
            # Dispatch: front-end bandwidth and ROB occupancy.
            dispatch = self._frontend_ready
            if len(self._commit_times) >= config.rob_size:
                # The slot frees the cycle after its occupant commits.
                dispatch = max(dispatch, self._commit_times.popleft() + 1)
            if dispatch > self._dispatch_cycle:
                self._dispatch_cycle = dispatch
                self._dispatch_slots = 1
            else:
                if self._dispatch_slots >= config.width:
                    self._dispatch_cycle += 1
                    self._dispatch_slots = 1
                else:
                    self._dispatch_slots += 1
                dispatch = self._dispatch_cycle

            # Issue and execute: dataflow.
            ready = dispatch + 1
            for reg in batch.srcs[i]:
                ready = max(ready, self._reg_ready.get(reg, 0))
            op_class = batch.classes[i]
            if op_class == OpClass.LOAD:
                complete = ready + self.hierarchy.access(batch.addrs[i])
            elif op_class == OpClass.STORE:
                self.hierarchy.access(batch.addrs[i])
                complete = ready + latency_of[OpClass.STORE]
            else:
                complete = ready + latency_of[op_class]
            if batch.dests[i] >= 0:
                self._reg_ready[batch.dests[i]] = complete

            # A mispredicted branch refills after it resolves.
            if i in misses:
                self._frontend_ready = complete + config.mispredict_penalty
                stall = self._frontend_ready - (dispatch + 1)
                if stall > 0:
                    self.stats.branch_stall_cycles += stall

            # Commit: in order, width per cycle.
            commit = max(complete, self._commit_cycle)
            if commit == self._commit_cycle:
                if self._commit_slots >= config.width:
                    commit += 1
                    self._commit_slots = 1
                else:
                    self._commit_slots += 1
            else:
                self._commit_slots = 1
            self._commit_cycle = commit
            self._commit_times.append(commit)
            self._last_cycle = max(self._last_cycle, commit)

    def finalize(self) -> CoreStats:
        self.stats.cycles = self._last_cycle if self._last_cycle else 1
        return self.stats
