"""Interval/dataflow timing model of an out-of-order superscalar core.

The model replays the committed-path trace (like Sniper's interval core
model, which the paper itself uses) and computes cycle counts from the
four first-order mechanisms PBS interacts with:

* **front-end bandwidth** — at most ``width`` instructions enter the
  window per cycle;
* **branch mispredictions** — a mispredicted branch stalls fetch until it
  resolves (its dataflow completion) plus the front-end refill penalty;
  PBS-hit branches never mispredict (direction known at fetch);
* **the ROB window** — an instruction cannot dispatch until the
  instruction ``rob_size`` older has committed (in order, ``width`` per
  cycle), so long-latency producers stall the window;
* **dataflow** — issue waits for source registers; functional-unit
  latencies per opcode class; load latency from the cache hierarchy.

Issue-port contention is deliberately not modelled (interval-model
approximation); with realistic widths the bandwidth and window constraints
dominate.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from ..branch.base import BranchPredictor
from ..branch.harness import PredictorHarness
from ..isa.opcodes import OpClass
from ..memory import MemoryHierarchy
from .config import CoreConfig
from .metrics import CoreStats


class OoOCore:
    """A columnar trace sink computing cycles, IPC and branch statistics.

    Branch classification is delegated to a
    :class:`~repro.branch.PredictorHarness`, so ``stats.branches`` *is*
    that harness's :class:`~repro.branch.BranchStats`.  The constructor
    builds the core its own harness from ``predictor`` and the harness
    options; :meth:`sharing` times the rows of a harness that other
    consumers read too.  Each batch is classified first, then timed:
    predictor state depends only on the ``(pc, taken, prob_mode)``
    order, never on cycle timing, so one classification serves every
    core width exactly.
    """

    def __init__(
        self,
        config: CoreConfig,
        predictor: BranchPredictor,
        hierarchy: Optional[MemoryHierarchy] = None,
        filter_probabilistic: bool = False,
        oracle_pcs=frozenset(),
        pbs_inserts_history: bool = True,
    ):
        self._attach(config, PredictorHarness(
            predictor,
            filter_probabilistic=filter_probabilistic,
            pbs_inserts_history=pbs_inserts_history,
            oracle_pcs=oracle_pcs,
        ), hierarchy)

    @classmethod
    def sharing(cls, config: CoreConfig, harness: PredictorHarness) -> "OoOCore":
        """A core timing the rows ``harness`` classifies.

        The harness is fed elsewhere (it may serve other cores and
        MPKI readers too), so this core must be fed
        ``consume_batch(batch, mispredicted)`` with the rows the
        harness reported for that batch.
        """
        core = cls.__new__(cls)
        core._attach(config, harness, None)
        return core

    def _attach(self, config, harness, hierarchy) -> None:
        self.config = config
        self.harness = harness
        self.predictor = harness.predictor
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy()
        self.stats = CoreStats(config.name, predictor_name=self.predictor.name)
        self.stats.branches = harness.stats

        self._latency: Dict[int, int] = dict(config.latencies)
        self._reg_ready: Dict[int, int] = {}
        self._frontend_ready = 0
        self._dispatch_cycle = 0
        self._dispatch_slots = 0
        self._commit_cycle = 0
        self._commit_slots = 0
        self._commit_times = deque()
        self._last_cycle = 0

    # ------------------------------------------------------------------
    def consume_batch(self, batch, mispredicted=None) -> None:
        """Time one batch.  ``mispredicted`` lists, in row order, the
        rows of the batch that the core's harness already classified
        as mispredicted; without it the core classifies the batch
        through its harness first."""
        if mispredicted is None:
            mispredicted = []
            self.harness.consume_batch(batch, mispredicted)
        n = len(batch.pcs)
        # Past the last misprediction, next_miss is n: no row index
        # reaches it.
        misses = iter(mispredicted)

        config = self.config
        width = config.width
        rob_size = config.rob_size
        penalty = config.mispredict_penalty
        stats = self.stats
        stats.instructions += n
        latency_of = self._latency
        access = self.hierarchy.access
        reg_ready = self._reg_ready
        ready_of = reg_ready.get
        commit_times = self._commit_times
        pop_oldest = commit_times.popleft
        push_commit = commit_times.append
        LOAD = OpClass.LOAD
        STORE = OpClass.STORE

        frontend_ready = self._frontend_ready
        dispatch_cycle = self._dispatch_cycle
        dispatch_slots = self._dispatch_slots
        commit_cycle = self._commit_cycle
        commit_slots = self._commit_slots
        last_cycle = self._last_cycle
        branch_stall = 0
        next_miss = next(misses, n)

        srcs_col = batch.srcs
        classes = batch.classes
        addrs = batch.addrs
        dests = batch.dests
        for i in range(n):
            # ----- dispatch: front-end bandwidth + ROB occupancy -------
            dispatch = frontend_ready
            if len(commit_times) >= rob_size:
                # The slot frees the cycle after its occupant commits.
                oldest = pop_oldest()
                if oldest + 1 > dispatch:
                    dispatch = oldest + 1
            if dispatch > dispatch_cycle:
                dispatch_cycle = dispatch
                dispatch_slots = 1
            else:
                if dispatch_slots >= width:
                    dispatch_cycle += 1
                    dispatch_slots = 1
                else:
                    dispatch_slots += 1
                dispatch = dispatch_cycle

            # ----- issue & execute: dataflow --------------------------
            ready = dispatch + 1
            for reg in srcs_col[i]:
                when = ready_of(reg, 0)
                if when > ready:
                    ready = when

            op_class = classes[i]
            if op_class == LOAD:
                complete = ready + access(addrs[i])
            elif op_class == STORE:
                access(addrs[i])
                complete = ready + latency_of[STORE]
            else:
                complete = ready + latency_of[op_class]

            dest = dests[i]
            if dest >= 0:
                reg_ready[dest] = complete

            # ----- mispredicted branch: refill after resolution -------
            if i == next_miss:
                frontend_ready = complete + penalty
                # CPI-stack attribution: the front-end sits idle from the
                # cycle after the branch entered the window until it
                # resolves and the pipeline refills.
                stall = frontend_ready - (dispatch + 1)
                if stall > 0:
                    branch_stall += stall
                next_miss = next(misses, n)

            # ----- commit: in order, width per cycle -------------------
            commit = complete
            if commit < commit_cycle:
                commit = commit_cycle
            if commit == commit_cycle:
                if commit_slots >= width:
                    commit += 1
                    commit_slots = 1
                else:
                    commit_slots += 1
            else:
                commit_slots = 1
            commit_cycle = commit
            push_commit(commit)
            if commit > last_cycle:
                last_cycle = commit

        self._frontend_ready = frontend_ready
        self._dispatch_cycle = dispatch_cycle
        self._dispatch_slots = dispatch_slots
        self._commit_cycle = commit_cycle
        self._commit_slots = commit_slots
        self._last_cycle = last_cycle
        stats.branch_stall_cycles += branch_stall

    # ------------------------------------------------------------------
    def finalize(self) -> CoreStats:
        """Close accounting and return the stats object."""
        stats = self.stats
        stats.cycles = self._last_cycle if self._last_cycle else 1
        return stats
