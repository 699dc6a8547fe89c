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

from itertools import compress, count
from typing import Dict, List, Optional

from ..branch.base import BranchPredictor
from ..branch.harness import PredictorHarness
from ..isa.opcodes import OpClass
from ..isa.registers import NUM_REGS
from ..memory import MemoryHierarchy
from .config import CoreConfig
from .metrics import CoreStats


class LatencyWalk:
    """One latency table walking one memory hierarchy, batch by batch.

    :meth:`column` gives each row of a batch its execution latency: its
    op class's entry in ``latencies``, or for a load the hierarchy's
    latency for its address.  A store's access still updates the
    caches, and the store costs ``latencies[STORE]``.  Cache state
    depends only on the address order, never on cycle timing, so one
    walk serves every core with the same latency table exactly,
    whatever its width or predictor.
    """

    def __init__(
        self,
        latencies: Dict[OpClass, int],
        hierarchy: Optional[MemoryHierarchy] = None,
    ):
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy()
        # A load's latency always comes from the hierarchy, so the
        # table need not name LOAD.
        self._latency_of = {OpClass.LOAD: 0, **latencies}.__getitem__
        is_memory = [False] * (max(OpClass) + 1)
        is_memory[OpClass.LOAD] = is_memory[OpClass.STORE] = True
        self._is_memory = is_memory.__getitem__

    def column(self, batch) -> List[int]:
        """The latency of every row of ``batch``, in row order."""
        classes = batch.classes
        column = list(map(self._latency_of, classes))
        access = self.hierarchy.access
        addrs = batch.addrs
        LOAD = OpClass.LOAD
        # Most rows touch no memory: find the ones that do in C.
        for i in compress(count(), map(self._is_memory, classes)):
            if classes[i] == LOAD:
                column[i] = access(addrs[i])
            else:
                access(addrs[i])
        return column


class OoOCore:
    """A columnar trace sink computing cycles, IPC and branch statistics.

    Branch classification is delegated to a
    :class:`~repro.branch.PredictorHarness`, so ``stats.branches`` *is*
    that harness's :class:`~repro.branch.BranchStats`, and row
    latencies to a :class:`LatencyWalk`.  The constructor builds the
    core its own harness from ``predictor`` and the harness options,
    and its own walk over ``hierarchy``; :meth:`sharing` times the rows
    of a harness and a walk that other consumers read too.  Each batch
    is classified and walked first, then timed: predictor and cache
    state depend only on the trace order, never on cycle timing, so one
    classification and one walk serve every core width exactly.
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
        ), LatencyWalk(config.latencies, hierarchy))

    @classmethod
    def sharing(
        cls, config: CoreConfig, harness: PredictorHarness, walk: LatencyWalk
    ) -> "OoOCore":
        """A core timing the rows ``harness`` classifies and ``walk``
        gives latencies.

        Both are fed elsewhere (they may serve other cores, and the
        harness MPKI readers too), so this core must be fed
        ``consume_batch(batch, mispredicted, latencies)`` with the rows
        the harness reported and the column the walk returned for that
        batch.
        """
        core = cls.__new__(cls)
        core._attach(config, harness, walk)
        return core

    def _attach(self, config, harness, walk) -> None:
        self.config = config
        self.harness = harness
        self.predictor = harness.predictor
        self.walk = walk
        self.stats = CoreStats(config.name, predictor_name=self.predictor.name)
        self.stats.branches = harness.stats

        self._reg_ready: List[int] = [0] * NUM_REGS
        # The ROB as a ring of the last rob_size commit cycles, oldest
        # at _rob_slot; -1 marks a slot no instruction has used yet.
        self._rob: List[int] = [-1] * config.rob_size
        self._rob_slot = 0
        self._frontend_ready = 0
        self._dispatch_cycle = 0
        self._dispatch_slots = 0
        self._commit_cycle = 0
        self._commit_slots = 0

    # ------------------------------------------------------------------
    def consume_batch(self, batch, mispredicted=None, latencies=None) -> None:
        """Time one batch.  ``mispredicted`` lists, in row order, the
        rows of the batch that the core's harness already classified
        as mispredicted, and ``latencies`` is the batch's column from
        the core's walk; without them the core classifies the batch
        through its harness and walks it first."""
        if mispredicted is None:
            mispredicted = []
            self.harness.consume_batch(batch, mispredicted)
        if latencies is None:
            latencies = self.walk.column(batch)
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
        reg_ready = self._reg_ready
        rob = self._rob
        rob_slot = self._rob_slot

        frontend_ready = self._frontend_ready
        dispatch_cycle = self._dispatch_cycle
        dispatch_slots = self._dispatch_slots
        commit_cycle = self._commit_cycle
        commit_slots = self._commit_slots
        branch_stall = 0
        next_miss = next(misses, n)

        for i, srcs, latency, dest in zip(
            range(n), batch.srcs, latencies, batch.dests
        ):
            # ----- dispatch: front-end bandwidth + ROB occupancy -------
            dispatch = frontend_ready
            # The slot frees the cycle after its occupant commits.
            oldest = rob[rob_slot]
            if oldest >= dispatch:
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
            for reg in srcs:
                when = reg_ready[reg]
                if when > ready:
                    ready = when
            complete = ready + latency
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
            rob[rob_slot] = commit
            rob_slot += 1
            if rob_slot == rob_size:
                rob_slot = 0

        self._rob_slot = rob_slot
        self._frontend_ready = frontend_ready
        self._dispatch_cycle = dispatch_cycle
        self._dispatch_slots = dispatch_slots
        self._commit_cycle = commit_cycle
        self._commit_slots = commit_slots
        stats.branch_stall_cycles += branch_stall

    # ------------------------------------------------------------------
    def finalize(self) -> CoreStats:
        """Close accounting and return the stats object.  Commit is in
        order, so the last commit cycle is the run's last cycle."""
        stats = self.stats
        stats.cycles = self._commit_cycle if self._commit_cycle else 1
        return stats
