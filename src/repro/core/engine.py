"""The PBS engine: ties the tables together and implements the protocol.

The functional simulator calls :meth:`PBSEngine.transact` once per
executed probabilistic branch group and :meth:`observe_branch` /
:meth:`observe_call` / :meth:`observe_return` for the surrounding control
flow.  Those three are the context table's own methods, or a no-op
without context support; the compiled tier calls ``observe_branch`` only
at backward transfers, the only ones the table reacts to.

``transact(jmp_pc, cond, const_value, values)`` takes the jumping
``PROB_JMP``'s pc, the condition computed from the new probabilistic
value, the comparison constant and the group's new values.  It returns
the replayed ``(taken, values)`` record on a hit and ``None`` otherwise.
:class:`PBSStats` counts each instance in one of three categories:

``hits``
    The Prob-BTB steers fetch with a recorded direction; the recorded
    probabilistic values are swapped into the registers and the newly
    generated values enter the Prob-in-Flight table.  No prediction, no
    possible misprediction (paper Section III-B).

``bootstraps``
    The instance executes as a regular branch while its record is
    collected.  After ``inflight_depth`` records the oldest is pulled
    into the Prob-BTB and the branch goes live.

``fallbacks``
    PBS declines the branch (it executes as a regular one): Const-Val
    mismatch, table capacity, too many probabilistic values, unsupported
    call depth, or PBS disabled for the branch after a safety flush.
    Each reason has its own counter.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import List, Optional, Set

from .config import PBSConfig
from .context import ContextTable
from .tables import BranchKey, ProbBTB, ProbInFlightTable, Record, SwapTable


class PBSStats:
    """Aggregate PBS behaviour counters."""

    __slots__ = (
        "instances",
        "hits",
        "bootstraps",
        "fallbacks",
        "const_mismatches",
        "capacity_rejects",
        "swap_rejects",
        "value_count_rejects",
        "deep_call_rejects",
        "loop_flushes",
        "allocations",
    )

    def __init__(self):
        self.instances = 0
        self.hits = 0
        self.bootstraps = 0
        self.fallbacks = 0
        self.const_mismatches = 0
        self.capacity_rejects = 0
        self.swap_rejects = 0
        self.value_count_rejects = 0
        self.deep_call_rejects = 0
        self.loop_flushes = 0
        self.allocations = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.instances if self.instances else 0.0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _ignore(*args, **kwargs) -> None:
    """The control-flow observers of an engine without context support."""


class PBSEngine:
    """Functional + structural model of the PBS hardware unit."""

    def __init__(self, config: Optional[PBSConfig] = None):
        self.config = config if config is not None else PBSConfig()
        self.btb = ProbBTB(self.config.num_branches)
        self.swap = SwapTable(self.config.swap_entries)
        self.inflight = ProbInFlightTable(self.config.inflight_depth)
        self.context = ContextTable(
            entries=self.config.context_entries,
            max_function_depth=self.config.max_function_depth,
            on_flush=self._flush_loop_slot,
        )
        self.stats = PBSStats()
        self._blacklist: Set[BranchKey] = set()
        # Control-flow observation drives the Context-Table, or nothing
        # without context support; both tiers call these directly.
        if self.config.context_support:
            self.observe_branch = self.context.observe_branch
            self.observe_call = self.context.observe_call
            self.observe_return = self.context.observe_return
        else:
            self.observe_branch = self.observe_call = self.observe_return = _ignore

    # ------------------------------------------------------------------
    # The probabilistic branch transaction.
    # ------------------------------------------------------------------
    def transact(
        self, jmp_pc: int, cond: bool, const_value, values: List[float]
    ) -> Optional[Record]:
        # One body for the common path (context key, blacklist, Prob-BTB
        # lookup and LRU stamp, Const-Val check, in-flight push and pull):
        # it runs once per probabilistic branch, so it calls no helper
        # until a rare event (allocation, release) needs one.  It is the
        # only implementation of these steps; the tables hold the state.
        # ``values`` becomes the record without a copy: both tiers build
        # that list fresh for each group and never touch it again.
        stats = self.stats
        stats.instances += 1

        slot = -1
        function_pc = 0
        if self.config.context_support:
            context = self.context
            slot = context.active_slot
            if slot >= 0:
                loop = context.slots[slot]
                if loop.counter > context.max_function_depth:
                    # Function-call depth beyond the supported level:
                    # PBS treats the branch as regular (paper §V-C1).
                    stats.deep_call_rejects += 1
                    stats.fallbacks += 1
                    return None
                if loop.counter:
                    function_pc = loop.function_pc
        key = (jmp_pc, slot, function_pc)

        blacklist = self._blacklist
        if blacklist and key in blacklist:
            stats.fallbacks += 1
            return None

        btb = self.btb
        entry = btb.entries.get(key)
        if entry is None:
            entry = self._try_allocate(key, const_value, len(values))
            if entry is None:
                stats.fallbacks += 1
                return None
        else:
            btb.use_clock += 1
            entry.last_use = btb.use_clock

        # Const-Val safety check: the comparison constant must not change
        # within a context (paper §IV, §V-C1).
        if entry.const_val != const_value:
            stats.const_mismatches += 1
            self._release(key)
            if self.config.blacklist_on_const_mismatch:
                self._blacklist.add(key)
            stats.fallbacks += 1
            return None

        # Record the newly generated values and outcome for a future
        # instance (push at execute), then pull the oldest record into
        # the Prob-BTB once enough instances are outstanding.
        inflight = self.inflight
        queue = inflight.queues.get(key)
        if queue is None:
            queue = inflight.queues[key] = deque()
        queue.append((cond, values))
        record = entry.record
        entry.record = queue.popleft() if len(queue) >= inflight.depth else None

        if record is None:
            # Bootstrap: behave as a regular branch while recording.
            stats.bootstraps += 1
            return None
        # Steady state: replay the stored record.
        stats.hits += 1
        return record

    # ------------------------------------------------------------------
    def _try_allocate(self, key: BranchKey, const_value, num_values: int):
        if num_values > self.config.max_values_per_branch:
            self.stats.value_count_rejects += 1
            return None
        if self.btb.full:
            victim = self.btb.evict_candidate(active_slot=key[1])
            if victim is None:
                self.stats.capacity_rejects += 1
                return None
            self._release(victim)
        if not self.swap.allocate(key, max(0, num_values - 1)):
            self.stats.swap_rejects += 1
            return None
        entry = self.btb.allocate(key, const_value)
        if entry is None:  # pragma: no cover - guarded by btb.full above
            self.swap.release(key)
            return None
        self.stats.allocations += 1
        return entry

    def _release(self, key: BranchKey) -> None:
        self.btb.invalidate(key)
        self.swap.release(key)
        self.inflight.release(key)

    def _flush_loop_slot(self, slot: int) -> None:
        """Loop terminated or evicted: clear its branches everywhere."""
        victims = self.btb.flush_loop_slot(slot)
        for key in victims:
            self.swap.release(key)
            self.inflight.release(key)
            self.stats.loop_flushes += 1
        # Blacklist entries die with their context.
        if self._blacklist:
            self._blacklist = {key for key in self._blacklist if key[1] != slot}

    # ------------------------------------------------------------------
    # Context-switch support (paper §V-C2): "we recommend storing the 193
    # bytes of state information maintained by PBS and retrieving it when
    # the context resumes.  By doing so, PBS resumes its execution without
    # incurring an additional initialization phase."
    # ------------------------------------------------------------------
    def save_state(self) -> dict:
        """Capture the architectural PBS state (the 193 bytes).

        The snapshot is a deep copy: the engine may keep executing (and
        mutating its tables) after the save without corrupting it, just
        as saved-to-memory hardware state is immune to later execution.
        """
        return {
            "btb": copy.deepcopy(self.btb),
            "swap": copy.deepcopy(self.swap),
            "inflight": copy.deepcopy(self.inflight),
            "context": self.context.snapshot(),
            "blacklist": set(self._blacklist),
        }

    def restore_state(self, snapshot: dict) -> None:
        """Resume from a snapshot taken by :meth:`save_state`.

        The snapshot itself stays intact (tables are copied in), so one
        snapshot can seed several engines or be restored repeatedly.
        """
        self.btb = copy.deepcopy(snapshot["btb"])
        self.swap = copy.deepcopy(snapshot["swap"])
        self.inflight = copy.deepcopy(snapshot["inflight"])
        self.context.restore(snapshot["context"])
        self._blacklist = set(snapshot["blacklist"])

    def reset(self) -> None:
        self.btb = ProbBTB(self.config.num_branches)
        self.swap = SwapTable(self.config.swap_entries)
        self.inflight = ProbInFlightTable(self.config.inflight_depth)
        self.context.reset()
        self.stats = PBSStats()
        self._blacklist = set()
