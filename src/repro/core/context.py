"""The Context-Table: loop and function-call context tracking (§V-C1).

PBS must separate executions of the same probabilistic branch reached
through different contexts, and must flush its state when a loop
terminates so a later execution of the loop re-bootstraps cleanly.  The
paper tracks the two innermost loops (detected from backward branches,
after Tubella & González) and one level of function calls inside the
active loop.

Loop detection protocol:

* A **taken backward branch** (target < pc) identifies a loop whose first
  instruction is the branch target (``Loop-PC``); the branch's own address
  is recorded as ``Last-PC`` (and raised if a later backward branch to the
  same Loop-PC sits at a higher address).
* A **not-taken backward branch at or beyond Last-PC** terminates the
  loop: its entry is removed and every PBS table entry associated with it
  is cleared.  If the older of the two tracked loops terminates first,
  both are erased (the paper's simplification).
* Allocating a loop when the table is full evicts the oldest entry
  (clearing its branches).

Function calls: a call made while a loop is active records the call PC in
the entry's ``Function-PC`` field and bumps a 3-bit depth counter; returns
decrement it.  Probabilistic branches are tracked only at depth 0 (in the
loop body) or 1 (inside a function called from the loop body).

:meth:`PBSEngine.transact` reads the context of a probabilistic branch
straight from ``active_slot`` and that slot's entry: the key is (slot,
Function-PC while the depth counter is non-zero, else 0), or (-1, 0)
when no loop is live.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional

class _LoopEntry:
    __slots__ = ("loop_pc", "last_pc", "function_pc", "counter", "sequence")

    def __init__(self, loop_pc: int, last_pc: int, sequence: int):
        self.loop_pc = loop_pc
        self.last_pc = last_pc
        self.function_pc = 0
        self.counter = 0
        self.sequence = sequence  # allocation order; larger = newer


class ContextTable:
    """Tracks the two innermost loops plus function-call context.

    ``on_flush`` is invoked with a slot index whenever that slot's PBS
    entries must be cleared (loop termination, eviction).
    """

    MAX_COUNTER = 7  # 3-bit depth counter

    def __init__(
        self,
        entries: int = 2,
        max_function_depth: int = 1,
        on_flush: Optional[Callable[[int], None]] = None,
    ):
        self.capacity = entries
        self.max_function_depth = max_function_depth
        self.on_flush = on_flush
        self.slots: List[Optional[_LoopEntry]] = [None] * entries
        #: Most recently allocated live slot, or -1 when no loop is live.
        self.active_slot = -1
        self._sequence = 0
        self.loops_detected = 0
        self.loops_terminated = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _flush_slot(self, slot: int) -> None:
        if self.slots[slot] is not None:
            self.slots[slot] = None
            if slot == self.active_slot:
                self.active_slot = self._newest_slot()
            if self.on_flush is not None:
                self.on_flush(slot)

    def _newest_slot(self) -> int:
        """Rescan for the most recently allocated live slot, or -1."""
        best = -1
        best_seq = -1
        for index, entry in enumerate(self.slots):
            if entry is not None and entry.sequence > best_seq:
                best_seq = entry.sequence
                best = index
        return best

    def _allocate(self, loop_pc: int, last_pc: int) -> int:
        if self.active_slot < 0:
            # Entering the first loop ends the "no loop" context: PBS
            # entries allocated before any loop was detected (slot -1)
            # belong to a context that has now finished.
            if self.on_flush is not None:
                self.on_flush(-1)
        slots = self.slots
        free = oldest = -1
        for index, entry in enumerate(slots):
            if entry is None:
                free = index
                break
            if oldest < 0 or entry.sequence < slots[oldest].sequence:
                oldest = index
        if free < 0:
            # Evict the oldest entry, clearing its PBS state.
            self.evictions += 1
            self._flush_slot(oldest)
            free = oldest
        self._sequence += 1
        slots[free] = _LoopEntry(loop_pc, last_pc, self._sequence)
        self.active_slot = free
        self.loops_detected += 1
        return free

    # ------------------------------------------------------------------
    def observe_branch(self, pc: int, taken: bool, target: Optional[int]) -> None:
        """Feed every control-flow transfer (including JMP) through here."""
        if target is None or target >= pc:
            # Only backward branches matter for loop tracking.  The
            # compiled tier applies the same test when it generates code
            # and emits no call for a forward transfer: keep them in step.
            return

        for entry in self.slots:
            if entry is not None and entry.loop_pc == target:
                break
        else:
            if taken:
                self._allocate(target, pc)
            return
        if taken:
            if pc > entry.last_pc:
                entry.last_pc = pc
            return

        # Not-taken backward branch: terminates the loop it belongs to if
        # the branch sits at or beyond the recorded Last-PC.
        if pc >= entry.last_pc:
            self.loops_terminated += 1
            self._flush_slot(self.slots.index(entry))
            # If the terminated loop is older than another live loop that
            # is *nested inside it* we would leave a stale inner loop; the
            # paper erases both when the older one terminates first.
            for index, newer in enumerate(self.slots):
                if newer is not None and newer.sequence > entry.sequence:
                    self.loops_terminated += 1
                    self._flush_slot(index)

    def observe_call(self, pc: int) -> None:
        slot = self.active_slot
        if slot < 0:
            return
        entry = self.slots[slot]
        if entry.counter < self.MAX_COUNTER:
            entry.counter += 1
        if entry.counter == 1:
            entry.function_pc = pc

    def observe_return(self, pc: int) -> None:
        slot = self.active_slot
        if slot < 0:
            return
        entry = self.slots[slot]
        if entry.counter > 0:
            entry.counter -= 1
        if entry.counter == 0:
            entry.function_pc = 0

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the loop/call context for a context switch.

        Slot entries are deep-copied so the snapshot stays valid while
        the live table keeps tracking loops.
        """
        return {
            "slots": copy.deepcopy(self.slots),
            "sequence": self._sequence,
        }

    def restore(self, snapshot: dict) -> None:
        self.slots = copy.deepcopy(snapshot["slots"])
        self._sequence = snapshot["sequence"]
        self.active_slot = self._newest_slot()

    def reset(self) -> None:
        for slot in range(self.capacity):
            self._flush_slot(slot)
        self._sequence = 0
