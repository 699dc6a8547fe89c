"""PBS hardware tables: Prob-BTB, SwapTable and Prob-in-Flight (§V-C).

The functional model keeps probabilistic *values* directly in the table
entries where the hardware would keep physical-register pointers; the
capacity and indexing behaviour (what the evaluation depends on) is
modelled exactly, and the bit-level cost lives in :mod:`repro.core.cost`.
"""

from __future__ import annotations

from typing import Deque, Dict, List, Optional, Tuple

#: A branch identity: (PROB_JMP pc, loop slot, function call PC).
BranchKey = Tuple[int, int, int]

#: One executed instance of a probabilistic branch: its outcome and the
#: probabilistic values that produced it, as ``(taken, values)``.
Record = Tuple[bool, List[float]]


class ProbBTBEntry:
    """One Prob-BTB entry (plus its SwapTable slots, held by reference).

    ``record`` is the ``(taken, values)`` record currently steering
    fetch (the paper's T/NT + Pr-Phy + SwapTable pointers), or ``None``
    until one is pulled in; ``const_val`` is the comparison constant
    registered at allocation for the safety check.
    """

    __slots__ = ("key", "const_val", "record", "loop_slot", "last_use")

    def __init__(self, key: BranchKey, const_val):
        self.key = key
        self.const_val = const_val
        self.record: Optional[Record] = None
        self.loop_slot = key[1]
        self.last_use = 0


class SwapTable:
    """Capacity accounting for probabilistic values beyond the first.

    The Prob-BTB entry itself holds one value slot (Pr-Phy); each extra
    value of a branch occupies one SwapTable entry.  Entries are allocated
    per branch at Prob-BTB allocation time and freed with the entry.
    """

    def __init__(self, entries: int):
        self.capacity = entries
        self._used: Dict[BranchKey, int] = {}

    @property
    def used(self) -> int:
        return sum(self._used.values())

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def allocate(self, key: BranchKey, count: int) -> bool:
        if count == 0:
            return True
        if count > self.free:
            return False
        self._used[key] = count
        return True

    def release(self, key: BranchKey) -> None:
        self._used.pop(key, None)


class ProbInFlightTable:
    """FIFO of executed instances awaiting their pull into the Prob-BTB.

    One queue of ``(taken, values)`` records per tracked branch; the
    queue depth equals the configured number of outstanding in-flight
    instances, which is also the replay lag: instance *i* replays the
    record of instance *i - depth*.  The push at execute and the pull of
    the oldest record once ``depth`` are outstanding happen in
    :meth:`PBSEngine.transact`, which runs once per probabilistic branch
    and so works on ``queues`` directly.
    """

    def __init__(self, depth: int):
        self.depth = depth
        self.queues: Dict[BranchKey, Deque[Record]] = {}

    def release(self, key: BranchKey) -> None:
        self.queues.pop(key, None)


class ProbBTB:
    """The Prob-BTB: a small fully-associative table of probabilistic
    branches, indexed by (branch PC, context).

    Replacement is least-recently-used: ``use_clock`` stamps an entry's
    ``last_use`` at allocation and at every hit.  The hit lookup is part
    of :meth:`PBSEngine.transact`, which reads ``entries`` directly.
    """

    def __init__(self, entries: int):
        self.capacity = entries
        self.entries: Dict[BranchKey, ProbBTBEntry] = {}
        self.use_clock = 0

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def allocate(self, key: BranchKey, const_val) -> Optional[ProbBTBEntry]:
        if self.full:
            return None
        entry = ProbBTBEntry(key, const_val)
        self.use_clock += 1
        entry.last_use = self.use_clock
        self.entries[key] = entry
        return entry

    def evict_candidate(self, active_slot: int) -> Optional[BranchKey]:
        """Pick a victim when the table is full: the least recently used
        entry *outside* the active loop context.

        This is the paper's scalability heuristic (§V-C2): "it may clear
        branches from outer loop levels first".  Entries in the active
        loop are never evicted; if every entry is active-context the
        allocation is rejected instead.
        """
        candidates = [
            entry
            for entry in self.entries.values()
            if entry.loop_slot != active_slot
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda entry: entry.last_use).key

    def invalidate(self, key: BranchKey) -> None:
        self.entries.pop(key, None)

    def flush_loop_slot(self, slot: int) -> List[BranchKey]:
        """Clear every entry associated with a context-table slot.

        Mirrors the paper: "The clearing process searches all the entries
        in the table for a matching context number ... and negates their
        valid bit", reclaiming the value storage.
        """
        victims = [
            key for key, entry in self.entries.items() if entry.loop_slot == slot
        ]
        for key in victims:
            del self.entries[key]
        return victims

    def keys(self):
        return list(self.entries.keys())
