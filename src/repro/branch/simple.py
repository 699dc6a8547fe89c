"""Simple baseline predictors: static, bimodal, gshare and two-level local.

These serve three purposes: baselines in ablation benches, components of
the 1 KB tournament predictor, and easy-to-reason-about fixtures for the
predictor harness tests.
"""

from __future__ import annotations

from .base import BranchPredictor, saturating_update


class AlwaysTaken(BranchPredictor):
    name = "always-taken"

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass

    def storage_bits(self) -> int:
        return 0

    def reset(self) -> None:
        pass


class AlwaysNotTaken(BranchPredictor):
    name = "always-not-taken"

    def predict(self, pc: int) -> bool:
        return False

    def update(self, pc: int, taken: bool) -> None:
        pass

    def storage_bits(self) -> int:
        return 0

    def reset(self) -> None:
        pass


class Bimodal(BranchPredictor):
    """PC-indexed table of 2-bit saturating counters (Smith, 1981)."""

    def __init__(self, entries: int = 1024, counter_bits: int = 2):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.counter_bits = counter_bits
        self._max = (1 << counter_bits) - 1
        self._init = 1 << (counter_bits - 1)
        self.table = [self._init] * entries
        self._mask = entries - 1

    @property
    def name(self) -> str:
        return f"bimodal-{self.entries}"

    def predict(self, pc: int) -> bool:
        return self.table[pc & self._mask] >= self._init

    def update(self, pc: int, taken: bool) -> None:
        index = pc & self._mask
        self.table[index] = saturating_update(self.table[index], taken, self._max)

    def storage_bits(self) -> int:
        return self.entries * self.counter_bits

    def reset(self) -> None:
        self.table = [self._init] * self.entries


class GShare(BranchPredictor):
    """Global-history predictor: PC xor history indexes 2-bit counters."""

    def __init__(self, entries: int = 4096, history_bits: int = 12):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.history_bits = history_bits
        self.table = [2] * entries
        self._mask = entries - 1
        self._hist_mask = (1 << history_bits) - 1
        self.history = 0

    @property
    def name(self) -> str:
        return f"gshare-{self.entries}x{self.history_bits}h"

    def _index(self, pc: int) -> int:
        return (pc ^ self.history) & self._mask

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        self.table[index] = saturating_update(self.table[index], taken, 3)
        self.history = ((self.history << 1) | (1 if taken else 0)) & self._hist_mask

    def insert_history(self, pc: int, taken: bool) -> None:
        self.history = ((self.history << 1) | (1 if taken else 0)) & self._hist_mask

    def storage_bits(self) -> int:
        return self.entries * 2 + self.history_bits

    def reset(self) -> None:
        self.table = [2] * self.entries
        self.history = 0


class TwoLevelLocal(BranchPredictor):
    """Per-branch history into a shared pattern table (Yeh & Patt)."""

    def __init__(self, history_entries: int = 256, history_bits: int = 8,
                 pattern_entries: int = 1024):
        if history_entries & (history_entries - 1):
            raise ValueError("history_entries must be a power of two")
        if pattern_entries & (pattern_entries - 1):
            raise ValueError("pattern_entries must be a power of two")
        self.history_entries = history_entries
        self.history_bits = history_bits
        self.pattern_entries = pattern_entries
        self.histories = [0] * history_entries
        self.patterns = [2] * pattern_entries
        self._hmask = history_entries - 1
        self._pmask = pattern_entries - 1
        self._hist_mask = (1 << history_bits) - 1

    @property
    def name(self) -> str:
        return f"local-{self.history_entries}x{self.history_bits}h"

    def predict(self, pc: int) -> bool:
        history = self.histories[pc & self._hmask]
        return self.patterns[(history ^ pc) & self._pmask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        hindex = pc & self._hmask
        history = self.histories[hindex]
        pindex = (history ^ pc) & self._pmask
        self.patterns[pindex] = saturating_update(self.patterns[pindex], taken, 3)
        self.histories[hindex] = ((history << 1) | (1 if taken else 0)) & self._hist_mask

    def insert_history(self, pc: int, taken: bool) -> None:
        hindex = pc & self._hmask
        self.histories[hindex] = (
            (self.histories[hindex] << 1) | (1 if taken else 0)
        ) & self._hist_mask

    def storage_bits(self) -> int:
        return (
            self.history_entries * self.history_bits + self.pattern_entries * 2
        )

    def reset(self) -> None:
        self.histories = [0] * self.history_entries
        self.patterns = [2] * self.pattern_entries
