"""TAGE: tagged geometric-history-length branch predictor (Seznec &
Michaud, JILP 2006).

A bimodal base predictor is backed by several tagged tables indexed with
hashes of geometrically increasing global-history lengths.  The longest
matching table provides the prediction; allocation on mispredictions steers
hard branches toward longer histories.  This implementation follows the
championship code's structure (folded histories, u-bits with periodic
aging, use-alt-on-newly-allocated) scaled to the paper's 8 KB budget.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .base import BranchPredictor
from .folded import FoldedHistory
from .simple import Bimodal

# Geometric history lengths.  Capped at 64: with the kernel-sized
# footprints this reproduction simulates, exact 100+-bit contexts almost
# never repeat, so entries allocated there on pattern flicker stay stale
# yet outrank reliable mid-length providers (measured as a 4x MPKI
# inflation on bandit's argmax scan).  64 bits still covers several
# iterations of every loop pattern in the workloads.
DEFAULT_HISTORY_LENGTHS = (2, 4, 8, 16, 32, 64)


class Tage(BranchPredictor):
    """The TAGE predictor proper (no loop predictor, no corrector)."""

    CTR_MIN, CTR_MAX = -4, 3

    def __init__(
        self,
        base_entries: int = 4096,
        table_entries: int = 512,
        tag_bits: int = 9,
        history_lengths: Sequence[int] = DEFAULT_HISTORY_LENGTHS,
        useful_reset_period: int = 256 * 1024,
    ):
        if table_entries & (table_entries - 1):
            raise ValueError("table_entries must be a power of two")
        self.base = Bimodal(entries=base_entries)
        self.history_lengths = tuple(history_lengths)
        self.num_tables = len(self.history_lengths)
        self.table_entries = table_entries
        self.tag_bits = tag_bits
        self._index_bits = table_entries.bit_length() - 1
        self._index_mask = table_entries - 1
        self._tag_mask = (1 << tag_bits) - 1
        # Tagged tables as parallel int lists, one list per table:
        # ``ctr`` a signed 3-bit counter in [-4, 3] (taken if >= 0),
        # ``tag`` the partial tag and ``useful`` a 2-bit usefulness.
        self.ctr: List[List[int]] = self._zeros()
        self.tag: List[List[int]] = self._zeros()
        self.useful: List[List[int]] = self._zeros()
        # Per-table constants of the index hash.
        self._pc_shifts = [
            self._index_bits - table % self._index_bits or 1
            for table in range(self.num_tables)
        ]
        self._length_bits = [
            length & self._index_mask for length in self.history_lengths
        ]
        self._fold_index = [
            FoldedHistory(length, self._index_bits)
            for length in self.history_lengths
        ]
        self._fold_tag0 = [
            FoldedHistory(length, tag_bits) for length in self.history_lengths
        ]
        self._fold_tag1 = [
            FoldedHistory(length, tag_bits - 1) for length in self.history_lengths
        ]
        self._history = 0
        self._history_mask = (1 << (max(self.history_lengths) + 2)) - 1
        self.use_alt_on_na = 8  # 4-bit counter in [0, 15]
        self._lfsr = 0xACE1     # deterministic allocation "randomness"
        self.useful_reset_period = useful_reset_period
        self._tick = 0
        # Prediction context carried from predict() to update().
        self._ctx: Optional[tuple] = None

    @property
    def name(self) -> str:
        return f"tage-{self.num_tables}x{self.table_entries}"

    def _zeros(self) -> List[List[int]]:
        return [[0] * self.table_entries for _ in range(self.num_tables)]

    # ------------------------------------------------------------------
    def _index(self, pc: int, table: int) -> int:
        return (
            pc
            ^ (pc >> self._pc_shifts[table])
            ^ self._fold_index[table].comp
            ^ self._length_bits[table]
        ) & self._index_mask

    def _tag(self, pc: int, table: int) -> int:
        return (
            pc ^ self._fold_tag0[table].comp ^ (self._fold_tag1[table].comp << 1)
        ) & self._tag_mask

    def _next_random(self) -> int:
        # 16-bit Fibonacci LFSR (taps 16, 14, 13, 11).
        lfsr = self._lfsr
        bit = ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1
        self._lfsr = (lfsr >> 1) | (bit << 15)
        return self._lfsr

    # ------------------------------------------------------------------
    def predict(self, pc: int) -> bool:
        indices = [self._index(pc, t) for t in range(self.num_tables)]
        tags = [self._tag(pc, t) for t in range(self.num_tables)]

        provider = -1
        alt = -1
        for table in range(self.num_tables - 1, -1, -1):
            if self.tag[table][indices[table]] == tags[table]:
                if provider < 0:
                    provider = table
                elif alt < 0:
                    alt = table
                    break

        base_pred = self.base.predict(pc)
        if provider >= 0:
            ctr = self.ctr[provider][indices[provider]]
            provider_pred = ctr >= 0
            alt_pred = (
                self.ctr[alt][indices[alt]] >= 0 if alt >= 0 else base_pred
            )
            # Newly allocated entries (weak counter, not yet useful) are
            # unreliable; optionally trust the alternate prediction.
            newly_allocated = (
                self.useful[provider][indices[provider]] == 0 and ctr in (-1, 0)
            )
            if newly_allocated and self.use_alt_on_na >= 8:
                prediction = alt_pred
            else:
                prediction = provider_pred
        else:
            provider_pred = alt_pred = base_pred
            prediction = base_pred

        self._ctx = (indices, tags, provider, alt, provider_pred, alt_pred, prediction)
        return prediction

    # ------------------------------------------------------------------
    def update(self, pc: int, taken: bool) -> None:
        if self._ctx is None:
            self.predict(pc)
        indices, tags, provider, alt, provider_pred, alt_pred, prediction = self._ctx
        self._ctx = None

        mispredicted = prediction != taken

        # Allocate a new entry on a misprediction, in a table with a longer
        # history than the provider, preferring entries with useful == 0.
        if mispredicted and provider < self.num_tables - 1:
            start = provider + 1
            # Random skip makes allocation spread across tables.
            if start < self.num_tables - 1 and self._next_random() & 1:
                start += 1
            allocated = False
            for table in range(start, self.num_tables):
                index = indices[table]
                if self.useful[table][index] == 0:
                    self.tag[table][index] = tags[table]
                    self.ctr[table][index] = 0 if taken else -1
                    allocated = True
                    break
            if not allocated:
                for table in range(start, self.num_tables):
                    useful = self.useful[table]
                    index = indices[table]
                    if useful[index] > 0:
                        useful[index] -= 1

        if provider >= 0:
            index = indices[provider]
            ctrs = self.ctr[provider]
            useful = self.useful[provider]
            ctr = ctrs[index]
            # Track whether trusting the alternate over new entries pays off.
            newly_allocated = useful[index] == 0 and ctr in (-1, 0)
            if newly_allocated and provider_pred != alt_pred:
                if alt_pred == taken:
                    if self.use_alt_on_na < 15:
                        self.use_alt_on_na += 1
                elif self.use_alt_on_na > 0:
                    self.use_alt_on_na -= 1

            if taken:
                if ctr < self.CTR_MAX:
                    ctrs[index] = ctr + 1
            else:
                if ctr > self.CTR_MIN:
                    ctrs[index] = ctr - 1

            if provider_pred != alt_pred:
                if provider_pred == taken:
                    if useful[index] < 3:
                        useful[index] += 1
                elif useful[index] > 0:
                    useful[index] -= 1

            # Keep the base predictor warm when it served as the alternate.
            if alt < 0:
                self.base.update(pc, taken)
        else:
            self.base.update(pc, taken)

        # Periodic aging of usefulness bits.
        self._tick += 1
        if self._tick >= self.useful_reset_period:
            self._tick = 0
            self.age_useful()

        self._update_history(taken)

    def age_useful(self) -> None:
        """Halve every usefulness counter (in place: the batch kernel
        holds references to the per-table lists)."""
        for useful in self.useful:
            useful[:] = [u >> 1 for u in useful]

    def insert_history(self, pc: int, taken: bool) -> None:
        # Drop any stale prediction context: the tagged-table indices it
        # caches were computed against the pre-insertion history.
        self._ctx = None
        self._update_history(taken)

    def _update_history(self, taken: bool) -> None:
        bit = 1 if taken else 0
        self._history = ((self._history << 1) | bit) & self._history_mask
        for fold in self._fold_index:
            fold.update(self._history, bit)
        for fold in self._fold_tag0:
            fold.update(self._history, bit)
        for fold in self._fold_tag1:
            fold.update(self._history, bit)

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        per_entry = 3 + 2 + self.tag_bits
        tagged = self.num_tables * self.table_entries * per_entry
        history = max(self.history_lengths) + 2
        return self.base.storage_bits() + tagged + history + 4 + 16

    def reset(self) -> None:
        self.base.reset()
        self.ctr = self._zeros()
        self.tag = self._zeros()
        self.useful = self._zeros()
        for fold in self._fold_index + self._fold_tag0 + self._fold_tag1:
            fold.reset()
        self._history = 0
        self.use_alt_on_na = 8
        self._lfsr = 0xACE1
        self._tick = 0
        self._ctx = None
