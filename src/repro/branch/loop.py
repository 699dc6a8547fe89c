"""Loop predictor: recognises branches with a fixed trip count.

The Pentium-M documents a loop-branch predictor alongside its bimodal and
global components, and TAGE-SC-L ("L") carries one too.  The predictor
learns the iteration count of a loop-closing branch and predicts the final
(exit) iteration correctly — something counter-based predictors always get
wrong once per loop execution.
"""

from __future__ import annotations

from .base import BranchPredictor


class LoopPredictor(BranchPredictor):
    """Tagged loop-termination predictor.

    An entry tracks ``past_count``, the trip count observed on the last
    complete execution of the loop.  While ``confidence`` is saturated the
    predictor asserts a hit: it predicts the body direction until
    ``current_count`` reaches ``past_count``, then predicts the exit.

    :meth:`predict` returns the plain direction guess; :meth:`hit` tells a
    combiner whether the entry is confident enough to override.
    """

    MAX_CONFIDENCE = 3

    def __init__(self, entries: int = 64, tag_bits: int = 10,
                 count_bits: int = 12):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.tag_bits = tag_bits
        self.count_bits = count_bits
        self._max_count = (1 << count_bits) - 1
        self._mask = entries - 1
        self._tag_shift = entries.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._clear()

    def _clear(self) -> None:
        # One entry per index, as parallel lists: ``tag`` (-1 = invalid),
        # the trip counts, a 2-bit ``confidence`` and replacement ``age``,
        # and the loop body's ``direction`` (usually taken).
        entries = self.entries
        self.tag = [-1] * entries
        self.past_count = [0] * entries
        self.current_count = [0] * entries
        self.confidence = [0] * entries
        self.age = [0] * entries
        self.direction = [True] * entries

    @property
    def name(self) -> str:
        return f"loop-{self.entries}"

    def _tag(self, pc: int) -> int:
        return (pc >> self._tag_shift) & self._tag_mask

    def hit(self, pc: int) -> bool:
        """Whether this branch has a confident loop entry."""
        index = pc & self._mask
        return (
            self.tag[index] == self._tag(pc)
            and self.confidence[index] >= self.MAX_CONFIDENCE
            and self.past_count[index] > 0
        )

    def predict(self, pc: int) -> bool:
        index = pc & self._mask
        past_count = self.past_count[index]
        if self.tag[index] != self._tag(pc) or past_count == 0:
            return True
        # past_count body iterations precede the exit, so the exit is the
        # iteration at which current_count has already reached past_count.
        if self.current_count[index] >= past_count:
            return not self.direction[index]  # the exit iteration
        return self.direction[index]

    def update(self, pc: int, taken: bool) -> None:
        index = pc & self._mask
        tag = self._tag(pc)
        if self.tag[index] != tag:
            # Allocate on a taken branch (candidate loop-closing branch).
            if taken:
                if self.age[index] > 0:
                    self.age[index] -= 1
                    return
                self.tag[index] = tag
                self.past_count[index] = 0
                self.current_count[index] = 1
                self.confidence[index] = 0
                self.age[index] = 3
                self.direction[index] = True
            return

        if taken == self.direction[index]:
            self.current_count[index] += 1
            if self.current_count[index] > self._max_count:
                # Loop too long to track: give the entry up.
                self.tag[index] = -1
        else:
            # The loop exited; compare with the recorded trip count.
            if self.past_count[index] == self.current_count[index]:
                if self.confidence[index] < self.MAX_CONFIDENCE:
                    self.confidence[index] += 1
            else:
                self.past_count[index] = self.current_count[index]
                self.confidence[index] = 0
            self.current_count[index] = 0
            self.age[index] = 3

    def storage_bits(self) -> int:
        per_entry = (
            self.tag_bits
            + 2 * self.count_bits  # past + current
            + 2                    # confidence
            + 2                    # age
            + 1                    # direction
        )
        return self.entries * per_entry

    def reset(self) -> None:
        self._clear()
