"""The 1 KB tournament predictor (Pentium-M-like).

The paper's first baseline: "a 1 KB tournament predictor modeled after the
Pentium-M, consisting of a global branch predictor, a bimodal branch
predictor and a loop branch predictor" (Section VI-B, after Uzelac &
Milenkovic's reverse engineering).  A per-PC chooser arbitrates between the
bimodal and global components; a confident loop entry overrides both.

Storage budget (default configuration):

==============  =======================  ======
component       configuration            bits
==============  =======================  ======
bimodal         1024 x 2-bit             2048
global (gshare) 2048 x 2-bit + 10h       4106
chooser         256 x 2-bit              512
loop            32 entries x 41 bits     1312
total                                    7978  (< 8192 = 1 KB)
==============  =======================  ======
"""

from __future__ import annotations

from typing import List, Sequence

from .base import BranchPredictor, saturating_update
from .loop import LoopPredictor
from .simple import Bimodal, GShare


class Tournament(BranchPredictor):
    """Bimodal + global + loop with a chooser, sized to a 1 KB budget."""

    def __init__(
        self,
        bimodal_entries: int = 1024,
        global_entries: int = 2048,
        history_bits: int = 10,
        chooser_entries: int = 256,
        loop_entries: int = 32,
    ):
        self.bimodal = Bimodal(entries=bimodal_entries)
        self.gshare = GShare(entries=global_entries, history_bits=history_bits)
        self.loop = LoopPredictor(entries=loop_entries)
        self.chooser = [2] * chooser_entries
        self._chooser_mask = chooser_entries - 1
        self._last: tuple = (False, False)

    @property
    def name(self) -> str:
        return "tournament-1kb"

    def predict(self, pc: int) -> bool:
        bimodal_pred = self.bimodal.predict(pc)
        global_pred = self.gshare.predict(pc)
        self._last = (bimodal_pred, global_pred)
        if self.loop.hit(pc):
            return self.loop.predict(pc)
        use_global = self.chooser[pc & self._chooser_mask] >= 2
        return global_pred if use_global else bimodal_pred

    def update(self, pc: int, taken: bool) -> None:
        bimodal_pred, global_pred = self._last
        # Train the chooser only when the components disagree.
        if bimodal_pred != global_pred:
            index = pc & self._chooser_mask
            self.chooser[index] = saturating_update(
                self.chooser[index], global_pred == taken, 3
            )
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)
        self.loop.update(pc, taken)

    def insert_history(self, pc: int, taken: bool) -> None:
        self.gshare.insert_history(pc, taken)

    def predict_update_batch(
        self, pcs: Sequence[int], takens: Sequence[bool], trains: Sequence[bool]
    ) -> List[bool]:
        """The fused kernel: :meth:`predict`, :meth:`update` and
        :meth:`insert_history` of the bimodal, gshare, chooser and loop
        components inlined into one walk over the ops, with every table,
        register and constant in a local.  Same predictions and end
        state as the per-op reference sequence
        (``tests/test_branch_kernels.py``)."""
        bimodal_table = self.bimodal.table
        bimodal_mask = self.bimodal._mask
        bimodal_init = self.bimodal._init
        bimodal_max = self.bimodal._max
        gshare_table = self.gshare.table
        gshare_mask = self.gshare._mask
        history_mask = self.gshare._hist_mask
        history = self.gshare.history
        chooser = self.chooser
        chooser_mask = self._chooser_mask
        # The last trained op's component predictions, for ``_last``.
        bimodal_pred, global_pred = self._last

        # The loop lookup and update below copy LoopPredictor.hit,
        # .predict and .update; tests/test_branch_kernels.py holds the
        # copy to them.  Calling the three methods per trained op, with
        # all else fused, cost 4.5% of mpki-grid wall_s (0.399 -> 0.418 s median,
        # 10/10 alternating pairs, 2-vCPU VM) and ~1.4x on the 20k-branch
        # harness microbenchmark.
        loop = self.loop
        loop_mask = loop._mask
        loop_shift = loop._tag_shift
        loop_tag_mask = loop._tag_mask
        loop_tag = loop.tag
        past_counts = loop.past_count
        current_counts = loop.current_count
        confidences = loop.confidence
        ages = loop.age
        directions = loop.direction
        max_confidence = loop.MAX_CONFIDENCE
        max_count = loop._max_count

        predictions = []
        record = predictions.append
        for pc, taken, train in zip(pcs, takens, trains):
            if train:
                bimodal_index = pc & bimodal_mask
                bimodal_ctr = bimodal_table[bimodal_index]
                bimodal_pred = bimodal_ctr >= bimodal_init
                gshare_index = (pc ^ history) & gshare_mask
                gshare_ctr = gshare_table[gshare_index]
                global_pred = gshare_ctr >= 2

                # Prediction: a confident loop entry overrides the chooser.
                entry = pc & loop_mask
                entry_tag = (pc >> loop_shift) & loop_tag_mask
                if (
                    loop_tag[entry] == entry_tag
                    and confidences[entry] >= max_confidence
                    and past_counts[entry] > 0
                ):
                    if current_counts[entry] >= past_counts[entry]:
                        record(not directions[entry])
                    else:
                        record(directions[entry])
                elif chooser[pc & chooser_mask] >= 2:
                    record(global_pred)
                else:
                    record(bimodal_pred)

                # Chooser: trained only when the components disagree.
                if bimodal_pred != global_pred:
                    chooser_index = pc & chooser_mask
                    counter = chooser[chooser_index]
                    if global_pred == taken:
                        if counter < 3:
                            chooser[chooser_index] = counter + 1
                    elif counter > 0:
                        chooser[chooser_index] = counter - 1

                # Bimodal and gshare counters.
                if taken:
                    if bimodal_ctr < bimodal_max:
                        bimodal_table[bimodal_index] = bimodal_ctr + 1
                    if gshare_ctr < 3:
                        gshare_table[gshare_index] = gshare_ctr + 1
                else:
                    if bimodal_ctr > 0:
                        bimodal_table[bimodal_index] = bimodal_ctr - 1
                    if gshare_ctr > 0:
                        gshare_table[gshare_index] = gshare_ctr - 1

                # Loop predictor update.
                if loop_tag[entry] != entry_tag:
                    if taken:
                        if ages[entry] > 0:
                            ages[entry] -= 1
                        else:
                            loop_tag[entry] = entry_tag
                            past_counts[entry] = 0
                            current_counts[entry] = 1
                            confidences[entry] = 0
                            ages[entry] = 3
                            directions[entry] = True
                elif taken == directions[entry]:
                    current_counts[entry] += 1
                    if current_counts[entry] > max_count:
                        loop_tag[entry] = -1
                else:
                    if past_counts[entry] == current_counts[entry]:
                        if confidences[entry] < max_confidence:
                            confidences[entry] += 1
                    else:
                        past_counts[entry] = current_counts[entry]
                        confidences[entry] = 0
                    current_counts[entry] = 0
                    ages[entry] = 3

            # Global history shift, for trained and inserted ops alike.
            history = ((history << 1) | (1 if taken else 0)) & history_mask

        self.gshare.history = history
        self._last = (bimodal_pred, global_pred)
        return predictions

    def storage_bits(self) -> int:
        return (
            self.bimodal.storage_bits()
            + self.gshare.storage_bits()
            + self.loop.storage_bits()
            + len(self.chooser) * 2
        )

    def reset(self) -> None:
        self.bimodal.reset()
        self.gshare.reset()
        self.loop.reset()
        self.chooser = [2] * len(self.chooser)
