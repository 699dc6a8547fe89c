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
