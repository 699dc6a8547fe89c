"""Branch predictor interface.

All predictors are trace-driven.  The reference contract is per branch:
:meth:`predict` followed immediately by :meth:`update` with the actual
outcome, one conditional branch at a time, in program order, with
:meth:`insert_history` for directions that only shift history.
Predictors may keep private state between the two calls (TAGE stores
the provider component, for instance).

The harness drives predictors through one batch entry point instead,
:meth:`BranchPredictor.predict_update_batch`: a batch's branch
operations in order, one call.  The default runs the reference
per-branch sequence; a predictor may override it with a fused kernel
that must give the same predictions and leave the same state.
"""

from __future__ import annotations

import abc
from typing import List, Sequence


class BranchPredictor(abc.ABC):
    """Abstract conditional-branch direction predictor."""

    #: Perfect predictors short-circuit the harness (never mispredict).
    perfect = False

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short identifier, e.g. ``'tournament-1kb'``."""

    @abc.abstractmethod
    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""

    @abc.abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train with the resolved outcome and advance history."""

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Total predictor storage in bits (for budget accounting)."""

    def insert_history(self, pc: int, taken: bool) -> None:
        """Shift a resolved direction into history registers *without*
        training any prediction tables.

        PBS knows a probabilistic branch's direction at fetch, so the
        hardware can keep the global history coherent for free even
        though the branch never consults the predictor.  Without this,
        regular branches that correlate with the probabilistic one lose
        their history signal (measured: a 4x misprediction inflation on
        bandit's argmax scan under TAGE).  Default: no history, no-op.
        """

    def predict_update_batch(
        self, pcs: Sequence[int], takens: Sequence[bool], trains: Sequence[bool]
    ) -> List[bool]:
        """Run a batch of branch operations in order; one prediction per
        training op.

        Op ``j`` is a predict-then-update of the branch at ``pcs[j]``
        with outcome ``takens[j]`` when ``trains[j]`` is true, and an
        :meth:`insert_history` of that direction otherwise.  This
        default is the reference sequence; an override must return the
        same predictions and leave the same state.
        """
        predict = self.predict
        update = self.update
        insert_history = self.insert_history
        predictions = []
        record = predictions.append
        for pc, taken, train in zip(pcs, takens, trains):
            if train:
                record(predict(pc))
                update(pc, taken)
            else:
                insert_history(pc, taken)
        return predictions

    def reset(self) -> None:
        """Forget all state (default: re-construct via __init__ args)."""
        raise NotImplementedError(f"{type(self).__name__} does not support reset")


def saturating_update(counter: int, taken: bool, max_value: int) -> int:
    """Move a saturating counter toward taken/not-taken."""
    if taken:
        return counter + 1 if counter < max_value else counter
    return counter - 1 if counter > 0 else counter
