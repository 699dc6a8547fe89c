"""Trace-driven branch predictor harness and MPKI accounting.

:class:`PredictorHarness` is a trace sink: feed it the functional
simulator's event batches and it accumulates per-category misprediction
counts.
The categories mirror the paper's Figure 1: *probabilistic* branches
(PROB_JMP instances that consult the predictor) versus *regular* branches.

Two paper-specific behaviours live here:

* **PBS bypass** — events marked :data:`ProbMode.PBS_HIT` never touch the
  predictor: no prediction, no update, no history shift, and by
  construction no misprediction (Section III-B: the direction is known at
  fetch).
* **Filtering** (Figure 9's interference experiment) — with
  ``filter_probabilistic=True``, probabilistic branches do not access or
  update the predictor even though PBS is off; their own mispredictions
  are charged statically so regular-branch interference can be isolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..functional.trace import ProbMode
from .base import BranchPredictor


@dataclass(slots=True)
class BranchStats:
    """Misprediction counters split by branch category.

    A harness counts into one named after its predictor; a
    :class:`~repro.sim.RunResult` holds a copy named after its label.
    """

    name: str = ""
    instructions: int = 0
    regular_branches: int = 0
    regular_mispredicts: int = 0
    prob_branches: int = 0
    prob_mispredicts: int = 0
    pbs_hits: int = 0

    @property
    def branches(self) -> int:
        return self.regular_branches + self.prob_branches + self.pbs_hits

    @property
    def mispredicts(self) -> int:
        return self.regular_mispredicts + self.prob_mispredicts

    @property
    def mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.mispredicts / self.instructions

    @property
    def regular_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.regular_mispredicts / self.instructions

    @property
    def prob_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.prob_mispredicts / self.instructions

    def as_dict(self) -> Dict[str, float]:
        """The counters and ``mpki``, without ``name``."""
        return {
            "instructions": self.instructions,
            "regular_branches": self.regular_branches,
            "regular_mispredicts": self.regular_mispredicts,
            "prob_branches": self.prob_branches,
            "prob_mispredicts": self.prob_mispredicts,
            "pbs_hits": self.pbs_hits,
            "mpki": self.mpki,
        }


class PredictorHarness:
    """Feeds conditional-branch rows to a predictor and keeps stats.

    :meth:`consume_batch` is the one definition of the branch taxonomy
    (PBS hit, CFD queue branch, filtered, perfect, predicted); the
    timing core classifies through its own harness instead of keeping a
    copy.
    """

    def __init__(
        self,
        predictor: BranchPredictor,
        filter_probabilistic: bool = False,
        pbs_inserts_history: bool = True,
        oracle_pcs=frozenset(),
    ):
        self.predictor = predictor
        self.filter_probabilistic = filter_probabilistic
        #: PBS knows the direction at fetch, so the hardware shifts it
        #: into the predictor's history register for free (no table
        #: access).  Keeps history-correlated regular branches accurate.
        self.pbs_inserts_history = pbs_inserts_history
        #: Branches at these PCs resolve from a decoupled predicate queue
        #: (control-flow decoupling's branch-on-queue): counted as
        #: regular, never mispredicted and invisible to the predictor.
        self.oracle_pcs = oracle_pcs
        self.stats = BranchStats(predictor.name)

    def consume_batch(self, batch, mispredicted=None) -> None:
        """Classify every conditional-branch row of an :class:`EventBatch`.

        One walk over the conditional rows (``conds.index(True, i)`` is
        a C-level scan) classifies each row and appends the predictor op
        it implies: a predict-then-update for a predicted branch, a
        history insert for a PBS hit.  One
        :meth:`~repro.branch.base.BranchPredictor.predict_update_batch`
        call then runs the ops in order, and its predictions are
        tallied.  When ``mispredicted`` is a list, the row index of
        every mispredicted branch is appended to it, in row order.
        """
        stats = self.stats
        conds = batch.conds
        stats.instructions += len(conds)

        perfect = self.predictor.perfect
        filter_prob = self.filter_probabilistic
        inserts = self.pbs_inserts_history
        oracle = self.oracle_pcs
        pcs = batch.pcs
        takens = batch.takens
        prob_modes = batch.prob_modes
        find = conds.index
        PBS_HIT = ProbMode.PBS_HIT
        PREDICTED = ProbMode.PREDICTED

        op_pcs = []
        op_takens = []
        op_trains = []
        trained_rows = []
        # Filtered probabilistic rows that miss the static prediction.
        static_misses = []

        regular_branches = 0
        prob_branches = 0
        pbs_hits = 0

        i = 0
        while True:
            try:
                i = find(True, i)
            except ValueError:
                break
            prob_mode = prob_modes[i]
            if prob_mode == PBS_HIT:
                # PBS supplies the direction at fetch: the predictor is
                # neither probed nor updated, and no misprediction is
                # possible.
                pbs_hits += 1
                if inserts:
                    op_pcs.append(pcs[i])
                    op_takens.append(takens[i])
                    op_trains.append(False)
            elif oracle and pcs[i] in oracle:
                # CFD branch-on-queue: the predicate is waiting at fetch.
                regular_branches += 1
            elif prob_mode == PREDICTED and filter_prob:
                # Figure 9 experiment: keep probabilistic branches out of
                # the predictor; charge them a static not-taken prediction.
                prob_branches += 1
                if takens[i]:
                    static_misses.append(i)
            else:
                if prob_mode == PREDICTED:
                    prob_branches += 1
                else:
                    regular_branches += 1
                if not perfect:
                    op_pcs.append(pcs[i])
                    op_takens.append(takens[i])
                    op_trains.append(True)
                    trained_rows.append(i)
            i += 1

        predictions = (
            self.predictor.predict_update_batch(op_pcs, op_takens, op_trains)
            if op_pcs else []
        )
        trained_misses = [
            row
            for row, prediction in zip(trained_rows, predictions)
            if prediction != takens[row]
        ]
        regular_mispredicts = 0
        prob_mispredicts = len(static_misses)
        for row in trained_misses:
            if prob_modes[row] == PREDICTED:
                prob_mispredicts += 1
            else:
                regular_mispredicts += 1
        if mispredicted is not None:
            mispredicted.extend(sorted(static_misses + trained_misses))

        stats.regular_branches += regular_branches
        stats.regular_mispredicts += regular_mispredicts
        stats.prob_branches += prob_branches
        stats.prob_mispredicts += prob_mispredicts
        stats.pbs_hits += pbs_hits
