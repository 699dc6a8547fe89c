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

from typing import Dict

from ..functional.trace import ProbMode
from .base import BranchPredictor


class BranchStats:
    """Misprediction counters split by branch category."""

    __slots__ = (
        "instructions",
        "regular_branches",
        "regular_mispredicts",
        "prob_branches",
        "prob_mispredicts",
        "pbs_hits",
    )

    def __init__(self):
        self.instructions = 0
        self.regular_branches = 0
        self.regular_mispredicts = 0
        self.prob_branches = 0
        self.prob_mispredicts = 0
        self.pbs_hits = 0

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
        self.stats = BranchStats()

    def consume_batch(self, batch, mispredicted=None) -> None:
        """Classify every conditional-branch row of an :class:`EventBatch`.

        Walks the batch's parallel arrays directly with all hot lookups
        hoisted out of the loop; only conditional-branch rows are
        visited (``conds.index(True, i)`` is a C-level scan).  When
        ``mispredicted`` is a list, the row index of every mispredicted
        branch is appended to it, in order.
        """
        stats = self.stats
        conds = batch.conds
        n = len(conds)
        stats.instructions += n

        predictor = self.predictor
        perfect = predictor.perfect
        filter_prob = self.filter_probabilistic
        inserts = self.pbs_inserts_history
        oracle = self.oracle_pcs
        static_prediction = None if perfect else predictor.static_prediction
        predict = predictor.predict
        update = predictor.update
        insert_history = predictor.insert_history
        record = (mispredicted if mispredicted is not None else []).append
        pcs = batch.pcs
        takens = batch.takens
        prob_modes = batch.prob_modes
        find = conds.index
        PBS_HIT = ProbMode.PBS_HIT
        PREDICTED = ProbMode.PREDICTED

        regular_branches = 0
        regular_mispredicts = 0
        prob_branches = 0
        prob_mispredicts = 0
        pbs_hits = 0

        i = 0
        while True:
            try:
                i = find(True, i)
            except ValueError:
                break
            prob_mode = prob_modes[i]
            taken = takens[i]
            if prob_mode == PBS_HIT:
                # PBS supplies the direction at fetch: the predictor is
                # neither probed nor updated, and no misprediction is
                # possible.
                pbs_hits += 1
                if inserts:
                    insert_history(pcs[i], taken)
            elif oracle and pcs[i] in oracle:
                # CFD branch-on-queue: the predicate is waiting at fetch.
                regular_branches += 1
            elif prob_mode == PREDICTED and filter_prob:
                # Figure 9 experiment: keep probabilistic branches out of
                # the predictor; charge them a static not-taken prediction.
                prob_branches += 1
                if taken:
                    prob_mispredicts += 1
                    record(i)
            elif perfect:
                if prob_mode == PREDICTED:
                    prob_branches += 1
                else:
                    regular_branches += 1
            else:
                if static_prediction is None:
                    prediction = predict(pcs[i])
                    update(pcs[i], taken)
                else:
                    # Vectorized-update kernel: the predictor declared a
                    # constant prediction and a no-op update, so the
                    # table calls fold away entirely.
                    prediction = static_prediction
                if prob_mode == PREDICTED:
                    prob_branches += 1
                    if prediction != taken:
                        prob_mispredicts += 1
                        record(i)
                else:
                    regular_branches += 1
                    if prediction != taken:
                        regular_mispredicts += 1
                        record(i)
            i += 1

        stats.regular_branches += regular_branches
        stats.regular_mispredicts += regular_mispredicts
        stats.prob_branches += prob_branches
        stats.prob_mispredicts += prob_mispredicts
        stats.pbs_hits += pbs_hits
