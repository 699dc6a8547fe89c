"""Branch predictors: the paper's two baselines plus building blocks.

Every concrete predictor is registered with the :mod:`repro.sim`
plugin registry at the bottom of this module; the two the paper
evaluates (Section VI-B) are flagged ``baseline=True`` and are what
experiments run when no predictor is named explicitly.
"""

from .base import BranchPredictor, saturating_update
from .budget import KIB, BudgetReport, predictor_budget
from .corrector import StatisticalCorrector
from .folded import FoldedHistory
from .harness import BranchStats, PredictorHarness
from .loop import LoopPredictor
from .perceptron import Perceptron
from .perfect import PerfectPredictor
from .simple import AlwaysNotTaken, AlwaysTaken, Bimodal, GShare, TwoLevelLocal
from .tage import Tage
from .tagescl import TageSCL
from .tournament import Tournament

__all__ = [
    "BranchPredictor",
    "saturating_update",
    "KIB",
    "BudgetReport",
    "predictor_budget",
    "StatisticalCorrector",
    "FoldedHistory",
    "BranchStats",
    "PredictorHarness",
    "LoopPredictor",
    "Perceptron",
    "PerfectPredictor",
    "AlwaysNotTaken",
    "AlwaysTaken",
    "Bimodal",
    "GShare",
    "TwoLevelLocal",
    "Tage",
    "TageSCL",
    "Tournament",
]

# ----------------------------------------------------------------------
# Plugin registration (repro.sim registries).
# ----------------------------------------------------------------------
from ..sim.registry import register_predictor  # noqa: E402

register_predictor("tournament", baseline=True, order=0)(Tournament)
register_predictor("tage-sc-l", baseline=True, order=1)(TageSCL)
register_predictor("bimodal", order=2)(Bimodal)
register_predictor("gshare", order=3)(GShare)
register_predictor("local", order=4)(TwoLevelLocal)
register_predictor("perceptron", order=5)(Perceptron)
register_predictor("perfect", order=6)(PerfectPredictor)
