"""repro.analysis — analysis passes over the committed-path event stream.

Microarchitectural studies that ride a live run: a pass is a columnar
sink, so it attaches to a :class:`~repro.sim.Session` next to the
predictors and cores and sees the same event stream they do.  See
``docs/analysis.md``::

    from repro.analysis import create_analysis
    from repro.sim import Session

    entropy = create_analysis("branch-entropy")
    Session("pi", scale=0.05).sink(entropy).run()
    print(entropy.result()["overall"])

Five passes ship in :mod:`repro.analysis.passes` (``instruction-mix``,
``branch-entropy``, ``taken-rate``, ``mispredicts``, ``working-set``);
new studies plug in with :func:`register_analysis`.  On the command
line: ``pbs-experiments analyze``.
"""

from .base import (
    ANALYSES,
    AnalysisPass,
    analysis_names,
    create_analysis,
    register_analysis,
)
from .passes import (
    BranchEntropy,
    InstructionMix,
    MispredictBreakdown,
    TakenRateHistogram,
    WorkingSet,
    direction_entropy,
)
from .run import default_passes, resolve_passes

__all__ = [
    "ANALYSES",
    "AnalysisPass",
    "analysis_names",
    "create_analysis",
    "register_analysis",
    "BranchEntropy",
    "InstructionMix",
    "MispredictBreakdown",
    "TakenRateHistogram",
    "WorkingSet",
    "direction_entropy",
    "default_passes",
    "resolve_passes",
]
