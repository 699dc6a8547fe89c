"""Resolve analysis passes by name for a live run.

Passes are plain sinks, so a run analyzes itself: attach each resolved
pass to a :class:`~repro.sim.Session` with ``Session.sink`` and read
``result()`` once ``run()`` returns::

    from repro.analysis import resolve_passes
    from repro.sim import Session

    passes = resolve_passes(["branch-entropy"])
    session = Session("pi", scale=0.05)
    for analysis in passes:
        session.sink(analysis)
    session.run()
    print(passes[0].result()["overall"])

``pbs-experiments analyze`` does exactly this for every point of a
``workloads x scales x seeds x modes`` grid.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .base import AnalysisPass, analysis_names, create_analysis


#: Passes run when the caller names none: every registered zero-config
#: pass, in registration order (``mispredicts`` included — it defaults
#: to the paper's baseline predictors).
def default_passes() -> List[str]:
    return analysis_names()


def resolve_passes(
    passes: Optional[Sequence[Union[str, AnalysisPass]]] = None,
    **options,
) -> List[AnalysisPass]:
    """Turn a mixed list of names and instances into fresh pass objects.

    ``options`` maps a pass name to its constructor kwargs, e.g.
    ``mispredicts={"predictors": ("tournament",)}``.
    """
    if passes is None:
        passes = default_passes()
    resolved: List[AnalysisPass] = []
    for item in passes:
        if isinstance(item, AnalysisPass):
            resolved.append(item)
        else:
            resolved.append(create_analysis(item, **options.get(item, {})))
    return resolved
