"""The analysis-pass contract and registry.

An :class:`AnalysisPass` is a plain trace sink — exactly the protocol
predictor harnesses and timing cores already speak: its
``consume_batch`` receives the committed path as
:class:`~repro.functional.trace.EventBatch` columns and, when the stream
ends, :meth:`result` returns a JSON-serializable payload
following the same structured-results conventions as
:class:`~repro.sim.results.RunResult` (plain dicts of primitives, stable
key order, derived quantities computed from the counters they summarize).

Passes register under a kebab-case name with :func:`register_analysis`,
mirroring ``@register_workload`` / ``@register_predictor``::

    from repro.analysis import AnalysisPass, register_analysis

    @register_analysis("my-study")
    class MyStudy(AnalysisPass):
        def consume_batch(self, batch): ...
        def result(self): return {...}

``pbs-experiments analyze`` and
:func:`~repro.analysis.run.resolve_passes` resolve names through this
registry; each resolved pass joins a live run as a ``Session.sink``
consumer, so one run feeds every requested pass.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..sim.registry import Registry, validate_options


class AnalysisPass:
    """One streaming trace consumer: feed batches, then read the result.

    Subclasses implement ``consume_batch(batch)`` and :meth:`result`;
    ``consume_batch`` is the one sink protocol, so a run refuses a pass
    without it.  A pass instance is single use: it accumulates state
    across the whole stream and is rebuilt for every analyzed run.
    """

    #: Registry name (set by :func:`register_analysis`).
    name: str = "?"

    def result(self) -> Dict:
        """The pass's JSON-serializable findings for the consumed stream."""
        raise NotImplementedError


#: name -> AnalysisPass subclass (see :func:`register_analysis`).
ANALYSES = Registry("analysis", catalog="registered passes")


def register_analysis(name: str, *, replace: bool = False):
    """Class decorator registering an :class:`AnalysisPass` under ``name``.

    Duplicate names raise ``ValueError``; pass ``replace=True`` to
    deliberately override a built-in pass.
    """

    def decorator(cls: Type[AnalysisPass]) -> Type[AnalysisPass]:
        cls.name = name
        ANALYSES.register(name, cls, replace=replace)
        return cls

    return decorator


def analysis_names() -> List[str]:
    """Registered pass names, in registration order."""
    return list(ANALYSES)


def create_analysis(name: str, **options) -> AnalysisPass:
    """Instantiate the registered pass ``name`` with ``options``.

    Options the pass constructor does not accept raise ``TypeError``
    naming the valid ones.
    """
    cls = ANALYSES.get(name)
    validate_options("analysis", name, cls, options)
    return cls(**options)
