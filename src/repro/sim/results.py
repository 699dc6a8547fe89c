"""Structured, serializable results of a simulation run.

A :class:`RunResult` is what :meth:`repro.sim.Session.run` returns: plain
dataclasses of primitives, picklable across worker processes and JSON
round-trippable for the on-disk sweep cache.  Its records are the
counters the simulation itself keeps: :class:`~repro.branch.BranchStats`
(counted by each predictor harness), :class:`~repro.pipeline.CoreStats`
(by each timing core) and :class:`~repro.core.PBSStats` (by the PBS
engine), each copied out of the run.  The derived quantities (MPKI, IPC,
hit rates) are their properties, so a result deserialized from cache
renders identically to a fresh one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from ..branch import BranchStats
    from ..core import PBSStats
    from ..pipeline import CoreStats

#: Run bookkeeping that never changes the simulated statistics, so
#: neither serialized nor read back.
_TRANSIENT_FIELDS = (
    "cached", "trace_origin", "engine_used", "compiled_hit",
    "sink_batches", "sink_fallbacks",
)


@dataclass
class RunResult:
    """Everything one :class:`~repro.sim.Session` run produced."""

    workload: str
    scale: float
    seed: int
    pbs: bool = False
    pbs_config: Optional[Dict] = None
    predictors: Dict[str, BranchStats] = field(default_factory=dict)
    cores: Dict[str, CoreStats] = field(default_factory=dict)
    pbs_stats: Optional[PBSStats] = None
    outputs: Dict[str, float] = field(default_factory=dict)
    instructions: int = 0
    wall_time: float = 0.0
    consumed_values: Optional[List[float]] = None
    #: True when this result came out of a sweep cache, not a simulation.
    cached: bool = False
    #: ``"capture"`` when the run interpreted and recorded a trace,
    #: ``"replay"`` when it was reconstructed from one, ``None`` for a
    #: plain interpretation.  Transient bookkeeping like ``cached``:
    #: survives pickling to the parent process, never serialized.
    trace_origin: Optional[str] = None
    #: Name of the execution tier that produced this result
    #: (:mod:`repro.engines`), ``None`` when no tier ran (a cache hit
    #: or a trace replay).
    #: Transient like ``cached``/``trace_origin`` — results stay
    #: byte-identical across tiers, so the tier is never serialized.
    engine_used: Optional[str] = None
    #: True when the compiled tier reused already-generated code.
    compiled_hit: bool = False
    #: EventBatches the run's sink fan-out received, on the first
    #: result of a trace group only (the others share that run and
    #: carry 0).  Transient like ``engine_used`` — batching never
    #: changes results, so it is never serialized.
    sink_batches: int = 0
    #: Always 0: a sink must declare ``consume_batch``, so no run
    #: explodes batches for a per-event consumer.  Kept only because the frozen
    #: benchmark's tracer still sums it (``sim.fallback_batches``);
    #: transient and never serialized.
    sink_fallbacks: int = 0

    # -- convenience accessors -----------------------------------------
    def predictor(self, name: str) -> BranchStats:
        return self.predictors[name]

    def core(self, name: str) -> CoreStats:
        return self.cores[name]

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict:
        data = asdict(self)
        for name in _TRANSIENT_FIELDS:
            del data[name]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        # Imported here: the counting packages import repro.sim.
        from ..branch import BranchStats
        from ..core import PBSStats
        from ..pipeline import CoreStats

        data = dict(data)
        for name in _TRANSIENT_FIELDS:
            data.pop(name, None)
        data["predictors"] = {
            name: BranchStats(**stats)
            for name, stats in (data.get("predictors") or {}).items()
        }
        cores = {}
        for name, stats in (data.get("cores") or {}).items():
            stats = dict(stats)
            stats["branches"] = BranchStats(**stats["branches"])
            cores[name] = CoreStats(**stats)
        data["cores"] = cores
        if data.get("pbs_stats") is not None:
            data["pbs_stats"] = PBSStats(**data["pbs_stats"])
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        # No key sorting: dict insertion order (e.g. predictor attachment
        # order) round-trips through the cache unchanged.
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))
