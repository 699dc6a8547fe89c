"""Structured, serializable results of a simulation run.

A :class:`RunResult` is what :meth:`repro.sim.Session.run` returns: plain
dataclasses of primitives, picklable across worker processes and JSON
round-trippable for the on-disk sweep cache.  The derived quantities
(MPKI, IPC, hit rates) are properties computed exactly the way the live
``BranchStats`` / ``CoreStats`` / ``PBSStats`` objects compute them, so a
result deserialized from cache renders identically to a fresh one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional


@dataclass
class PredictorMetrics:
    """Branch-predictor accounting for one trace consumer (mirrors
    :class:`repro.branch.BranchStats`)."""

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

    @classmethod
    def from_stats(cls, name: str, stats) -> "PredictorMetrics":
        return cls(
            name=name,
            instructions=stats.instructions,
            regular_branches=stats.regular_branches,
            regular_mispredicts=stats.regular_mispredicts,
            prob_branches=stats.prob_branches,
            prob_mispredicts=stats.prob_mispredicts,
            pbs_hits=stats.pbs_hits,
        )


@dataclass
class CoreMetrics:
    """Timing-model outcome for one core (mirrors
    :class:`repro.pipeline.CoreStats`)."""

    name: str = ""
    core: str = ""
    instructions: int = 0
    cycles: int = 0
    branch_stall_cycles: int = 0
    branches: PredictorMetrics = field(default_factory=PredictorMetrics)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.branches.mispredicts / self.instructions

    @classmethod
    def from_stats(cls, name: str, stats) -> "CoreMetrics":
        return cls(
            name=name,
            core=stats.core_name,
            instructions=stats.instructions,
            cycles=stats.cycles,
            branch_stall_cycles=stats.branch_stall_cycles,
            branches=PredictorMetrics.from_stats(name, stats.branches),
        )


@dataclass
class PBSMetrics:
    """PBS engine counters (mirrors :class:`repro.core.PBSStats`)."""

    instances: int = 0
    hits: int = 0
    bootstraps: int = 0
    fallbacks: int = 0
    const_mismatches: int = 0
    capacity_rejects: int = 0
    swap_rejects: int = 0
    value_count_rejects: int = 0
    deep_call_rejects: int = 0
    loop_flushes: int = 0
    allocations: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.instances if self.instances else 0.0

    @classmethod
    def from_stats(cls, stats) -> "PBSMetrics":
        return cls(**stats.as_dict())


@dataclass
class RunResult:
    """Everything one :class:`~repro.sim.Session` run produced."""

    workload: str
    scale: float
    seed: int
    pbs: bool = False
    pbs_config: Optional[Dict] = None
    predictors: Dict[str, PredictorMetrics] = field(default_factory=dict)
    cores: Dict[str, CoreMetrics] = field(default_factory=dict)
    pbs_stats: Optional[PBSMetrics] = None
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
    #: Always 0: events only travel as batches now, so no run explodes
    #: batches for a per-event consumer.  Kept only because the frozen
    #: benchmark's tracer still sums it (``sim.fallback_batches``);
    #: transient and never serialized.
    sink_fallbacks: int = 0

    # -- convenience accessors -----------------------------------------
    def predictor(self, name: str) -> PredictorMetrics:
        return self.predictors[name]

    def core(self, name: str) -> CoreMetrics:
        return self.cores[name]

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict:
        data = asdict(self)
        data.pop("cached")
        data.pop("trace_origin")
        data.pop("engine_used")
        data.pop("compiled_hit")
        data.pop("sink_batches")
        data.pop("sink_fallbacks")
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        data = dict(data)
        data.pop("cached", None)
        data.pop("trace_origin", None)
        data.pop("engine_used", None)
        data.pop("compiled_hit", None)
        data.pop("sink_batches", None)
        data.pop("sink_fallbacks", None)
        data["predictors"] = {
            name: PredictorMetrics(**metrics)
            for name, metrics in (data.get("predictors") or {}).items()
        }
        cores = {}
        for name, metrics in (data.get("cores") or {}).items():
            metrics = dict(metrics)
            metrics["branches"] = PredictorMetrics(**metrics["branches"])
            cores[name] = CoreMetrics(**metrics)
        data["cores"] = cores
        if data.get("pbs_stats") is not None:
            data["pbs_stats"] = PBSMetrics(**data["pbs_stats"])
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        # No key sorting: dict insertion order (e.g. predictor attachment
        # order) round-trips through the cache unchanged.
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))
