"""The :class:`Sweep` driver: parameter grids over :class:`Session` runs.

A sweep expands ``{workload} x {scale} x {seed} x {mode}`` into
picklable :class:`RunSpec` descriptions; :func:`run_specs` executes
those (or any other spec list, such as a paper artefact's) through a
pluggable :class:`~repro.sim.executors.Executor` backend — serial,
a local process pool, or a ``repro-coordinator`` — and memoizes
completed runs in an on-disk sharded
:class:`~repro.sim.cache.ResultCache`.  Specs that share a committed
path run as one trace group: one engine run feeding all of their
consumers.  Every run carries its own seed
in its spec, so results are bit-identical regardless of backend, worker
count or execution order::

    from repro.sim import Sweep

    grid = Sweep(workloads=["pi", "dop"], seeds=range(4), cache_dir=".pbs-cache")
    results = grid.run(processes=4)
    print(results.get(workload="pi", seed=0, mode="pbs").predictor("tournament").mpki)
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .cache import ResultCache, spec_digest
from .executors import Executor, create_executor
from .registry import baseline_predictors, workload_names
from .results import RunResult
from .session import DEFAULT_SCALE, DEFAULT_SEED, Session

MODES = ("base", "pbs")


def _core_config_to_dict(config) -> Dict:
    """Canonical JSON form of a CoreConfig (enum latency keys by name)."""
    data = asdict(config)
    data["latencies"] = {
        op.name: latency for op, latency in config.latencies.items()
    }
    return data


def _core_config_from_dict(data: Dict):
    from ..isa.opcodes import OpClass
    from ..pipeline import CoreConfig

    data = dict(data)
    data["latencies"] = {
        OpClass[name]: latency for name, latency in data["latencies"].items()
    }
    return CoreConfig(**data)


@dataclass
class RunSpec:
    """A picklable, cache-keyable description of one Session run.

    ``trace_store``/``trace_mode`` point the run at a local
    :class:`~repro.trace.TraceStore` directory (replay the committed
    path when the trace exists, interpret + capture otherwise).  They
    describe *where* the run executes, not *what* it computes, so they
    are excluded from :meth:`cache_key` — results stay bit-identical
    and cache digests stay stable with or without a trace store.

    ``engine``/``engine_options`` select the execution tier
    (:mod:`repro.engines`) the same way: tiers may change speed, never
    results, so they ride the wire to workers but stay out of the cache
    key.
    """

    workload: str
    scale: float = DEFAULT_SCALE
    seed: int = DEFAULT_SEED
    mode: str = "base"
    predictors: Tuple[str, ...] = ()
    harness_options: Dict = field(default_factory=dict)
    pbs_config: Optional[Dict] = None
    timing: Optional[Dict] = None
    record_consumed: bool = False
    trace_store: Optional[str] = None
    trace_mode: str = "auto"
    engine: Optional[str] = None
    engine_options: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def to_dict(self) -> Dict:
        """JSON-serializable form (the remote wire encoding)."""
        data = asdict(self)
        data["predictors"] = list(self.predictors)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (e.g. a decoded
        wire frame).  Unknown keys are rejected, so a worker running a
        newer schema fails loudly instead of silently dropping fields."""
        data = dict(data)
        data["predictors"] = tuple(data.get("predictors") or ())
        return cls(**data)

    def cache_key(self) -> Dict:
        return {
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
            "mode": self.mode,
            "predictors": list(self.predictors),
            "harness_options": dict(sorted(self.harness_options.items())),
            "pbs_config": self.pbs_config,
            "timing": self.timing,
            "record_consumed": self.record_consumed,
        }

    def digest(self) -> str:
        return spec_digest(self.cache_key())

    def _resolved_pbs_config(self) -> Optional[Dict]:
        """The PBS config the run uses, spelled out (``None`` when off).
        Expanding through ``PBSConfig`` makes a partial dict, the
        spelled-out default and ``None`` in PBS mode land on one trace
        digest and one trace group, as they do on one Session."""
        if self.mode != "pbs":
            return None
        from ..core import PBSConfig

        return asdict(PBSConfig(**(self.pbs_config or {})))

    def trace_digest(self) -> str:
        """Digest of the committed-path trace this spec would consume —
        shared by every spec that differs only in predictors, harness
        options, timing configuration or consumed-value recording."""
        from ..trace import trace_digest

        return trace_digest(
            self.workload, self.scale, self.seed, self._resolved_pbs_config()
        )

    def group_key(self) -> str:
        """Specs with equal keys form one **trace group**: they share a
        committed path (one :meth:`trace_digest`), an engine directive
        and a trace store, so one engine run can serve them all
        (:func:`run_specs`)."""
        return json.dumps([
            self.workload, self.scale, self.seed,
            self._resolved_pbs_config(), self.engine, self.engine_options,
            self.trace_store, self.trace_mode,
        ], sort_keys=True)

    def session(self) -> Session:
        from ..core import PBSConfig

        session = Session(self.workload, scale=self.scale, seed=self.seed)
        session.predictors(*self.predictors, **self.harness_options)
        if self.mode == "pbs":
            config = (
                PBSConfig(**self.pbs_config) if self.pbs_config else PBSConfig()
            )
            session.pbs(config)
        if self.timing is not None:
            session.timing(_core_config_from_dict(self.timing))
        if self.record_consumed:
            session.record_consumed()
        if self.trace_store is not None:
            session.trace(self.trace_store, self.trace_mode)
        if self.engine is not None:
            session.engine(self.engine, **self.engine_options)
        return session


class SweepResult:
    """Ordered run results with grid-coordinate lookup."""

    def __init__(self, results: List[RunResult], cache_hits: int = 0,
                 simulated: int = 0, wall_time: float = 0.0,
                 executor: Optional[str] = None,
                 trace_captures: int = 0, trace_hits: int = 0,
                 workers: Optional[Dict] = None,
                 engine_used: Optional[Dict[str, int]] = None,
                 compiled_hits: int = 0, sink_batches: int = 0):
        self.results = results
        self.cache_hits = cache_hits
        self.simulated = simulated
        self.wall_time = wall_time
        self.executor = executor
        self.trace_captures = trace_captures
        self.trace_hits = trace_hits
        self.workers = workers
        self.engine_used = engine_used
        self.compiled_hits = compiled_hits
        self.sink_batches = sink_batches

    def to_stats(self) -> Dict:
        """Machine-readable run summary (the ``--stats-json`` contract —
        every key is documented in ``docs/api.md``).

        ``executor`` names the backend that ran the pending specs, or
        is ``None`` when everything came from the cache.
        ``trace_captures``/``trace_hits`` count, among the simulated
        specs, those whose run interpreted and recorded a trace versus
        those whose run replayed a stored committed path (both zero
        without a store; every spec of a trace group counts its
        group's one run).
        ``workers`` carries per-worker telemetry summed across the
        sweep's executor batches (``None`` for local backends).
        ``engine_used`` maps execution-tier names to how many simulated
        results each produced (``None`` when no run executed a tier:
        every result came from the cache or a trace replay);
        ``compiled_hits`` counts runs served from already-generated
        code.
        ``sink_batches`` totals the EventBatches delivered to the
        simulated runs' sink fan-outs.
        """
        return {
            "specs": len(self.results),
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "wall_time": self.wall_time,
            "executor": self.executor,
            "trace_captures": self.trace_captures,
            "trace_hits": self.trace_hits,
            "workers": self.workers,
            "engine_used": self.engine_used,
            "compiled_hits": self.compiled_hits,
            "sink_batches": self.sink_batches,
        }

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def select(self, **filters) -> List[RunResult]:
        """All results whose attributes match ``filters``
        (e.g. ``workload="pi"``, ``mode="pbs"``, ``seed=3``,
        ``engine="compiled"``)."""
        mode = filters.pop("mode", None)
        engine = filters.pop("engine", None)
        matches = []
        for result in self.results:
            if mode is not None and result.pbs != (mode == "pbs"):
                continue
            if engine is not None and result.engine_used != engine:
                continue
            if all(getattr(result, key) == value
                   for key, value in filters.items()):
                matches.append(result)
        return matches

    def get(self, **filters) -> RunResult:
        """The unique result matching ``filters`` (raises otherwise)."""
        matches = self.select(**filters)
        if len(matches) != 1:
            raise LookupError(
                f"{len(matches)} results match {filters!r}; expected exactly 1"
            )
        return matches[0]


class Sweep:
    """Expand a parameter grid and execute it with caching + parallelism."""

    def __init__(
        self,
        workloads: Optional[Iterable[str]] = None,
        scales: Sequence[float] = (DEFAULT_SCALE,),
        seeds: Sequence[int] = (DEFAULT_SEED,),
        modes: Sequence[str] = MODES,
        predictors: Optional[Sequence[str]] = None,
        harness_options: Optional[Dict] = None,
        pbs_config=None,
        timing=None,
        record_consumed: bool = False,
        cache_dir: Optional[str] = None,
        trace_dir: Optional[str] = None,
        split_predictors: bool = False,
        engine: Optional[str] = None,
        engine_options: Optional[Dict] = None,
    ):
        self.workloads = list(workloads) if workloads is not None else None
        self.scales = tuple(scales)
        self.seeds = tuple(seeds)
        self.modes = tuple(modes)
        self.predictors = tuple(predictors) if predictors is not None else None
        self.harness_options = dict(harness_options or {})
        if pbs_config is not None and not isinstance(pbs_config, dict):
            pbs_config = asdict(pbs_config)
        self.pbs_config = pbs_config
        if timing is not None:
            if callable(timing):
                timing = timing()
            if not isinstance(timing, dict):
                timing = _core_config_to_dict(timing)
        self.timing = timing
        self.record_consumed = record_consumed
        self.cache_dir = cache_dir
        self.trace_dir = str(trace_dir) if trace_dir else None
        self.split_predictors = split_predictors
        if engine is not None:
            from ..engines import get_engine

            get_engine(engine)  # fail fast on unknown names
        self.engine = engine
        self.engine_options = dict(engine_options or {})

    def specs(self) -> List[RunSpec]:
        """The grid, expanded in deterministic order.

        With ``split_predictors`` each predictor becomes its own grid
        axis (one spec per predictor instead of one spec fanning out to
        all of them) — finer cache granularity at no extra engine runs:
        all points of one ``(workload, scale, seed, mode)`` group still
        share a single interpretation (:func:`run_specs`).
        """
        workloads = (
            self.workloads if self.workloads is not None else workload_names()
        )
        predictors = (
            self.predictors if self.predictors is not None
            else baseline_predictors()
        )
        predictor_sets = (
            [(predictor,) for predictor in predictors]
            if self.split_predictors else [tuple(predictors)]
        )
        return [
            RunSpec(
                workload=workload,
                scale=scale,
                seed=seed,
                mode=mode,
                predictors=predictor_set,
                harness_options=dict(self.harness_options),
                pbs_config=self.pbs_config if mode == "pbs" else None,
                timing=self.timing,
                record_consumed=self.record_consumed,
                engine=self.engine,
                engine_options=dict(self.engine_options),
            )
            for workload in workloads
            for scale in self.scales
            for seed in self.seeds
            for mode in self.modes
            for predictor_set in predictor_sets
        ]

    def run(
        self,
        processes: int = 1,
        executor: Union[str, Executor, None] = None,
        on_result: Optional[Callable[[RunSpec, RunResult], None]] = None,
    ) -> SweepResult:
        """Execute the grid through :func:`run_specs`, with this sweep's
        cache and trace directories."""
        return run_specs(
            self.specs(), processes=processes, executor=executor,
            on_result=on_result, cache_dir=self.cache_dir,
            trace_dir=self.trace_dir,
        )


def run_specs(
    specs: Sequence[RunSpec],
    *,
    processes: int = 1,
    executor: Union[str, Executor, None] = None,
    on_result: Optional[Callable[[RunSpec, RunResult], None]] = None,
    cache_dir: Optional[str] = None,
    trace_dir: Optional[str] = None,
) -> SweepResult:
    """Execute ``specs``, loading memoized points from the cache.

    The unit of work is the **trace group**: the pending specs with one
    :meth:`RunSpec.group_key` — the same committed path and engine
    directive — run as one engine run in one process, whose event
    stream feeds one harness per distinct (predictor, harness options),
    every core that reads one of those harnesses, and the group's
    consumed-value recording.  Each spec still gets exactly the result
    its own ``spec.session().run()`` returns, so results and cache
    digests do not depend on grouping.  Specs served by the cache drop
    out of their group first.

    ``executor`` selects the execution backend: a registry name
    (``"serial"``, ``"pool"``, ``"http"`` — the latter reading the
    coordinator address from ``$REPRO_COORDINATOR``), an
    :class:`Executor` instance (kept open for reuse — e.g. one
    :class:`~repro.sim.executors.WorkerPoolExecutor` across many
    sweeps), or ``None`` for the default: a ``pool`` of ``processes``
    workers (serial when ``processes <= 1``), closed when the run ends.
    ``serial`` and ``pool`` run each trace group as one job; ``http``
    sends every spec as its own frame (see its docs).
    ``cache_dir`` names an on-disk :class:`ResultCache`; ``trace_dir``
    a local trace store: a group whose trace is stored replays it once
    for all of its specs, and any other group is interpreted and
    captured once.  Trace stores are local (traces never cross the
    wire), so ``http`` refuses a ``trace_dir``.  ``on_result`` fires once per spec —
    ``on_result(spec, result)`` — as each result becomes available:
    cache hits first, in spec order, then fresh results group by group
    (groups in order of their first spec on ``serial``, in completion
    order on parallel backends).  The returned results are always in
    spec order.
    """
    started = time.perf_counter()
    specs = list(specs)
    cache = ResultCache(cache_dir) if cache_dir else None
    results: List[Optional[RunResult]] = [None] * len(specs)

    pending: List[int] = []
    hits: List[int] = []
    for index, spec in enumerate(specs):
        if cache is not None:
            hit = cache.get(spec.digest())
            if hit is not None:
                results[index] = hit
                hits.append(index)
                continue
        pending.append(index)

    executor_name = None
    workers: Optional[Dict] = None

    # Cache hits notify first, in spec order, and only now — after
    # every counter above exists — so a callback that raises cannot
    # unwind a half-initialized run, and the callback sequence for
    # any given grid prefix is identical on warm and cold caches
    # (so progress observers see the same order either way).
    if on_result is not None:
        for index in hits:
            on_result(specs[index], results[index])

    if pending:
        todo = [specs[index] for index in pending]
        if trace_dir is not None:
            todo = [replace(spec, trace_store=str(trace_dir)) for spec in todo]

        def completed(position, spec, result):
            if cache is not None:
                cache.put(spec.digest(), result)
            if on_result is not None:
                on_result(spec, result)

        backend = create_executor(executor, processes)
        executor_name = backend.name
        try:
            fresh = backend.map(todo, on_result=completed)
            if len(fresh) != len(todo):
                raise RuntimeError(
                    f"executor {backend.name!r} returned {len(fresh)} "
                    f"results for {len(todo)} specs"
                )
            for index, result in zip(pending, fresh):
                results[index] = result
            telemetry = getattr(backend, "telemetry", None)
            if telemetry:
                workers = {
                    address: dict(counters)
                    for address, counters in telemetry.items()
                }
        finally:
            if not isinstance(executor, Executor):
                backend.close()  # throwaway backend owned by this call

    trace_captures = trace_hits = 0
    for index in pending:
        origin = getattr(results[index], "trace_origin", None)
        if origin == "capture":
            trace_captures += 1
        elif origin == "replay":
            trace_hits += 1
    engine_used: Dict[str, int] = {}
    compiled_hits = 0
    sink_batches = 0
    for result in results:
        tier_name = getattr(result, "engine_used", None)
        if tier_name:
            engine_used[tier_name] = engine_used.get(tier_name, 0) + 1
        if getattr(result, "compiled_hit", False):
            compiled_hits += 1
        sink_batches += getattr(result, "sink_batches", 0)

    return SweepResult(
        results, cache_hits=len(hits),
        simulated=len(pending),
        wall_time=time.perf_counter() - started,
        executor=executor_name,
        trace_captures=trace_captures, trace_hits=trace_hits,
        workers=workers,
        engine_used=engine_used or None,
        compiled_hits=compiled_hits,
        sink_batches=sink_batches,
    )
