"""The fluent :class:`Session` builder — one simulation run, one API.

A session describes a single execution of a benchmark: which workload, at
what scale and seed, which branch predictors observe the trace, whether
the PBS engine is attached, and whether the run is timed on an
out-of-order core.  The benchmark is interpreted **once** and the trace
fans out to every attached consumer::

    from repro.sim import Session

    result = (
        Session("pi")
        .scale(0.5)
        .seed(1)
        .predictors("tournament", "tage-sc-l")
        .pbs()
        .run()
    )
    print(result.predictor("tournament").mpki)

``run()`` returns a structured, JSON-serializable :class:`RunResult`; the
live simulation objects (harnesses, cores, the PBS engine, the raw
``WorkloadRun``) stay reachable on the session for callers that need
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..functional import as_batch_sink
from .registry import create_predictor, get_workload
from .results import CoreMetrics, PBSMetrics, PredictorMetrics, RunResult

#: Default evaluation scale: large enough for stable branch-predictor
#: steady state, small enough for pure-Python simulation.
DEFAULT_SCALE = 0.5
DEFAULT_SEED = 1


class FanOut:
    """Fans one columnar event stream out to several consumers.

    Every member receives each :class:`~repro.functional.EventBatch` in
    attachment order; a bare per-event callable is wrapped in
    :class:`~repro.functional.PerEventSink` on the way in.  ``batches``
    counts the batches received.
    """

    def __init__(self, sinks: Sequence[Callable]):
        self.sinks = list(sinks)
        self._consumers = [as_batch_sink(sink).consume_batch for sink in self.sinks]
        self.batches = 0

    def consume_batch(self, batch) -> None:
        self.batches += 1
        for consume in self._consumers:
            consume(batch)


@dataclass
class _PredictorSpec:
    """One attached trace consumer: a predictor plus harness options."""

    factory: Union[str, Callable[[], object]]
    label: str
    options: Dict = field(default_factory=dict)

    def make(self):
        if callable(self.factory):
            return self.factory()
        return create_predictor(self.factory)


class Session:
    """Fluent builder for one simulation run.

    Every configuration method returns ``self`` so calls chain; ``run()``
    may be called repeatedly (fresh predictors, cores and engine are
    built each time).
    """

    def __init__(
        self,
        workload: str,
        scale: float = DEFAULT_SCALE,
        seed: int = DEFAULT_SEED,
    ):
        self._workload = workload
        self._scale = scale
        self._seed = seed
        self._specs: List[_PredictorSpec] = []
        self._pbs_config = None          # PBSConfig when PBS is on
        self._timing_config = None       # CoreConfig when timing is on
        self._record_consumed = False
        self._extra_sinks: List[Callable] = []
        self._trace_store = None
        self._trace_mode = "auto"
        self._engine_name = None         # execution tier; None: the default
        self._engine_options: Dict = {}
        # Live objects from the most recent run().
        self.harnesses: Dict[str, object] = {}
        self.cores: Dict[str, object] = {}
        self.pbs_engine = None
        self.workload_run = None

    # -- builder methods -----------------------------------------------
    def scale(self, scale: float) -> "Session":
        self._scale = scale
        return self

    def seed(self, seed: int) -> "Session":
        self._seed = seed
        return self

    def engine(self, name: str, **options) -> "Session":
        """Select the execution tier (see :mod:`repro.engines`).

        ``name`` is a registered engine (``"compiled"``, the default for
        a Session that never calls this, or the reference ``"interp"``);
        ``options`` go to its constructor (e.g.
        ``cache_dir=`` for the compiled tier's persistent codegen
        cache).  Every tier runs every session — tiers change speed,
        never results.
        """
        from ..engines import get_engine

        get_engine(name)  # fail fast on unknown names
        self._engine_name = name
        self._engine_options = dict(options)
        return self

    def predictor(
        self,
        factory: Union[str, Callable[[], object]],
        label: Optional[str] = None,
        **options,
    ) -> "Session":
        """Attach one predictor; ``options`` go to its harness
        (``filter_probabilistic``, ``pbs_inserts_history``)."""
        if label is None:
            label = factory if isinstance(factory, str) else (
                getattr(factory, "__name__", repr(factory))
            )
        self._specs.append(_PredictorSpec(factory, label, dict(options)))
        return self

    def predictors(self, *factories, **options) -> "Session":
        """Attach several predictors, all with the same harness options."""
        for factory in factories:
            self.predictor(factory, **options)
        return self

    def pbs(self, config=True) -> "Session":
        """Attach the PBS engine (``True`` = the paper's default config,
        a :class:`~repro.core.PBSConfig` for custom sizing, falsy = off)."""
        from ..core import PBSConfig

        if config is True:
            self._pbs_config = PBSConfig()
        elif not config:
            self._pbs_config = None
        else:
            self._pbs_config = config
        return self

    def timing(self, config=None) -> "Session":
        """Run each attached predictor inside an out-of-order timing core
        (``config``: a :class:`~repro.pipeline.CoreConfig`, a zero-arg
        factory such as ``four_wide``, or ``None`` for the paper's 4-wide
        baseline)."""
        from ..pipeline import four_wide

        if config is None:
            config = four_wide()
        elif callable(config):
            config = config()
        self._timing_config = config
        return self

    def record_consumed(self, flag: bool = True) -> "Session":
        """Record the probabilistic values the program consumes, in
        consumption order (Table III's randomness streams)."""
        self._record_consumed = flag
        return self

    def sink(self, consumer: Callable) -> "Session":
        """Attach an arbitrary extra trace consumer.

        ``consumer`` is a columnar sink (it declares ``consume_batch``)
        or a bare per-event callable, which is fed each batch's rows in
        order once the batch is delivered.  Unlike predictors and cores,
        extra sinks are caller-owned: they are not rebuilt per run, so a
        sink fed by several ``run()`` calls accumulates state across all
        of them.
        """
        self._extra_sinks.append(consumer)
        return self

    def trace(self, store, mode: str = "auto") -> "Session":
        """Attach a :class:`~repro.trace.TraceStore` (or its directory).

        With a store attached, ``run()`` **replays** the committed-path
        event stream from disk when the store holds a trace for this
        session's ``(workload, scale, seed, PBS config)`` key, and
        **interprets + captures** otherwise — either way returning a
        :class:`RunResult` bit-identical to a plain interpretation.
        ``mode`` forces one leg: ``"capture"`` always re-interprets and
        records; ``"replay"`` raises ``LookupError`` on a missing trace.
        """
        if mode not in ("auto", "capture", "replay"):
            raise ValueError(f"trace mode must be auto/capture/replay, got {mode!r}")
        if store is None:
            self._trace_store = None
            return self
        from ..trace import TraceStore

        if not isinstance(store, TraceStore):
            store = TraceStore(store)
        self._trace_store = store
        self._trace_mode = mode
        return self

    def trace_digest(self) -> str:
        """The digest identifying this session's committed-path trace."""
        from dataclasses import asdict

        from ..trace import trace_digest

        pbs_config = (
            asdict(self._pbs_config) if self._pbs_config is not None else None
        )
        return trace_digest(self._workload, self._scale, self._seed, pbs_config)

    # -- execution -------------------------------------------------------
    def _build_consumers(self) -> List[Callable]:
        """Fresh harnesses/cores for one run, plus caller-owned sinks."""
        from ..branch import PredictorHarness
        from ..pipeline import OoOCore

        self.harnesses = {}
        self.cores = {}
        consumers: List[Callable] = []
        if self._timing_config is not None:
            for spec in self._specs:
                config = replace(
                    self._timing_config,
                    latencies=dict(self._timing_config.latencies),
                )
                core = OoOCore(config, spec.make(), **spec.options)
                self.cores[spec.label] = core
                consumers.append(core)
        else:
            for spec in self._specs:
                harness = PredictorHarness(spec.make(), **spec.options)
                self.harnesses[spec.label] = harness
                consumers.append(harness)
        consumers.extend(self._extra_sinks)
        return consumers

    def run(self) -> RunResult:
        from ..core import PBSEngine
        from ..engines import create_engine

        store = self._trace_store
        if store is not None:
            digest = self.trace_digest()
            if self._trace_mode in ("auto", "replay"):
                reader = store.open(digest)
                if reader is not None:
                    if self._trace_mode == "replay":
                        return self._replay(reader)
                    from ..trace import TraceFormatError

                    try:
                        return self._replay(reader)
                    except (OSError, TraceFormatError):
                        # The trace vanished or broke between open() and
                        # the event stream — e.g. a concurrent
                        # `trace gc --max-bytes` evicted it.  auto mode
                        # falls back to a fresh interpretation (and
                        # recapture) instead of failing the run.
                        pass
                elif self._trace_mode == "replay":
                    raise LookupError(
                        f"no trace for {self._workload} scale={self._scale} "
                        f"seed={self._seed} in {store.root}"
                    )

        workload = get_workload(self._workload)
        consumers = self._build_consumers()
        self.pbs_engine = (
            PBSEngine(self._pbs_config) if self._pbs_config is not None else None
        )
        capture = None
        record_consumed = self._record_consumed
        if store is not None:
            capture = store.writer(digest)
            consumers = consumers + [capture.sink]
            # Consumed values ride along in the trace metadata so a
            # later record_consumed replay stays bit-identical; the
            # executor's semantics do not depend on the flag.
            record_consumed = True
        sink = FanOut(consumers) if consumers else None

        tier = create_engine(self._engine_name, **self._engine_options)

        started = time.perf_counter()
        try:
            self.workload_run = workload.run(
                scale=self._scale,
                seed=self._seed,
                pbs=self.pbs_engine,
                sink=sink,
                record_consumed=record_consumed,
                engine=tier,
            )
            wall_time = time.perf_counter() - started

            for core in self.cores.values():
                core.finalize()

            run = self.workload_run
            pbs_stats = (
                self.pbs_engine.stats.as_dict() if self.pbs_engine else None
            )
            if capture is not None:
                capture.commit({
                    "workload": self._workload,
                    "scale": self._scale,
                    "seed": self._seed,
                    "pbs_config": self._resolved_pbs_config(),
                    "instructions": run.instructions,
                    "outputs": dict(run.outputs),
                    "pbs_stats": pbs_stats,
                    "consumed_values": list(run.consumed_values),
                })
        except BaseException:
            # Never leave a staged capture behind — not on interpreter
            # faults, and not on a consumer's finalize() or the commit
            # itself failing after a successful run.
            if capture is not None:
                capture.abort()
            raise
        result = self._package(
            wall_time,
            outputs=dict(run.outputs),
            instructions=run.instructions,
            pbs_metrics=(
                PBSMetrics.from_stats(self.pbs_engine.stats)
                if self.pbs_engine else None
            ),
            consumed_values=(
                list(run.consumed_values) if self._record_consumed else None
            ),
        )
        if capture is not None:
            result.trace_origin = "capture"
        result.engine_used = tier.name
        result.compiled_hit = tier.last_cache_hit
        if sink is not None:
            result.sink_batches = sink.batches
        return result

    def _replay(self, reader) -> RunResult:
        """Rebuild a :class:`RunResult` from a stored trace, feeding the
        recorded event stream to freshly built consumers."""
        consumers = self._build_consumers()
        self.pbs_engine = None
        self.workload_run = None

        started = time.perf_counter()
        sink = FanOut(consumers) if consumers else None
        if sink is not None:
            reader.replay(sink)
        # No consumers: everything the result needs is in the metadata,
        # so the event stream is not even decompressed.
        wall_time = time.perf_counter() - started

        for core in self.cores.values():
            core.finalize()

        meta = reader.meta
        pbs_stats = meta.get("pbs_stats")
        result = self._package(
            wall_time,
            outputs=dict(meta.get("outputs") or {}),
            instructions=int(meta.get("instructions") or 0),
            pbs_metrics=PBSMetrics(**pbs_stats) if pbs_stats else None,
            consumed_values=(
                list(meta.get("consumed_values") or [])
                if self._record_consumed else None
            ),
        )
        result.trace_origin = "replay"
        if sink is not None:
            result.sink_batches = sink.batches
        return result

    def _resolved_pbs_config(self) -> Optional[Dict]:
        from dataclasses import asdict

        return asdict(self._pbs_config) if self._pbs_config is not None else None

    def _package(
        self,
        wall_time: float,
        outputs: Dict,
        instructions: int,
        pbs_metrics: Optional[PBSMetrics],
        consumed_values: Optional[List[float]],
    ) -> RunResult:
        result = RunResult(
            workload=self._workload,
            scale=self._scale,
            seed=self._seed,
            pbs=self._pbs_config is not None,
            pbs_config=self._resolved_pbs_config(),
            predictors={
                label: PredictorMetrics.from_stats(label, harness.stats)
                for label, harness in self.harnesses.items()
            },
            cores={
                label: CoreMetrics.from_stats(label, core.stats)
                for label, core in self.cores.items()
            },
            pbs_stats=pbs_metrics,
            outputs=outputs,
            instructions=instructions,
            wall_time=wall_time,
        )
        if consumed_values is not None:
            result.consumed_values = consumed_values
        return result
