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
them.  :func:`run_group` runs several sessions that share a committed
path as one interpretation, each getting its own ``run()`` result.
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
        ``options`` go to its constructor (the built-in tiers take
        none).  Every tier runs every session — tiers change speed,
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
    def run(self) -> RunResult:
        """Run the session once: :func:`run_group` of this session alone."""
        (result,) = run_group([self])
        return result

    def _committed_path(self) -> tuple:
        """What fixes this session's event stream and how it is
        produced; sessions that agree on it can share one run."""
        store = self._trace_store
        return (
            self._workload, self._scale, self._seed,
            self._resolved_pbs_config(),
            self._engine_name, self._engine_options,
            store.root if store is not None else None, self._trace_mode,
        )

    def _resolved_pbs_config(self) -> Optional[Dict]:
        from dataclasses import asdict

        return asdict(self._pbs_config) if self._pbs_config is not None else None

    def _package(
        self,
        wall_time: float,
        outputs: Dict,
        instructions: int,
        pbs_stats: Optional[Dict],
        consumed_values: Optional[List[float]],
    ) -> RunResult:
        """This session's result of a finished run: its cores are
        finalized, and every container in the result is its own."""
        for core in self.cores.values():
            core.finalize()
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
            pbs_stats=PBSMetrics(**pbs_stats) if pbs_stats else None,
            outputs=dict(outputs),
            instructions=instructions,
            wall_time=wall_time,
        )
        if self._record_consumed:
            result.consumed_values = list(consumed_values)
        return result


class _Classifier:
    """One harness and the cores that time its rows: each batch is
    classified once, and every core reads the mispredicted rows."""

    def __init__(self, harness):
        self.harness = harness
        self.cores: List = []

    def consume_batch(self, batch) -> None:
        mispredicted: List[int] = []
        self.harness.consume_batch(batch, mispredicted)
        for core in self.cores:
            core.consume_batch(batch, mispredicted)


def _harness_key(spec: _PredictorSpec):
    """Predictor specs with equal keys share one harness: a registered
    predictor under equal harness options classifies a stream the same
    way for every label, session and core that reads it."""
    if isinstance(spec.factory, str):
        try:
            return spec.factory, frozenset(spec.options.items())
        except TypeError:  # an unhashable option value: never shared
            pass
    return id(spec)


def _build_consumers(sessions: Sequence[Session]) -> List[Callable]:
    """Fresh consumers for one run of ``sessions``: one harness per
    distinct (predictor, harness options), each with the cores that
    time its rows, then every session's caller-owned sinks.  Each
    session's ``harnesses``/``cores`` map its own labels, in its own
    order, onto them."""
    from ..branch import PredictorHarness
    from ..pipeline import OoOCore

    classifiers: Dict[object, _Classifier] = {}
    sinks: List[Callable] = []
    for session in sessions:
        session.harnesses = {}
        session.cores = {}
        timing = session._timing_config
        for spec in session._specs:
            key = _harness_key(spec)
            classifier = classifiers.get(key)
            if classifier is None:
                classifier = classifiers[key] = _Classifier(
                    PredictorHarness(spec.make(), **spec.options)
                )
            if timing is None:
                session.harnesses[spec.label] = classifier.harness
                continue
            config = replace(timing, latencies=dict(timing.latencies))
            core = OoOCore.sharing(config, classifier.harness)
            classifier.cores.append(core)
            session.cores[spec.label] = core
        sinks.extend(session._extra_sinks)
    # A harness no core reads is fed directly.
    return [
        classifier if classifier.cores else classifier.harness
        for classifier in classifiers.values()
    ] + sinks


def run_group(sessions: Sequence[Session]) -> List[RunResult]:
    """Run ``sessions`` that follow one committed path as one run.

    The sessions must agree on workload, scale, seed, PBS config,
    engine and trace store; they may differ in predictors, harness
    options, timing, consumed-value recording and extra sinks.  The
    workload is interpreted once (or its stored trace replayed once),
    and the event stream feeds every session's consumers, with one
    harness per distinct (predictor, harness options) however many
    sessions and cores read it.  The results come back one per
    session, in order, each exactly what that session's own ``run()``
    returns.

    With a trace store attached, the run **replays** the stored trace
    when the store holds one and **interprets + captures** otherwise;
    every result's ``trace_origin`` names which.
    """
    lead = sessions[0]
    path = lead._committed_path()
    if any(session._committed_path() != path for session in sessions[1:]):
        raise ValueError(
            "run_group needs sessions with one workload, scale, seed, "
            "PBS config, engine and trace store"
        )
    store = lead._trace_store
    if store is not None and lead._trace_mode in ("auto", "replay"):
        reader = store.open(lead.trace_digest())
        if reader is not None:
            if lead._trace_mode == "replay":
                return _replay(sessions, reader)
            from ..trace import TraceFormatError

            try:
                return _replay(sessions, reader)
            except (OSError, TraceFormatError):
                # The trace vanished or broke between open() and the
                # event stream — e.g. a concurrent `trace gc
                # --max-bytes` evicted it.  auto mode falls back to a
                # fresh interpretation (and recapture) instead of
                # failing the run.
                pass
        elif lead._trace_mode == "replay":
            raise LookupError(
                f"no trace for {lead._workload} scale={lead._scale} "
                f"seed={lead._seed} in {store.root}"
            )
    return _interpret(sessions)


def _interpret(sessions: Sequence[Session]) -> List[RunResult]:
    from ..core import PBSEngine
    from ..engines import create_engine

    lead = sessions[0]
    workload = get_workload(lead._workload)
    consumers = _build_consumers(sessions)
    pbs_engine = (
        PBSEngine(lead._pbs_config) if lead._pbs_config is not None else None
    )
    for session in sessions:
        session.pbs_engine = pbs_engine
    record_consumed = any(session._record_consumed for session in sessions)
    store = lead._trace_store
    capture = None
    if store is not None:
        capture = store.writer(lead.trace_digest())
        consumers.append(capture.sink)
        # Consumed values ride along in the trace metadata so a later
        # record_consumed replay stays bit-identical; the executor's
        # semantics do not depend on the flag.
        record_consumed = True
    sink = FanOut(consumers) if consumers else None

    tier = create_engine(lead._engine_name, **lead._engine_options)

    started = time.perf_counter()
    try:
        run = workload.run(
            scale=lead._scale,
            seed=lead._seed,
            pbs=pbs_engine,
            sink=sink,
            record_consumed=record_consumed,
            engine=tier,
        )
        wall_time = time.perf_counter() - started
        pbs_stats = pbs_engine.stats.as_dict() if pbs_engine else None
        results = []
        for session in sessions:
            session.workload_run = run
            results.append(session._package(
                wall_time, run.outputs, run.instructions, pbs_stats,
                run.consumed_values,
            ))
        if capture is not None:
            capture.commit({
                "workload": lead._workload,
                "scale": lead._scale,
                "seed": lead._seed,
                "pbs_config": lead._resolved_pbs_config(),
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
    for result in results:
        if capture is not None:
            result.trace_origin = "capture"
        result.engine_used = tier.name
        result.compiled_hit = tier.last_cache_hit
    _count_batches(results, sink)
    return results


def _replay(sessions: Sequence[Session], reader) -> List[RunResult]:
    """Rebuild each session's :class:`RunResult` from a stored trace,
    feeding the recorded event stream to freshly built consumers."""
    consumers = _build_consumers(sessions)
    started = time.perf_counter()
    sink = FanOut(consumers) if consumers else None
    if sink is not None:
        reader.replay(sink)
    # No consumers: everything the results need is in the metadata,
    # so the event stream is not even decompressed.
    wall_time = time.perf_counter() - started

    meta = reader.meta
    results = []
    for session in sessions:
        session.pbs_engine = None
        session.workload_run = None
        result = session._package(
            wall_time, meta.get("outputs") or {},
            int(meta.get("instructions") or 0), meta.get("pbs_stats"),
            meta.get("consumed_values") or [],
        )
        result.trace_origin = "replay"
        results.append(result)
    _count_batches(results, sink)
    return results


def _count_batches(results: List[RunResult], sink: Optional[FanOut]) -> None:
    """The group's one fan-out counts on its first result only, so a
    sum over results counts each run's batches once."""
    if sink is not None:
        results[0].sink_batches = sink.batches
