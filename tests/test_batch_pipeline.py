"""The columnar sink contract: how a stream is chunked never matters.

``EventBatch`` is the only way events travel, so there is no per-event
implementation to compare against.  Instead every test here pins chunk
invariance — one-event batches, the whole stream as one batch, and
arbitrary cut points give identical results:

* ``EventBatch`` explodes back to the exact ``TraceEvent`` rows it was
  packed from, and bare callables reach them through ``as_batch_sink``;
* the interpreter's and the compiled tier's ``step(1)``-driven streams
  equal a straight run;
* ``PredictorHarness``, ``OoOCore`` (whose timing state crosses batch
  boundaries), ``MispredictBreakdown`` and ``TraceWriter`` give
  identical stats or bytes under any chunking;
* the sim-layer ``FanOut`` feeds every member the same stream, and its
  ``sink_batches`` counter surfaces through sweep stats;
* the sink-attached diff mode holds interp and compiled to the same
  batch-fed tally at every barrier.

Hypothesis drives random cut points and generated programs where it is
installed; the exhaustive per-predictor sweeps run regardless.
"""

import tempfile
from pathlib import Path

import pytest

from repro.branch import PredictorHarness
from repro.functional import EventBatch, Executor, PerEventSink, as_batch_sink
from repro.functional.trace import ProbMode, TraceEvent
from repro.pipeline import OoOCore, four_wide
from repro.sim import FanOut, Session, Sweep, get_workload, predictor_names
from repro.sim.registry import create_predictor
from repro.trace import TraceWriter

# One mid-size branchy workload keeps every per-predictor case fast.
WORKLOAD = "bandit"
SCALE = 0.05
SEED = 3


class _Collector:
    """Columnar sink that copies every batch into one growing batch."""

    def __init__(self):
        self.batch = EventBatch()
        self.batches = 0

    def consume_batch(self, batch):
        self.batches += 1
        for column in EventBatch.__slots__:
            getattr(self.batch, column).extend(getattr(batch, column))


def capture(workload=WORKLOAD, scale=SCALE, seed=SEED, pbs=False):
    """The whole committed-path stream of one run, as one batch."""
    from repro.core import PBSEngine

    collector = _Collector()
    get_workload(workload).run(
        scale=scale, seed=seed, pbs=PBSEngine() if pbs else None,
        sink=collector,
    )
    return collector.batch


@pytest.fixture(scope="module")
def stream():
    return capture()


@pytest.fixture(scope="module")
def pbs_stream():
    batch = capture(pbs=True)
    assert ProbMode.PBS_HIT in batch.prob_modes
    assert ProbMode.PREDICTED in batch.prob_modes
    return batch


def chunks(batch, cuts):
    """``batch`` split at the given row indices, as fresh batches."""
    bounds = sorted({0, len(batch), *(c for c in cuts if 0 < c < len(batch))})
    pieces = []
    for start, stop in zip(bounds, bounds[1:]):
        piece = EventBatch()
        for column in EventBatch.__slots__:
            getattr(piece, column).extend(getattr(batch, column)[start:stop])
        pieces.append(piece)
    return pieces


def one_event_batches(batch):
    return chunks(batch, range(len(batch)))


def every(batch, size):
    return chunks(batch, range(size, len(batch), size))


def feed(consumer, pieces):
    for piece in pieces:
        consumer.consume_batch(piece)
    return consumer


def assert_batches_equal(a, b):
    assert len(a) == len(b)
    for column in EventBatch.__slots__:
        assert getattr(a, column) == getattr(b, column), column


# -- per-consumer results, keyed for comparison ------------------------
def harness_stats(pieces, name="tournament", **options):
    harness = PredictorHarness(create_predictor(name), **options)
    return feed(harness, pieces).stats.as_dict()


def core_stats(pieces, name="tournament", **options):
    core = feed(OoOCore(four_wide(), create_predictor(name), **options), pieces)
    stats = core.finalize()
    return stats.as_dict(), stats.branch_stall_cycles


def mispredict_report(pieces):
    from repro.analysis import create_analysis

    names = ("tournament", "tage-sc-l", "bimodal")
    breakdown = create_analysis("mispredicts", predictors=names, top=None)
    return feed(breakdown, pieces).result()


def trace_bytes(pieces, events_per_frame=500):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "t.trace"
        writer = feed(TraceWriter(path, events_per_frame=events_per_frame), pieces)
        writer.finalize({"workload": WORKLOAD})
        return path.read_bytes()


# ----------------------------------------------------------------------
# EventBatch itself and the one per-event adapter.
# ----------------------------------------------------------------------
class TestEventBatch:
    def test_round_trip_explodes_to_identical_events(self, stream):
        events = list(stream.events())
        assert all(isinstance(event, TraceEvent) for event in events)
        assert_batches_equal(EventBatch.from_events(events), stream)

    def test_clear_empties_every_column(self, stream):
        batch = chunks(stream, [10])[0]
        batch.clear()
        assert len(batch) == 0
        for column in EventBatch.__slots__:
            assert getattr(batch, column) == []

    def test_deliver_prefers_consume_batch(self):
        class Columnar:
            def __init__(self):
                self.batches = []

            def __call__(self, event):  # pragma: no cover — must not run
                raise AssertionError("batched consumer fed per-event")

            def consume_batch(self, batch):
                self.batches.append(len(batch))

        consumer = Columnar()
        assert as_batch_sink(consumer) is consumer
        assert as_batch_sink(None) is None
        get_workload("pi").run(scale=0.01, seed=1, sink=consumer)
        assert consumer.batches and sum(consumer.batches) > 0

    def test_deliver_falls_back_to_per_event(self, stream):
        events = []
        adapter = as_batch_sink(events.append)
        assert isinstance(adapter, PerEventSink)
        feed(adapter, every(stream, 1000))
        assert_batches_equal(EventBatch.from_events(events), stream)


# ----------------------------------------------------------------------
# Producers: stepping one instruction at a time changes nothing.
# ----------------------------------------------------------------------
def stepped(executor, sink):
    while executor.step(1, sink=sink):
        pass


def test_interp_batch_stream_matches_per_event(stream):
    program = get_workload(WORKLOAD).build(SCALE)
    collector = _Collector()
    stepped(Executor(program, seed=SEED), collector)
    assert collector.batches == len(stream)
    assert_batches_equal(collector.batch, stream)


def test_compiled_batch_stream_matches_per_event(stream):
    from repro.engines import create_engine

    program = get_workload(WORKLOAD).build(SCALE)
    engine = create_engine("compiled")
    straight = _Collector()
    engine.executor(program, seed=SEED).run(sink=straight)
    assert_batches_equal(straight.batch, stream)

    # The step variant, at an odd stride (a step(1) walk of the whole
    # stream would recompile-check per instruction).
    per_step = _Collector()
    executor = engine.executor(program, seed=SEED)
    while executor.step(61, sink=per_step):
        pass
    assert per_step.batches == -(-len(stream) // 61)
    assert_batches_equal(per_step.batch, stream)


def test_budget_pause_flushes_batch(stream):
    """A budget-paused run() must already have delivered every retired
    instruction — the diff steppers rely on it."""
    program = get_workload(WORKLOAD).build(SCALE)
    collector = _Collector()
    paused = Executor(program, seed=SEED)
    while not paused.halted:
        paused.run(sink=collector, budget=97)
        assert len(collector.batch) == paused.retired
    assert_batches_equal(collector.batch, stream)


@pytest.mark.parametrize("engine", ["interp", "compiled"])
def test_raising_sink_sees_each_row_once(engine, stream):
    """A bare callable that raises partway through a chunk stops the run
    at that event: the tail flush must not hand it the chunk again."""
    from repro.engines import create_engine

    stop = 1500  # inside the second 1024-row chunk
    assert len(stream) > 2 * stop
    seen = []

    def sink(event):
        seen.append(event.pc)
        if len(seen) == stop:
            raise RuntimeError("sink gave up")

    program = get_workload(WORKLOAD).build(SCALE)
    executor = create_engine(engine).executor(program, seed=SEED)
    with pytest.raises(RuntimeError, match="sink gave up"):
        executor.run(sink=sink)
    assert seen == stream.pcs[:stop]


# ----------------------------------------------------------------------
# PredictorHarness — every registered predictor.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", predictor_names())
def test_harness_batch_matches_per_event(name, stream):
    whole = harness_stats([stream], name)
    assert harness_stats(one_event_batches(stream), name) == whole
    # Uneven chunk sizes cover batch-boundary handling.
    assert harness_stats(every(stream, 777), name) == whole


@pytest.mark.parametrize("name", predictor_names())
def test_harness_batch_matches_per_event_pbs(name, pbs_stream):
    """Same contract with PBS prob modes in the stream (PBS_HIT and
    PREDICTED rows take the harness's special arms)."""
    for options in ({}, {"pbs_inserts_history": False},
                    {"filter_probabilistic": True}):
        whole = harness_stats([pbs_stream], name, **options)
        assert harness_stats(one_event_batches(pbs_stream), name, **options) == whole


def test_session_single_and_multi_predictor_results_unchanged(stream):
    """End to end: the Session reports what the same harnesses compute
    over the whole stream by hand."""
    names = ("tournament", "gshare", "tage-sc-l")
    result = Session(WORKLOAD, scale=SCALE, seed=SEED).predictors(*names).run()
    assert result.sink_batches > 0
    assert result.sink_fallbacks == 0
    for name in names:
        stats = harness_stats([stream], name)
        reported = result.predictor(name)
        assert reported.instructions == stats["instructions"]
        assert reported.mispredicts == (
            stats["regular_mispredicts"] + stats["prob_mispredicts"]
        )
        assert reported.mpki == pytest.approx(stats["mpki"])


# ----------------------------------------------------------------------
# OoOCore — timing state crosses batch boundaries.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["tournament", "tage-sc-l", "perfect"])
def test_core_batch_boundaries_change_nothing(name, pbs_stream):
    for options in ({}, {"filter_probabilistic": True}):
        whole = core_stats([pbs_stream], name, **options)
        assert core_stats(one_event_batches(pbs_stream), name, **options) == whole
        assert core_stats(every(pbs_stream, 333), name, **options) == whole


def test_core_branches_are_its_harness_stats(pbs_stream):
    core = feed(OoOCore(four_wide(), create_predictor("tournament")), [pbs_stream])
    assert core.stats.branches is core.harness.stats
    assert core.finalize().branches.as_dict() == harness_stats([pbs_stream])


# ----------------------------------------------------------------------
# MispredictBreakdown and TraceWriter.
# ----------------------------------------------------------------------
def test_mispredict_breakdown_batch_matches_per_event(stream):
    whole = mispredict_report([stream])
    assert mispredict_report(one_event_batches(stream)) == whole
    assert mispredict_report(every(stream, 513)) == whole


def test_trace_writer_bytes_ignore_batch_boundaries(stream):
    whole = trace_bytes([stream])
    assert trace_bytes(one_event_batches(stream)) == whole
    assert trace_bytes(every(stream, 777)) == whole


# ----------------------------------------------------------------------
# FanOut and the sink counters.
# ----------------------------------------------------------------------
class TestFanOut:
    def test_all_legacy_fanout_stays_per_event(self, stream):
        sinks = [[], []]
        fan = FanOut([sinks[0].append, sinks[1].append])
        feed(fan, every(stream, 1000))
        for events in sinks:
            assert_batches_equal(EventBatch.from_events(events), stream)

    def test_mixed_fanout_explodes_once_for_legacy(self, stream):
        harness = PredictorHarness(create_predictor("tournament"))
        legacy = []
        fan = FanOut([harness, legacy.append])
        fan.consume_batch(stream)
        assert fan.batches == 1
        assert len(legacy) == len(stream)
        assert harness.stats.instructions == len(stream)

    def test_sweep_stats_surface_sink_counters(self):
        stats = (
            Sweep(workloads=["pi"], scales=[0.05], seeds=[1], modes=["base"],
                  predictors=["tournament"])
            .run()
            .to_stats()
        )
        assert stats["sink_batches"] > 0
        assert "sink_fallbacks" not in stats

    def test_sweep_counts_each_group_fan_out_once(self):
        # Split predictors: each mode is one trace group of two specs
        # sharing one run, so the sweep counts each run's batches once.
        stats = (
            Sweep(workloads=["pi"], scales=(0.02,), seeds=(1,),
                  predictors=("tournament", "gshare"), split_predictors=True)
            .run(executor="serial")
            .to_stats()
        )
        assert stats["specs"] == 4
        per_run = [
            session.run().sink_batches
            for session in (
                Session("pi", scale=0.02, seed=1)
                .predictors("tournament", "gshare"),
                Session("pi", scale=0.02, seed=1)
                .predictors("tournament", "gshare").pbs(),
            )
        ]
        assert min(per_run) > 0
        assert stats["sink_batches"] == sum(per_run)

    def test_session_legacy_sink_never_falls_back(self):
        events = []
        result = (
            Session("pi", scale=0.05, seed=1)
            .predictors("tournament")
            .sink(events.append)
            .run()
        )
        assert result.sink_batches > 0
        assert result.sink_fallbacks == 0
        assert len(events) == result.instructions

    def test_timed_runs_deliver_batches(self):
        from repro.pipeline import four_wide

        result = (
            Session("pi", scale=0.05, seed=1)
            .predictors("tournament").timing(four_wide).run()
        )
        assert result.sink_batches > 0
        stats = (
            Sweep(workloads=["pi"], scales=[0.05], seeds=[1],
                  predictors=["tournament"], timing=four_wide)
            .run()
            .to_stats()
        )
        assert stats["specs"] == 2 and stats["sink_batches"] > 0


# ----------------------------------------------------------------------
# Sink-attached diff lockstep.
# ----------------------------------------------------------------------
def test_diff_sink_attached_interp_vs_compiled():
    from repro.diff import diff_tiers

    program = get_workload("pi").build(0.05)
    divergence = diff_tiers(
        program, ("interp", "compiled"), seed=1, stride=32,
        predictor="tournament",
    )
    assert divergence is None


def test_diff_sink_detects_tally_skew():
    """A sink divergence must surface as a structured delta — drive the
    harness against a deliberately skewed stepper."""
    from repro.diff.harness import diff_tiers
    from repro.diff.steppers import STEPPERS, InterpStepper

    class SkewedStepper(InterpStepper):
        name = "skewed"

        def sink_stats(self):
            stats = super().sink_stats()
            stats["instructions"] += 1
            return stats

    STEPPERS["skewed"] = SkewedStepper
    try:
        program = get_workload("pi").build(0.02)
        divergence = diff_tiers(
            program, ("interp", "skewed"), seed=1, predictor="tournament"
        )
        assert divergence is not None
        assert divergence.kind == "state"
        assert any(d["field"] == "sink" for d in divergence.deltas)
    finally:
        del STEPPERS["skewed"]


# ----------------------------------------------------------------------
# Hypothesis: random cut points, and generated programs stepped one
# instruction at a time.
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SMALL = capture(scale=0.02, pbs=True)
CUTS = st.lists(st.integers(min_value=1, max_value=len(SMALL) - 1), max_size=40)


@settings(max_examples=15, deadline=None)
@given(cuts=CUTS, predictor=st.sampled_from(["tournament", "tage-sc-l", "gshare"]))
def test_random_cuts_harness_and_core(cuts, predictor):
    pieces = chunks(SMALL, cuts)
    assert harness_stats(pieces, predictor) == harness_stats([SMALL], predictor)
    assert core_stats(pieces, predictor) == core_stats([SMALL], predictor)


@settings(max_examples=10, deadline=None)
@given(cuts=CUTS)
def test_random_cuts_mispredicts_and_trace_bytes(cuts):
    pieces = chunks(SMALL, cuts)
    assert mispredict_report(pieces) == mispredict_report([SMALL])
    assert trace_bytes(pieces, events_per_frame=1000) == trace_bytes(
        [SMALL], events_per_frame=1000
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       predictor=st.sampled_from(predictor_names()))
def test_generated_programs_batch_equivalence(seed, predictor):
    """A generated program stepped one instruction at a time emits the
    straight run's stream — and faults identically — and the harness
    tally over it is the same."""
    from repro.diff import build_program, generate

    program = build_program(generate(seed))

    def run(drive):
        collector = _Collector()
        try:
            # A small limit bounds the stepped run; both drives must
            # raise it at the same retired count if a program reaches it.
            drive(Executor(program, seed=seed, max_instructions=20_000), collector)
        except Exception as exc:  # noqa: BLE001 — must fault identically
            fault = f"{type(exc).__name__}: {exc}"
        else:
            fault = None
        return collector.batch, fault

    straight, fault = run(lambda executor, sink: executor.run(sink=sink))
    per_step, step_fault = run(stepped)
    assert step_fault == fault
    assert_batches_equal(per_step, straight)
    assert harness_stats(one_event_batches(straight), predictor) == harness_stats(
        [straight], predictor
    )
