"""The columnar sink contract: how a stream is chunked never matters.

``EventBatch`` is the only way events travel, so there is no per-event
implementation to compare against.  Instead every test here pins chunk
invariance — one-event batches, the whole stream as one batch, and
arbitrary cut points give identical results:

* ``consume_batch`` is the one sink protocol: a bare callable is a
  ``TypeError`` naming that method at every place a sink enters a
  producer, before any instruction retires;
* the interpreter's and the compiled tier's ``step(1)``-driven streams
  equal a straight run;
* ``PredictorHarness``, ``OoOCore`` (whose timing state crosses batch
  boundaries), ``MispredictBreakdown`` and ``TraceWriter`` give
  identical stats or bytes under any chunking;
* a timed trace group walks the memory hierarchy once per latency
  table, and every core in it equals its solo run;
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
from repro.functional import EventBatch, Executor, as_batch_sink
from repro.functional.trace import ProbMode
from repro.pipeline import OoOCore, four_wide
from repro.sim import FanOut, Session, Sweep, get_workload, predictor_names
from repro.sim.registry import create_predictor
from repro.trace import TraceReader, TraceWriter

from .events import Collector, Row, batch_of, rows_of

# One mid-size branchy workload keeps every per-predictor case fast.
WORKLOAD = "bandit"
SCALE = 0.05
SEED = 3


def capture(workload=WORKLOAD, scale=SCALE, seed=SEED, pbs=False):
    """The whole committed-path stream of one run, as one batch."""
    from repro.core import PBSEngine

    collector = Collector()
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
# EventBatch itself and the one sink protocol.
# ----------------------------------------------------------------------
class TestEventBatch:
    def test_round_trip_explodes_to_identical_events(self, stream):
        """The tests' row view reads a batch back field for field."""
        rows = rows_of(stream)
        assert len(rows) == len(stream)
        assert all(isinstance(row, Row) for row in rows)
        assert_batches_equal(batch_of(rows), stream)

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
        assert as_batch_sink(consumer) == consumer.consume_batch
        get_workload("pi").run(scale=0.01, seed=1, sink=consumer)
        assert consumer.batches and sum(consumer.batches) > 0


@pytest.mark.parametrize(
    "entry", ["interp", "compiled", "fanout", "session", "replay"]
)
def test_bare_callable_is_refused(entry, stream, tmp_path):
    """Each place a sink enters a producer refuses a sink without
    ``consume_batch`` with a ``TypeError`` naming the method, before
    any instruction retires or any row is delivered."""
    from repro.engines import create_engine

    rows = []
    executor = None
    with pytest.raises(TypeError, match="consume_batch"):
        if entry in ("interp", "compiled"):
            program = get_workload(WORKLOAD).build(SCALE)
            executor = create_engine(entry).executor(program, seed=SEED)
            executor.run(sink=rows.append)
        elif entry == "fanout":
            FanOut([PredictorHarness(create_predictor("tournament")),
                    rows.append])
        elif entry == "session":
            store = tmp_path / "store"
            (Session(WORKLOAD, scale=SCALE, seed=SEED)
             .sink(rows.append).trace(store).run())
        else:
            path = tmp_path / "t.trace"
            path.write_bytes(trace_bytes([stream]))
            TraceReader(path).replay(rows.append)
    assert rows == []
    if executor is not None:
        assert executor.retired == 0
    if entry == "session":
        # The refused run leaves no staged trace capture behind.
        assert not list((tmp_path / "store").glob("??/*"))


# ----------------------------------------------------------------------
# Producers: stepping one instruction at a time changes nothing.
# ----------------------------------------------------------------------
def stepped(executor, sink):
    while executor.step(1, sink=sink):
        pass


def test_interp_batch_stream_matches_per_event(stream):
    program = get_workload(WORKLOAD).build(SCALE)
    collector = Collector()
    stepped(Executor(program, seed=SEED), collector)
    assert collector.batches == len(stream)
    assert_batches_equal(collector.batch, stream)


def test_compiled_batch_stream_matches_per_event(stream):
    from repro.engines import create_engine

    program = get_workload(WORKLOAD).build(SCALE)
    engine = create_engine("compiled")
    straight = Collector()
    engine.executor(program, seed=SEED).run(sink=straight)
    assert_batches_equal(straight.batch, stream)

    # The step variant, at an odd stride (a step(1) walk of the whole
    # stream would recompile-check per instruction).
    per_step = Collector()
    executor = engine.executor(program, seed=SEED)
    while executor.step(61, sink=per_step):
        pass
    assert per_step.batches == -(-len(stream) // 61)
    assert_batches_equal(per_step.batch, stream)


def test_budget_pause_flushes_batch(stream):
    """A budget-paused run() must already have delivered every retired
    instruction — the diff steppers rely on it."""
    program = get_workload(WORKLOAD).build(SCALE)
    collector = Collector()
    paused = Executor(program, seed=SEED)
    while not paused.halted:
        paused.run(sink=collector, budget=97)
        assert len(collector.batch) == paused.retired
    assert_batches_equal(collector.batch, stream)


@pytest.mark.parametrize("engine", ["interp", "compiled"])
def test_raising_sink_sees_each_row_once(engine, stream):
    """A sink that raises partway through the second 1024-row batch
    stops the run there: the tail flush must not hand it any of that
    batch's rows again."""
    from repro.engines import create_engine

    stop = 1500  # inside the second 1024-row batch
    assert len(stream) > 2 * stop
    seen = []

    class GivesUp:
        def consume_batch(self, batch):
            for pc in batch.pcs:
                seen.append(pc)
                if len(seen) == stop:
                    raise RuntimeError("sink gave up")

    program = get_workload(WORKLOAD).build(SCALE)
    executor = create_engine(engine).executor(program, seed=SEED)
    with pytest.raises(RuntimeError, match="sink gave up"):
        executor.run(sink=GivesUp())
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


def test_timed_group_walks_memory_once_per_latency_table():
    # Figure 8's shape: both baselines on the 4-wide and the 8-wide
    # core, plus one core whose latency table differs.
    from dataclasses import replace

    from repro.isa.opcodes import OpClass
    from repro.pipeline import eight_wide
    from repro.sim.session import run_group

    slow_alu = replace(four_wide(), name="slow-alu")
    slow_alu.latencies[OpClass.IALU] = 2

    def sessions():
        return [
            Session(WORKLOAD, scale=SCALE, seed=SEED).pbs()
            .predictors(name).timing(config)
            for name in ("tournament", "tage-sc-l")
            for config in (four_wide, eight_wide)
        ] + [
            Session(WORKLOAD, scale=SCALE, seed=SEED).pbs()
            .predictors("tournament").timing(slow_alu)
        ]

    group = sessions()
    collector = Collector()
    group[0].sink(collector)
    results = run_group(group)
    for session, result in zip(sessions(), results):
        solo = session.run()
        assert result.cores == solo.cores
        assert result.predictors == solo.predictors
    assert (results[4].core("tournament").cycles
            > results[0].core("tournament").cycles)

    memory_rows = sum(
        op_class in (OpClass.LOAD, OpClass.STORE)
        for op_class in collector.batch.classes
    )
    assert memory_rows > 1000
    cores = [core for session in group for core in session.cores.values()]
    walks = {id(core.walk): core.walk for core in cores}
    assert len(walks) == 2
    assert cores[-1].walk is not cores[0].walk
    assert all(core.walk is cores[0].walk for core in cores[:4])
    for walk in walks.values():
        assert walk.hierarchy.l1.accesses == memory_rows
    # Each harness is shared by its predictor's two cores.
    assert cores[0].harness is cores[1].harness is cores[4].harness
    assert cores[2].harness is cores[3].harness


def test_l1_latency_prices_l1_hits_and_splits_the_walk():
    from dataclasses import replace

    from repro.sim.session import run_group

    slow_l1 = replace(four_wide(), name="slow-l1", l1_latency=8)

    def sessions():
        return [
            Session(WORKLOAD, scale=SCALE, seed=SEED)
            .predictors("tournament").timing(config)
            for config in (four_wide, slow_l1)
        ]

    group = sessions()
    results = run_group(group)
    default, slow = (result.core("tournament") for result in results)
    assert slow.cycles > default.cycles
    assert slow.instructions == default.instructions
    for session, result in zip(sessions(), results):
        assert session.run().cores == result.cores
    (fast_core,), (slow_core,) = (session.cores.values() for session in group)
    assert fast_core.walk is not slow_core.walk
    assert fast_core.walk.hierarchy.l1.latency == 4
    assert slow_core.walk.hierarchy.l1.latency == 8


def test_each_result_owns_its_records():
    """Two labels share one harness, which a timed core reads too; no
    result record is a live counter or another result's record, and a
    later run leaves them as they were."""
    from dataclasses import replace

    from repro.sim.session import run_group

    group = [
        Session(WORKLOAD, scale=SCALE, seed=SEED).pbs()
        .predictor("tournament", label="a").predictor("tournament", label="b"),
        Session(WORKLOAD, scale=SCALE, seed=SEED).pbs()
        .predictor("tournament", label="core").timing(),
    ]
    untimed, timed = run_group(group)
    core = group[1].cores["core"]
    harness = group[0].harnesses["a"]
    assert harness is group[0].harnesses["b"] is core.harness

    records = {
        "a": untimed.predictors["a"],
        "b": untimed.predictors["b"],
        "core": timed.cores["core"].branches,
    }
    assert len({id(record) for record in records.values()}) == 3
    for label, record in records.items():
        assert record is not harness.stats
        assert record == replace(harness.stats, name=label)
    assert timed.cores["core"] is not core.stats
    assert timed.cores["core"].name == "core"
    assert untimed.pbs_stats is not timed.pbs_stats
    assert untimed.pbs_stats is not group[0].pbs_engine.stats

    before = [untimed.to_dict(), timed.to_dict()]
    for session in group:
        session.run()
    assert [untimed.to_dict(), timed.to_dict()] == before


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
    def test_every_member_sees_each_batch(self, stream):
        harness = PredictorHarness(create_predictor("tournament"))
        collector = Collector()
        fan = FanOut([harness, collector])
        feed(fan, every(stream, 1000))
        assert fan.batches == collector.batches == -(-len(stream) // 1000)
        assert harness.stats.instructions == len(stream)
        assert_batches_equal(collector.batch, stream)

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

    def test_session_extra_sink_sees_every_row(self):
        collector = Collector()
        result = (
            Session("pi", scale=0.05, seed=1)
            .predictors("tournament")
            .sink(collector)
            .run()
        )
        assert result.sink_batches == collector.batches > 0
        assert result.sink_fallbacks == 0
        assert len(collector.batch) == result.instructions

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
        collector = Collector()
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
