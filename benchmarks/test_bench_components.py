"""Microbenchmarks of the simulation substrates themselves.

These measure the library's own throughput (instructions simulated per
second, branch predictions per second, PBS transactions per second) so
performance regressions in the simulator are visible.
"""

import random

from repro.branch import TageSCL, Tournament
from repro.core import PBSEngine
from repro.functional import Executor
from repro.functional.executor import ProbGroup
from repro.isa import ProgramBuilder, R
from repro.workloads import get_workload


def build_alu_loop(iterations=20_000):
    b = ProgramBuilder("alu")
    b.li(R(1), 0)
    b.label("top")
    b.add(R(2), R(1), 7)
    b.mul(R(3), R(2), 3)
    b.xor(R(4), R(3), R(2))
    b.add(R(1), R(1), 1)
    b.blt(R(1), iterations, "top")
    b.halt()
    return b.build()


class CountingSink:
    """Columnar event counter: the cheapest consumer that still takes
    the batched pipeline (the with-sink benchmarks measure transport,
    not consumer work)."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def __call__(self, event):
        self.count += 1

    def consume_batch(self, batch):
        self.count += len(batch.pcs)


# Interpreter-loop optimisation history (this machine, PYTHONHASHSEED=0):
# pre-decoding operand accessors + hoisting enum/global lookups into
# locals (PR 4) took test_bench_functional_executor from 157.9ms to
# 23.5ms mean (~0.63M -> ~4.3M instr/s, 6.7x) and
# test_bench_executor_with_sink from 126.8ms to 48.4ms (2.6x).
def test_bench_functional_executor(benchmark):
    program = build_alu_loop()

    def run():
        executor = Executor(program, seed=1)
        executor.run()
        return executor.retired

    retired = benchmark(run)
    assert retired > 100_000


# Columnar sink history (this machine, PYTHONHASHSEED=0): batching the
# event pipeline (EventBatch chunks from the interpreter, per-block
# column extends from the compiled tier, consume_batch on the sinks)
# took test_bench_executor_with_sink from 61.7ms to ~19ms mean (3.3x)
# and test_bench_compiled_executor_with_sink from 34.3ms to ~5.6ms
# (6.1x).
def test_bench_executor_with_sink(benchmark):
    program = build_alu_loop(8_000)

    def run():
        executor = Executor(program, seed=1)
        sink = CountingSink()
        executor.run(sink=sink)
        return sink.count

    assert benchmark(run) > 40_000


# Tiered engines (this machine, PYTHONHASHSEED=0): the compiled tier
# runs the same 20k-iteration alu loop in ~2.7ms vs the interpreter's
# ~27ms (10x; 8.6x over the PR 4 23.5ms baseline above), with codegen
# amortized through the in-memory memo + on-disk CodegenStore.
def test_bench_compiled_executor(benchmark):
    from repro.engines import create_engine

    program = build_alu_loop()
    engine = create_engine("compiled")
    engine.executor(program, seed=1).run()  # compile outside the loop

    def run():
        executor = engine.executor(program, seed=1)
        executor.run()
        return executor.retired

    retired = benchmark(run)
    assert retired > 100_000


def test_bench_compiled_executor_with_sink(benchmark):
    from repro.engines import create_engine

    program = build_alu_loop(8_000)
    engine = create_engine("compiled")
    engine.executor(program, seed=1).run(sink=CountingSink())  # warm codegen

    def run():
        executor = engine.executor(program, seed=1)
        sink = CountingSink()
        executor.run(sink=sink)
        return sink.count

    assert benchmark(run) > 40_000


def test_bench_compiled_executor_with_harness(benchmark):
    """The full MPKI pipeline: compiled tier feeding a real Tournament
    harness through consume_batch — what every paper table exercises."""
    from repro.branch import PredictorHarness
    from repro.engines import create_engine

    program = build_alu_loop(8_000)
    engine = create_engine("compiled")
    engine.executor(program, seed=1).run(
        sink=PredictorHarness(Tournament())
    )  # warm codegen

    def run():
        executor = engine.executor(program, seed=1)
        harness = PredictorHarness(Tournament())
        executor.run(sink=harness)
        return harness.stats.instructions

    assert benchmark(run) > 40_000


def test_bench_trace_capture(benchmark, tmp_path):
    """Interpret + record the committed path into a TraceStore."""
    from repro.sim import Session

    def run():
        store = tmp_path / "capture"
        result = (
            Session("pi", scale=0.25, seed=1)
            .predictors("tournament")
            .trace(store, mode="capture")
            .run()
        )
        return result.instructions

    assert benchmark(run) > 10_000


def test_bench_trace_replay(benchmark, tmp_path):
    """Replay a captured committed path (no interpretation)."""
    from repro.sim import Session

    store = tmp_path / "replay"
    Session("pi", scale=0.25, seed=1).trace(store).run()  # warm the store

    def run():
        result = (
            Session("pi", scale=0.25, seed=1)
            .predictors("tournament")
            .trace(store)
            .run()
        )
        assert result.trace_origin == "replay"
        return result.instructions

    assert benchmark(run) > 10_000


def test_bench_tournament_prediction(benchmark):
    rng = random.Random(3)
    stream = [(rng.randrange(64) * 2, rng.random() < 0.6) for _ in range(20_000)]

    def run():
        predictor = Tournament()
        for pc, taken in stream:
            predictor.predict(pc)
            predictor.update(pc, taken)
        return len(stream)

    benchmark(run)


def test_bench_tagescl_prediction(benchmark):
    rng = random.Random(3)
    stream = [(rng.randrange(64) * 2, rng.random() < 0.6) for _ in range(20_000)]

    def run():
        predictor = TageSCL()
        for pc, taken in stream:
            predictor.predict(pc)
            predictor.update(pc, taken)
        return len(stream)

    benchmark(run)


def test_bench_tagescl_with_harness(benchmark):
    """The same 20k-branch stream fed as 1024-row batches through a
    TAGE-SC-L harness: the batch kernel path every MPKI run takes (the
    benchmark above times the per-branch reference path)."""
    from repro.branch import PredictorHarness
    from repro.functional.trace import EventBatch, TraceEvent
    from repro.isa import Op, OpClass

    rng = random.Random(3)
    stream = [(rng.randrange(64) * 2, rng.random() < 0.6) for _ in range(20_000)]
    events = [
        TraceEvent(pc, Op.BLT, OpClass.BRANCH, -1, (1, 2), is_cond_branch=True,
                   taken=taken, target=0, next_pc=0 if taken else pc + 1)
        for pc, taken in stream
    ]
    batches = [
        EventBatch.from_events(events[start:start + 1024])
        for start in range(0, len(events), 1024)
    ]

    def run():
        harness = PredictorHarness(TageSCL())
        for batch in batches:
            harness.consume_batch(batch)
        return harness.stats.regular_branches

    assert benchmark(run) == len(stream)


def test_bench_pbs_transactions(benchmark):
    rng = random.Random(5)
    values = [rng.random() for _ in range(20_000)]

    def run():
        engine = PBSEngine()
        hits = 0
        for value in values:
            group = ProbGroup(100, "lt", value < 0.5, 0.5, [40], [value])
            if engine.transact(group).mode == "hit":
                hits += 1
        return hits

    assert benchmark(run) > 15_000


def test_bench_full_stack_pi(benchmark):
    """One complete timed PBS simulation of the PI benchmark."""
    from repro.pipeline import OoOCore, four_wide

    workload = get_workload("pi")

    def run():
        core = OoOCore(four_wide(), TageSCL())
        workload.run(scale=0.25, seed=1, pbs=PBSEngine(), sink=core)
        return core.finalize().ipc

    ipc = benchmark(run)
    assert ipc > 2.0
