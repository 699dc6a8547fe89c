"""Microbenchmarks of the simulation substrates themselves.

These measure the library's own throughput (instructions simulated per
second, branch predictions per second, PBS transactions per second) so
performance regressions in the simulator are visible.
"""

import random

from repro.branch import TageSCL, Tournament
from repro.core import PBSEngine
from repro.functional import EventBatch, Executor
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
# (6.1x).  The compiled tier's later row-key logging, which cut its
# generated source to a quarter so a fresh process can afford the
# codegen, reads ~16ms there on a 2-vCPU VM where the column-extend
# code read ~10.6ms.
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
# amortized through the in-memory memo.
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


def test_bench_compiled_executor_pbs(benchmark):
    """The compiled tier with a PBS engine attached and no sink, on a
    loop-heavy workload: the generated code's PBS glue, the context
    table and ``transact``."""
    from repro.engines import create_engine

    program = get_workload("bandit").build(0.25)
    engine = create_engine("compiled")
    engine.executor(program, seed=1, pbs=PBSEngine()).run()  # warm codegen

    def run():
        executor = engine.executor(program, seed=1, pbs=PBSEngine())
        executor.run()
        return executor.pbs.stats.hits

    assert benchmark(run) > 1_500


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


def harness_batches():
    """The 20k-branch stream above as 1024-row ``EventBatch``es."""
    from repro.functional.trace import ProbMode
    from repro.isa import Op, OpClass

    rng = random.Random(3)
    stream = [(rng.randrange(64) * 2, rng.random() < 0.6) for _ in range(20_000)]
    batches = []
    for start in range(0, len(stream), 1024):
        rows = stream[start:start + 1024]
        n = len(rows)
        batch = EventBatch()
        batch.pcs = [pc for pc, _ in rows]
        batch.ops = [Op.BLT] * n
        batch.classes = [OpClass.BRANCH] * n
        batch.dests = [-1] * n
        batch.srcs = [(1, 2)] * n
        batch.conds = [True] * n
        batch.takens = [taken for _, taken in rows]
        batch.targets = [0] * n
        batch.next_pcs = [0 if taken else pc + 1 for pc, taken in rows]
        batch.addrs = [None] * n
        batch.stores = [False] * n
        batch.prob_modes = [ProbMode.NOT_PROB] * n
        batches.append(batch)
    return batches


def bench_with_harness(benchmark, factory):
    from repro.branch import PredictorHarness

    batches = harness_batches()

    def run():
        harness = PredictorHarness(factory())
        for batch in batches:
            harness.consume_batch(batch)
        return harness.stats.regular_branches

    assert benchmark(run) == 20_000


def test_bench_tournament_with_harness(benchmark):
    """The same 20k-branch stream fed as 1024-row batches through a
    Tournament harness: its batch kernel, which every MPKI run takes."""
    bench_with_harness(benchmark, Tournament)


def test_bench_tagescl_with_harness(benchmark):
    """The same 20k-branch stream fed as 1024-row batches through a
    TAGE-SC-L harness: the batch kernel path every MPKI run takes (the
    benchmark above times the per-branch reference path)."""
    bench_with_harness(benchmark, TageSCL)


class RecordingSink:
    """Keeps a copy of every ``EventBatch`` a run delivers."""

    def __init__(self):
        self.batches = []

    def consume_batch(self, batch):
        copy = EventBatch()
        for column in EventBatch.__slots__:
            setattr(copy, column, list(getattr(batch, column)))
        self.batches.append(copy)


def paper_stream_batches(scale):
    """The batches each paper workload at ``scale`` delivers to its
    sinks, without and with PBS: one batch list per (workload, mode)."""
    from repro.sim import paper_workload_names

    streams = []
    for name in paper_workload_names():
        for pbs in (False, True):
            sink = RecordingSink()
            get_workload(name).run(
                scale=scale, seed=1, pbs=PBSEngine() if pbs else None, sink=sink
            )
            streams.append(sink.batches)
    return streams


def test_bench_tagescl_with_harness_on_paper_streams(benchmark, bench_scale):
    """The batches the eight paper workloads feed a TAGE-SC-L harness,
    without and with PBS, one fresh harness per stream: the kernel under
    the provider mix and PBS history inserts of the real workloads, not
    the uniform random pcs of the benchmark above."""
    from repro.branch import PredictorHarness

    streams = paper_stream_batches(bench_scale)

    def run():
        branches = 0
        for batches in streams:
            harness = PredictorHarness(TageSCL())
            for batch in batches:
                harness.consume_batch(batch)
            branches += harness.stats.branches
        return branches

    assert benchmark(run) > 0


def memory_mix_batches():
    """20k rows as 1024-row ``EventBatch``es: the branch stream above
    every fifth row, with ALU ops, loads and stores between them (half
    of the memory rows on a few hot lines, half over 512 KiB)."""
    from repro.functional.trace import ProbMode
    from repro.isa import Op, OpClass

    rng = random.Random(4)
    kinds = (
        (Op.ADD, OpClass.IALU), (Op.MUL, OpClass.IMUL),
        (Op.LOAD, OpClass.LOAD), (Op.LOAD, OpClass.LOAD),
        (Op.STORE, OpClass.STORE),
    )
    rows = []
    for i in range(20_000):
        pc = rng.randrange(64) * 2
        if i % 5 == 4:
            taken = rng.random() < 0.6
            rows.append((pc, Op.BLT, OpClass.BRANCH, -1, (1, 2), True, taken,
                         0, 0 if taken else pc + 1, None, False))
            continue
        op, op_class = rng.choice(kinds)
        memory = op_class in (OpClass.LOAD, OpClass.STORE)
        addr = None
        if memory:
            addr = (rng.randrange(64) if rng.random() < 0.5
                    else rng.randrange(65_536))
        rows.append((pc, op, op_class,
                     -1 if op_class == OpClass.STORE else rng.randrange(32),
                     (rng.randrange(32), rng.randrange(32)), False, False,
                     None, pc + 1, addr, op_class == OpClass.STORE))
    batches = []
    for start in range(0, len(rows), 1024):
        batch = EventBatch()
        for column, values in zip(EventBatch.__slots__,
                                  zip(*rows[start:start + 1024])):
            setattr(batch, column, list(values))
        batch.prob_modes = [ProbMode.NOT_PROB] * len(batch.pcs)
        batches.append(batch)
    return batches


def test_bench_ooo_cores_sharing_a_group(benchmark):
    """A 4-wide and an 8-wide core timing one Tournament harness's rows
    in one trace group, as figure8's runs do, over 1024-row batches
    with a memory mix: the group classifies and walks the memory
    hierarchy once per batch, then times each core."""
    from repro.pipeline import eight_wide, four_wide
    from repro.sim import FanOut, Session
    from repro.sim.session import _build_consumers

    batches = memory_mix_batches()

    def run():
        sessions = [
            Session("pi").predictors("tournament").timing(config)
            for config in (four_wide, eight_wide)
        ]
        group = FanOut(_build_consumers(sessions))
        for batch in batches:
            group.consume_batch(batch)
        return [
            session.cores["tournament"].finalize().cycles
            for session in sessions
        ]

    four, eight = benchmark(run)
    assert four > eight > 20_000 / 8


def test_bench_pbs_transactions(benchmark):
    rng = random.Random(5)
    values = [rng.random() for _ in range(20_000)]

    def run():
        engine = PBSEngine()
        hits = 0
        for value in values:
            if engine.transact(100, value < 0.5, 0.5, [value]) is not None:
                hits += 1
        return hits

    assert benchmark(run) > 15_000


def test_bench_pbs_transactions_in_loop(benchmark):
    """``test_bench_pbs_transactions`` with each group in a loop body: a
    taken backward branch, which the context table tracks, precedes it."""
    rng = random.Random(5)
    values = [rng.random() for _ in range(20_000)]

    def run():
        engine = PBSEngine()
        observe = engine.observe_branch
        hits = 0
        for value in values:
            observe(120, True, 90)
            if engine.transact(100, value < 0.5, 0.5, [value]) is not None:
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
