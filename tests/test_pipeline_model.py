"""Tests for the out-of-order interval timing model."""

import pytest

from repro.branch import AlwaysNotTaken, AlwaysTaken, PerfectPredictor, Tournament
from repro.core import PBSEngine
from repro.functional import Executor
from repro.functional.trace import EventBatch, ProbMode, TraceEvent
from repro.isa import F, Op, OpClass, ProgramBuilder, R
from repro.pipeline import CoreConfig, OoOCore, eight_wide, four_wide


def feed_events(core, events):
    core.consume_batch(EventBatch.from_events(events))
    return core.finalize()


def alu(pc, dest=-1, srcs=()):
    return TraceEvent(pc, Op.ADD, OpClass.IALU, dest, srcs, next_pc=pc + 1)


def branch(pc, taken, prob_mode=ProbMode.NOT_PROB, srcs=()):
    return TraceEvent(
        pc, Op.BLT, OpClass.BRANCH, -1, srcs,
        is_cond_branch=True, taken=taken, target=0, next_pc=0,
        prob_mode=prob_mode,
    )


class TestConfigs:
    def test_four_wide(self):
        config = four_wide()
        assert config.width == 4 and config.rob_size == 168

    def test_eight_wide(self):
        config = eight_wide()
        assert config.width == 8 and config.rob_size == 256

    @pytest.mark.parametrize(
        "kwargs", [{"width": 0}, {"rob_size": 2}, {"mispredict_penalty": -1}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CoreConfig(**kwargs)


class TestBandwidthBound:
    def test_independent_alus_reach_width(self):
        core = OoOCore(four_wide(), PerfectPredictor())
        stats = feed_events(core, [alu(i) for i in range(4000)])
        assert stats.ipc == pytest.approx(4.0, rel=0.02)

    def test_eight_wide_doubles_throughput(self):
        events = [alu(i) for i in range(4000)]
        four = feed_events(OoOCore(four_wide(), PerfectPredictor()), list(events))
        eight = feed_events(OoOCore(eight_wide(), PerfectPredictor()), list(events))
        assert eight.ipc == pytest.approx(2 * four.ipc, rel=0.05)


class TestDataflowBound:
    def test_dependent_chain_ipc_one(self):
        # Every instruction reads the previous one's destination.
        events = [alu(i, dest=1, srcs=(1,)) for i in range(3000)]
        stats = feed_events(OoOCore(four_wide(), PerfectPredictor()), events)
        assert stats.ipc == pytest.approx(1.0, rel=0.02)

    def test_long_latency_chain(self):
        events = [
            TraceEvent(i, Op.FMUL, OpClass.FMUL, 33, (33,), next_pc=i + 1)
            for i in range(2000)
        ]
        stats = feed_events(OoOCore(four_wide(), PerfectPredictor()), events)
        # FMUL latency 5: one result every 5 cycles.
        assert stats.ipc == pytest.approx(0.2, rel=0.05)


class TestBranchPenalty:
    def test_mispredicted_branches_cost_penalty(self):
        # AlwaysNotTaken vs all-taken branches: every branch mispredicts.
        events = []
        for i in range(1000):
            events.append(branch(10, True))
            events.extend(alu(11 + j) for j in range(3))
        bad = feed_events(OoOCore(four_wide(), AlwaysNotTaken()), list(events))
        good = feed_events(OoOCore(four_wide(), AlwaysTaken()), list(events))
        assert good.ipc > 2.5 * bad.ipc
        # Each iteration: ~1 cycle of work + ~(1 resolve + 10 refill).
        assert bad.cycles == pytest.approx(1000 * 13, rel=0.1)

    def test_pbs_hits_never_penalised(self):
        events = [branch(10, True, ProbMode.PBS_HIT) for _ in range(1000)]
        stats = feed_events(OoOCore(four_wide(), AlwaysNotTaken()), events)
        assert stats.branches.pbs_hits == 1000
        assert stats.mpki == 0.0
        assert stats.ipc == pytest.approx(4.0, rel=0.05)

    def test_branch_resolution_delayed_by_dataflow(self):
        # A branch depending on a long-latency producer resolves late, so
        # its misprediction costs more.
        fast, slow = [], []
        for i in range(500):
            fast.append(alu(1, dest=5))
            fast.append(branch(10, True, srcs=(5,)))
            slow.append(
                TraceEvent(1, Op.FDIV, OpClass.FDIV, 5, (), next_pc=2)
            )
            slow.append(branch(10, True, srcs=(5,)))
        fast_stats = feed_events(OoOCore(four_wide(), AlwaysNotTaken()), fast)
        slow_stats = feed_events(OoOCore(four_wide(), AlwaysNotTaken()), slow)
        assert slow_stats.cycles > fast_stats.cycles


class TestRobWindow:
    def test_long_latency_load_blocks_window(self):
        # A miss to memory stalls dispatch once the ROB fills.
        config = CoreConfig(name="tiny", width=4, rob_size=8)
        events = []
        for i in range(200):
            events.append(
                TraceEvent(0, Op.LOAD, OpClass.LOAD, 1, (2,), addr=i * 4096)
            )
            events.extend(alu(j) for j in range(7))
        small = feed_events(OoOCore(config, PerfectPredictor()), list(events))
        big = feed_events(
            OoOCore(CoreConfig(name="big", width=4, rob_size=168),
                    PerfectPredictor()),
            list(events),
        )
        assert big.ipc > 1.5 * small.ipc


class TestFiltering:
    def test_filtered_prob_branch_statically_predicted(self):
        events = [branch(10, False, ProbMode.PREDICTED) for _ in range(100)]
        core = OoOCore(four_wide(), AlwaysTaken(), filter_probabilistic=True)
        stats = feed_events(core, events)
        # Static not-taken matches the not-taken stream: no mispredicts.
        assert stats.branches.prob_mispredicts == 0

    def test_filtered_prob_branch_does_not_train_predictor(self):
        trained = []

        class Spy(AlwaysTaken):

            def update(self, pc, taken):
                trained.append(pc)

        events = [
            branch(10, True, ProbMode.PREDICTED),
            branch(20, True),
        ]
        core = OoOCore(four_wide(), Spy(), filter_probabilistic=True)
        feed_events(core, events)
        assert trained == [20]


class TestEndToEndTiming:
    def build_prob_kernel(self, iterations):
        b = ProgramBuilder("kernel")
        b.li(R(1), 0)
        b.li(R(2), 0)
        b.label("top")
        b.rand(F(1))
        b.prob_cmp("lt", F(1), 0.5)
        b.prob_jmp(None, "skip")
        b.add(R(1), R(1), 1)
        b.label("skip")
        b.add(R(2), R(2), 1)
        b.blt(R(2), iterations, "top")
        b.out(R(1))
        b.halt()
        return b.build()

    def test_pbs_improves_ipc_and_mpki(self):
        program = self.build_prob_kernel(5000)

        base_core = OoOCore(four_wide(), Tournament())
        Executor(program, seed=4).run(sink=base_core)
        base = base_core.finalize()

        pbs_core = OoOCore(four_wide(), Tournament())
        Executor(program, seed=4, pbs=PBSEngine()).run(sink=pbs_core)
        with_pbs = pbs_core.finalize()

        assert with_pbs.mpki < 0.1 * base.mpki
        assert with_pbs.ipc > base.ipc

    def test_same_trace_same_cycles(self):
        program = self.build_prob_kernel(1000)

        def cycles():
            core = OoOCore(four_wide(), Tournament())
            Executor(program, seed=4).run(sink=core)
            return core.finalize().cycles

        assert cycles() == cycles()
