"""Tests for the predictor harness / MPKI accounting."""

from repro.branch import (
    AlwaysNotTaken,
    AlwaysTaken,
    BranchStats,
    PerfectPredictor,
    PredictorHarness,
)
from repro.functional.trace import EventBatch, ProbMode, TraceEvent
from repro.isa import Op, OpClass


def measure(events, predictor, mispredicted=None, **options):
    """Run a stored event list through a fresh harness; its stats."""
    harness = PredictorHarness(predictor, **options)
    harness.consume_batch(EventBatch.from_events(events), mispredicted)
    return harness.stats


def alu_event(pc=0):
    return TraceEvent(pc, Op.ADD, OpClass.IALU, 1, (2, 3), next_pc=pc + 1)


def branch_event(pc, taken, prob_mode=ProbMode.NOT_PROB):
    return TraceEvent(
        pc,
        Op.BLT,
        OpClass.BRANCH,
        -1,
        (1, 2),
        is_cond_branch=True,
        taken=taken,
        target=0,
        next_pc=0 if taken else pc + 1,
        prob_mode=prob_mode,
    )


class TestBranchStats:
    def test_mpki_math(self):
        stats = BranchStats()
        stats.instructions = 2000
        stats.regular_mispredicts = 3
        stats.prob_mispredicts = 1
        assert stats.mpki == 2.0
        assert stats.regular_mpki == 1.5
        assert stats.prob_mpki == 0.5

    def test_zero_instructions_no_division_error(self):
        assert BranchStats().mpki == 0.0


class TestHarnessCounting:
    def test_counts_instructions_and_branches(self):
        events = [alu_event(), branch_event(10, True), alu_event(2)]
        stats = measure(events, AlwaysTaken())
        assert stats.instructions == 3
        assert stats.regular_branches == 1
        assert stats.mispredicts == 0

    def test_counts_mispredicts(self):
        events = [branch_event(10, False)] * 5
        stats = measure(events, AlwaysTaken())
        assert stats.regular_mispredicts == 5

    def test_probabilistic_branches_counted_separately(self):
        events = [
            branch_event(10, True, ProbMode.PREDICTED),
            branch_event(20, True),
        ]
        stats = measure(events, AlwaysNotTaken())
        assert stats.prob_branches == 1
        assert stats.regular_branches == 1
        assert stats.prob_mispredicts == 1
        assert stats.regular_mispredicts == 1


class TestPbsBypass:
    def test_pbs_hits_never_touch_predictor(self):
        class Boom(AlwaysTaken):

            def predict(self, pc):
                raise AssertionError("predictor consulted for a PBS hit")

            def update(self, pc, taken):
                raise AssertionError("predictor updated for a PBS hit")

        events = [branch_event(10, True, ProbMode.PBS_HIT)] * 3
        stats = measure(events, Boom())
        assert stats.pbs_hits == 3
        assert stats.mispredicts == 0

    def test_pbs_hits_counted_in_total_branches(self):
        events = [
            branch_event(10, True, ProbMode.PBS_HIT),
            branch_event(20, True),
        ]
        stats = measure(events, AlwaysTaken())
        assert stats.branches == 2


class TestFiltering:
    """The Figure 9 interference experiment mode."""

    def test_filtered_prob_branches_do_not_update_predictor(self):
        calls = []

        class Spy(AlwaysTaken):

            def update(self, pc, taken):
                calls.append(pc)

        events = [
            branch_event(10, True, ProbMode.PREDICTED),
            branch_event(20, True),
        ]
        measure(events, Spy(), filter_probabilistic=True)
        assert calls == [20]

    def test_filtered_prob_branches_statically_predicted(self):
        events = [
            branch_event(10, True, ProbMode.PREDICTED),
            branch_event(10, False, ProbMode.PREDICTED),
        ]
        stats = measure(events, AlwaysTaken(), filter_probabilistic=True)
        # Static not-taken: the taken instance mispredicts, the other not.
        assert stats.prob_mispredicts == 1

    def test_regular_branches_unaffected_by_filtering(self):
        events = [branch_event(20, True)] * 4
        stats = measure(events, AlwaysTaken(), filter_probabilistic=True)
        assert stats.regular_mispredicts == 0
        assert stats.regular_branches == 4


class TestPerfectShortCircuit:
    def test_perfect_counts_but_never_misses(self):
        events = [branch_event(10, True), branch_event(10, False)]
        stats = measure(events, PerfectPredictor())
        assert stats.regular_branches == 2
        assert stats.mispredicts == 0


class TestMispredictedRows:
    def test_rows_name_every_mispredicted_branch_in_order(self):
        events = [
            alu_event(),
            branch_event(10, False),                    # row 1: miss
            branch_event(20, True),                     # row 2: hit
            branch_event(30, True, ProbMode.PBS_HIT),   # row 3: never
            branch_event(40, False, ProbMode.PREDICTED),  # row 4: miss
        ]
        rows = []
        stats = measure(events, AlwaysTaken(), rows)
        assert rows == [1, 4]
        assert stats.mispredicts == len(rows)

    def test_filtered_rows_follow_the_static_prediction(self):
        events = [
            branch_event(10, True, ProbMode.PREDICTED),
            branch_event(10, False, ProbMode.PREDICTED),
        ]
        rows = []
        measure(events, AlwaysTaken(), rows, filter_probabilistic=True)
        assert rows == [0]

    def test_filtered_and_predicted_rows_interleave_in_row_order(self):
        events = [
            branch_event(10, False),                     # row 0: predicted miss
            branch_event(20, True, ProbMode.PREDICTED),  # row 1: static miss
            branch_event(30, False),                     # row 2: predicted miss
            branch_event(40, True, ProbMode.PREDICTED),  # row 3: static miss
        ]
        rows = []
        stats = measure(events, AlwaysTaken(), rows, filter_probabilistic=True)
        assert rows == [0, 1, 2, 3]
        assert (stats.regular_mispredicts, stats.prob_mispredicts) == (2, 2)


class TestOraclePcs:
    """Control-flow decoupling's branch-on-queue (the CFD ablation)."""

    def test_queue_branches_count_as_regular_and_never_miss(self):
        class Boom(AlwaysTaken):

            def predict(self, pc):
                assert pc != 10, "predictor consulted for a queue branch"
                return super().predict(pc)

        events = [branch_event(10, False), branch_event(20, False)] * 3
        rows = []
        stats = measure(events, Boom(), rows, oracle_pcs=frozenset({10}))
        assert stats.regular_branches == 6
        assert stats.regular_mispredicts == 3
        assert rows == [1, 3, 5]
