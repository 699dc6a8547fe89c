"""Integration tests: PBS engine driven by the functional executor.

These exercise the full paper mechanism on real programs: bootstrap,
steady-state replay with value swapping, loop-exit flushes, and the
statistical-correctness property that PBS only permutes (and slightly
duplicates) the consumed value stream.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PBSConfig, PBSEngine
from repro.functional import Executor, ProbMode
from repro.isa import F, Op, ProgramBuilder, R

from .events import Collector


def build_bernoulli_loop(iterations, threshold=0.5, name="bern"):
    """Counts how often rand() < threshold (Category-1)."""
    b = ProgramBuilder(name)
    b.li(R(1), 0)
    b.li(R(2), 0)
    b.label("top")
    b.rand(F(1))
    b.prob_cmp("ge", F(1), threshold)
    b.prob_jmp(None, "skip")
    b.add(R(1), R(1), 1)
    b.label("skip")
    b.add(R(2), R(2), 1)
    b.blt(R(2), iterations, "top")
    b.out(R(1))
    b.halt()
    return b.build()


def run(program, seed=0, pbs=None, record_consumed=False):
    executor = Executor(
        program, seed=seed, pbs=pbs, record_consumed=record_consumed
    )
    collector = Collector()
    state = executor.run(sink=collector)
    return executor, state, collector.rows


class TestEndToEndBootstrap:
    def test_mode_sequence(self):
        program = build_bernoulli_loop(50)
        engine = PBSEngine(PBSConfig(inflight_depth=4))
        _, _, events = run(program, seed=1, pbs=engine)
        prob_modes = [e.prob_mode for e in events if e.prob_mode != ProbMode.NOT_PROB]
        assert len(prob_modes) == 50
        # First instance runs before the loop is detected; then the loop
        # context bootstraps for inflight_depth instances; the rest hit.
        assert prob_modes.count(ProbMode.PBS_HIT) == 45
        assert prob_modes[:5] == [ProbMode.PREDICTED] * 5
        assert all(m == ProbMode.PBS_HIT for m in prob_modes[5:])

    def test_hits_eliminate_prediction(self):
        program = build_bernoulli_loop(2000)
        engine = PBSEngine()
        _, _, _ = run(program, seed=1, pbs=engine)
        assert engine.stats.hit_rate > 0.99


class TestValueStreamProperty:
    """PBS consumes the same multiset of values, modulo the bootstrap
    duplication and the tail of never-consumed values (paper §IV)."""

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_consumed_stream_is_delayed_original(self, seed):
        program = build_bernoulli_loop(300)
        depth = 4

        baseline = Executor(program, seed=seed, record_consumed=True)
        baseline.run()
        original = baseline.consumed_values

        engine = PBSEngine(PBSConfig(inflight_depth=depth))
        with_pbs = Executor(
            program, seed=seed, pbs=engine, record_consumed=True
        )
        with_pbs.run()
        shifted = with_pbs.consumed_values

        assert len(shifted) == len(original)
        # Instance 0 ran before loop detection (its own context); the loop
        # context replays with a lag of `depth`: from instance 1 + depth
        # onwards, value i equals original[i - depth].
        start = 1 + depth
        assert shifted[start:] == original[1 : len(original) - depth]

    def test_outputs_statistically_close(self):
        program = build_bernoulli_loop(5000)
        _, base_state, _ = run(program, seed=9)
        engine = PBSEngine()
        _, pbs_state, _ = run(program, seed=9, pbs=engine)
        base_count = base_state.output()[0]
        pbs_count = pbs_state.output()[0]
        assert abs(base_count - pbs_count) <= 25  # tiny bootstrap effect


class TestCategory2Swap:
    def build_sum_program(self, iterations):
        """sum of v over iterations where v >= 0.5 (v used after branch)."""
        b = ProgramBuilder("cat2sum")
        b.li(R(2), 0)
        b.fli(F(3), 0.0)
        b.label("top")
        b.rand(F(1))
        b.prob_cmp("lt", F(1), 0.5)
        b.prob_jmp(F(1), "skip")
        b.fadd(F(3), F(3), F(1))  # taken path: not skipped -> v >= 0.5
        b.label("skip")
        b.add(R(2), R(2), 1)
        b.blt(R(2), iterations, "top")
        b.out(F(3))
        b.halt()
        return b.build()

    def test_consumed_value_consistent_with_direction(self):
        """Under PBS, whenever the add path executes, the value in F(1)
        must be >= 0.5 (the swapped-in old value, not the new one)."""
        program = self.build_sum_program(400)
        engine = PBSEngine()
        executor = Executor(program, seed=3, pbs=engine)

        violations = []
        adds_on_taken_path = []

        # Sinks see events a batch at a time, so single-step to read the
        # machine state right after each instruction retires.
        collector = Collector()
        while executor.step(1, sink=collector):
            if collector.batch.ops[-1] is Op.FADD:
                value = executor.state.regs[33]  # F(1)
                adds_on_taken_path.append(value)
                if value < 0.5:
                    violations.append(value)
        assert adds_on_taken_path, "the taken path never executed"
        assert not violations

    def test_sum_statistically_preserved(self):
        program = self.build_sum_program(4000)
        base = Executor(program, seed=5)
        base_sum = base.run().output()[0]
        engine = PBSEngine()
        pbs = Executor(program, seed=5, pbs=engine)
        pbs_sum = pbs.run().output()[0]
        assert base_sum > 0
        assert abs(pbs_sum - base_sum) / base_sum < 0.02


class TestDeterministicReplay:
    """Paper §III-B: same seed => same PBS execution, bit for bit."""

    def test_identical_traces(self):
        program = build_bernoulli_loop(500)

        def run_trace():
            engine = PBSEngine()
            executor = Executor(program, seed=77, pbs=engine)
            collector = Collector()
            executor.run(sink=collector)
            batch = collector.batch
            trace = list(zip(batch.pcs, batch.takens, batch.prob_modes))
            return trace, executor.state.output()

        first_trace, first_out = run_trace()
        second_trace, second_out = run_trace()
        assert first_trace == second_trace
        assert first_out == second_out


class TestNestedLoopFlush:
    def build_nested(self, outer, inner):
        b = ProgramBuilder("nested")
        b.li(R(1), 0)   # outer i
        b.li(R(3), 0)   # taken counter
        b.label("outer")
        b.li(R(2), 0)   # inner j
        b.label("inner")
        b.rand(F(1))
        b.prob_cmp("lt", F(1), 0.5)
        b.prob_jmp(None, "skip")
        b.jmp("innext")
        b.label("skip")
        b.add(R(3), R(3), 1)
        b.label("innext")
        b.add(R(2), R(2), 1)
        b.blt(R(2), inner, "inner")
        b.add(R(1), R(1), 1)
        b.blt(R(1), outer, "outer")
        b.out(R(3))
        b.halt()
        return b.build()

    def test_rebootstrap_every_inner_execution(self):
        program = self.build_nested(outer=10, inner=30)
        engine = PBSEngine(PBSConfig(inflight_depth=4))
        run(program, seed=2, pbs=engine)
        # The inner loop terminates 10 times; each termination flushes the
        # entry and forces a fresh bootstrap on the next outer iteration.
        assert engine.stats.loop_flushes >= 9
        assert engine.stats.bootstraps >= 4 * 9
        # Still, the overwhelming majority of instances are hits.
        assert engine.stats.hit_rate > 0.70
