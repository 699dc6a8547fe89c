"""Tests for the functional executor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functional import (
    ExecutionError,
    ExecutionLimitExceeded,
    Executor,
    ProbMode,
)
from repro.isa import F, Op, ProgramBuilder, R

from .events import Collector


def run_program(builder, seed=0, **kwargs):
    program = builder.build()
    executor = Executor(program, seed=seed, **kwargs)
    collector = Collector()
    state = executor.run(sink=collector)
    return executor, state, collector.rows


class TestArithmetic:
    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_add_sub_mul(self, a, b):
        builder = ProgramBuilder("arith")
        builder.li(R(1), a)
        builder.li(R(2), b)
        builder.add(R(3), R(1), R(2))
        builder.sub(R(4), R(1), R(2))
        builder.mul(R(5), R(1), R(2))
        builder.halt()
        _, state, _ = run_program(builder)
        assert state.regs[3] == a + b
        assert state.regs[4] == a - b
        assert state.regs[5] == a * b

    @given(
        st.integers(-1000, 1000),
        st.integers(-1000, 1000).filter(lambda x: x != 0),
    )
    @settings(max_examples=40, deadline=None)
    def test_div_mod_truncate_toward_zero(self, a, b):
        builder = ProgramBuilder("divmod")
        builder.li(R(1), a)
        builder.li(R(2), b)
        builder.div(R(3), R(1), R(2))
        builder.mod(R(4), R(1), R(2))
        builder.halt()
        _, state, _ = run_program(builder)
        # C semantics: trunc division, remainder with dividend's sign.
        expected_q = int(a / b) if b else 0
        assert state.regs[3] == expected_q
        assert state.regs[4] == a - expected_q * b

    def test_div_by_zero_raises(self):
        builder = ProgramBuilder("crash")
        builder.li(R(1), 1)
        builder.li(R(2), 0)
        builder.div(R(3), R(1), R(2))
        builder.halt()
        program = builder.build()
        with pytest.raises(ExecutionError):
            Executor(program).run()

    def test_float_ops(self):
        builder = ProgramBuilder("fp")
        builder.fli(F(1), 2.0)
        builder.fli(F(2), 0.5)
        builder.fadd(F(3), F(1), F(2))
        builder.fmul(F(4), F(1), F(2))
        builder.fdiv(F(5), F(1), F(2))
        builder.fsqrt(F(6), F(1))
        builder.fexp(F(7), 0.0)
        builder.flog(F(8), F(1))
        builder.halt()
        _, state, _ = run_program(builder)
        assert state.regs[F(3).num] == 2.5
        assert state.regs[F(4).num] == 1.0
        assert state.regs[F(5).num] == 4.0
        assert state.regs[F(6).num] == pytest.approx(2**0.5)
        assert state.regs[F(7).num] == 1.0
        assert state.regs[F(8).num] == pytest.approx(0.6931471805599453)

    def test_select(self):
        builder = ProgramBuilder("select")
        builder.li(R(1), 1)
        builder.li(R(2), 0)
        builder.select(R(3), R(1), 10, 20)
        builder.select(R(4), R(2), 10, 20)
        builder.halt()
        _, state, _ = run_program(builder)
        assert state.regs[3] == 10
        assert state.regs[4] == 20


class TestControlFlow:
    def test_loop_iterations(self):
        builder = ProgramBuilder("loop")
        builder.li(R(1), 0)
        builder.label("top")
        builder.add(R(1), R(1), 1)
        builder.blt(R(1), 10, "top")
        builder.out(R(1))
        builder.halt()
        _, state, events = run_program(builder)
        assert state.output() == [10]
        branch_events = [e for e in events if e.is_cond_branch]
        assert len(branch_events) == 10
        assert sum(e.taken for e in branch_events) == 9

    def test_cmp_jt_jf(self):
        builder = ProgramBuilder("cmpjump")
        builder.li(R(1), 5)
        builder.cmp("lt", R(1), 10)
        builder.jf("skip")
        builder.out(R(1))
        builder.label("skip")
        builder.cmp("gt", R(1), 10)
        builder.jt("skip2")
        builder.out(0)
        builder.label("skip2")
        builder.halt()
        _, state, _ = run_program(builder)
        assert state.output() == [5, 0]

    def test_call_ret(self):
        builder = ProgramBuilder("call")
        builder.li(R(1), 1)
        builder.call("fn")
        builder.out(R(1))
        builder.halt()
        builder.label("fn")
        builder.add(R(1), R(1), 41)
        builder.ret()
        _, state, _ = run_program(builder)
        assert state.output() == [42]

    def test_nested_calls(self):
        builder = ProgramBuilder("nest")
        builder.li(R(1), 0)
        builder.call("a")
        builder.out(R(1))
        builder.halt()
        builder.label("a")
        builder.add(R(1), R(1), 1)
        builder.call("b")
        builder.ret()
        builder.label("b")
        builder.add(R(1), R(1), 10)
        builder.ret()
        _, state, _ = run_program(builder)
        assert state.output() == [11]

    def test_ret_without_call_raises(self):
        builder = ProgramBuilder("badret")
        builder.ret()
        builder.halt()
        with pytest.raises(ExecutionError):
            Executor(builder.build()).run()

    def test_instruction_limit(self):
        builder = ProgramBuilder("forever")
        builder.label("spin")
        builder.jmp("spin")
        program = builder.build()
        with pytest.raises(ExecutionLimitExceeded):
            Executor(program, max_instructions=1000).run()


class TestMemory:
    def test_store_load(self):
        builder = ProgramBuilder("mem", data_size=16)
        builder.li(R(1), 4)
        builder.li(R(2), 123)
        builder.store(R(2), R(1), 2)
        builder.load(R(3), R(1), 2)
        builder.out(R(3))
        builder.halt()
        _, state, events = run_program(builder)
        assert state.output() == [123]
        mem_events = [e for e in events if e.addr is not None]
        assert [e.addr for e in mem_events] == [6, 6]
        assert mem_events[0].is_store and not mem_events[1].is_store

    def test_float_store_load(self):
        builder = ProgramBuilder("fmem", data_size=4)
        builder.li(R(1), 0)
        builder.fli(F(1), 2.5)
        builder.fstore(F(1), R(1))
        builder.fload(F(2), R(1))
        builder.out(F(2))
        builder.halt()
        _, state, _ = run_program(builder)
        assert state.output() == [2.5]

    def test_out_of_range_load_raises(self):
        builder = ProgramBuilder("oob", data_size=4)
        builder.li(R(1), 100)
        builder.load(R(2), R(1))
        builder.halt()
        with pytest.raises(ExecutionError):
            Executor(builder.build()).run()


class TestProbabilisticWithoutPbs:
    """With no PBS engine, PROB_* decays to a regular compare-and-branch."""

    def build_prob_loop(self, iterations=1000, threshold=0.3):
        builder = ProgramBuilder("prob")
        builder.li(R(1), 0)  # taken counter
        builder.li(R(2), 0)  # i
        builder.label("top")
        builder.rand(F(1))
        builder.prob_cmp("lt", F(1), threshold)
        builder.prob_jmp(None, "skip")
        builder.jmp("next")
        builder.label("skip")
        builder.add(R(1), R(1), 1)
        builder.label("next")
        builder.add(R(2), R(2), 1)
        builder.blt(R(2), iterations, "top")
        builder.out(R(1))
        builder.halt()
        return builder

    def test_statistical_behaviour(self):
        _, state, _ = run_program(self.build_prob_loop(), seed=1)
        taken = state.output()[0]
        assert 0.25 * 1000 < taken < 0.35 * 1000

    def test_events_marked_as_predicted_prob(self):
        _, _, events = run_program(self.build_prob_loop(10), seed=1)
        prob_events = [e for e in events if e.prob_mode != ProbMode.NOT_PROB]
        assert len(prob_events) == 10
        assert all(e.prob_mode == ProbMode.PREDICTED for e in prob_events)
        assert all(e.op is Op.PROB_JMP for e in prob_events)

    def test_consumed_values_recorded(self):
        builder = self.build_prob_loop(50)
        program = builder.build()
        executor = Executor(program, seed=3, record_consumed=True)
        executor.run()
        assert len(executor.consumed_values) == 50
        assert all(0.0 <= v < 1.0 for v in executor.consumed_values)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def trace(seed):
            builder = TestProbabilisticWithoutPbs().build_prob_loop(200)
            executor = Executor(builder.build(), seed=seed)
            collector = Collector()
            executor.run(sink=collector)
            return list(zip(collector.batch.pcs, collector.batch.takens))

        assert trace(42) == trace(42)
        assert trace(42) != trace(43)

    def test_retired_counter(self):
        builder = ProgramBuilder("count")
        builder.nop()
        builder.nop()
        builder.halt()
        executor = Executor(builder.build())
        executor.run()
        assert executor.retired == 3
