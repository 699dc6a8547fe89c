"""Tests for the §V-B compiler support: CFG, taint, auto-marking."""

from repro.compiler import (
    ControlFlowGraph,
    TaintAnalysis,
    mark_probabilistic_branches,
)
from repro.core import PBSEngine
from repro.functional import Executor
from repro.isa import COND, F, Op, ProgramBuilder, R


def build_unmarked_pi(iterations=400):
    """PI with a *regular* cmp/jt pair: the compiler should convert it."""
    b = ProgramBuilder("pi-unmarked")
    hits, count, i = R(1), R(2), R(3)
    dx, dy, d2 = F(1), F(2), F(3)
    b.li(hits, 0)
    b.li(count, iterations)
    b.li(i, 0)
    b.label("loop")
    b.rand(dx)
    b.rand(dy)
    b.fmul(dx, dx, dx)
    b.fmul(dy, dy, dy)
    b.fadd(d2, dx, dy)
    b.cmp("ge", d2, 1.0)
    b.jt("miss")
    b.add(hits, hits, 1)
    b.label("miss")
    b.add(i, i, 1)
    b.blt(i, count, "loop")
    b.out(hits)
    b.halt()
    return b.build()


class TestControlFlowGraph:
    def test_block_partitioning(self):
        program = build_unmarked_pi()
        cfg = ControlFlowGraph(program)
        assert len(cfg.blocks) >= 3
        assert cfg.block_of[0] == 0
        # Every PC belongs to exactly one block.
        assert sorted(cfg.block_of) == list(range(len(program)))

    def test_loop_detection(self):
        program = build_unmarked_pi()
        cfg = ControlFlowGraph(program)
        assert len(cfg.loops) == 1
        loop = cfg.loops[0]
        assert loop.head == program.labels["loop"]

    def test_innermost_loop(self):
        b = ProgramBuilder("nested")
        b.li(R(1), 0)
        b.label("outer")
        b.li(R(2), 0)
        b.label("inner")
        b.add(R(2), R(2), 1)
        b.blt(R(2), 3, "inner")
        b.add(R(1), R(1), 1)
        b.blt(R(1), 3, "outer")
        b.halt()
        program = b.build()
        cfg = ControlFlowGraph(program)
        assert len(cfg.loops) == 2
        inner_pc = program.labels["inner"]
        loop = cfg.innermost_loop(inner_pc)
        assert loop.head == inner_pc

    def test_loop_invariance(self):
        program = build_unmarked_pi()
        cfg = ControlFlowGraph(program)
        loop = cfg.loops[0]
        assert cfg.is_loop_invariant(R(2), loop)       # count: never written
        assert not cfg.is_loop_invariant(R(1), loop)   # hits: incremented
        assert cfg.is_loop_invariant(1.0, loop)        # immediates always


class TestTaintAnalysis:
    def test_rand_taints_destination(self):
        program = build_unmarked_pi()
        taint = TaintAnalysis(program)
        loop_head = program.labels["loop"]
        # After both rand instructions, dx and dy are tainted.
        assert taint.is_tainted(loop_head + 2, F(1))

    def test_taint_propagates_through_arithmetic(self):
        program = build_unmarked_pi()
        taint = TaintAnalysis(program)
        cmp_pc = next(
            pc for pc, inst in enumerate(program.instructions)
            if inst.op is Op.CMP
        )
        assert taint.is_tainted(cmp_pc, F(3))  # d2 = dx^2 + dy^2

    def test_constants_are_clean(self):
        program = build_unmarked_pi()
        taint = TaintAnalysis(program)
        assert not taint.is_tainted(5, R(2))

    def test_constant_overwrite_clears_taint(self):
        b = ProgramBuilder("clear")
        b.rand(F(1))
        b.fli(F(1), 0.5)
        b.fadd(F(2), F(1), F(1))
        b.halt()
        program = b.build()
        taint = TaintAnalysis(program)
        assert not taint.is_tainted(2, F(1))

    def test_memory_taint_conservative(self):
        b = ProgramBuilder("mem", data_size=4)
        b.li(R(1), 0)
        b.rand(F(1))
        b.fstore(F(1), R(1))
        b.fload(F(2), R(1))
        b.halt()
        program = b.build()
        taint = TaintAnalysis(program)
        assert taint.memory_tainted
        assert taint.is_tainted(4, F(2))

    def test_cond_flag_tainted_by_probabilistic_compare(self):
        program = build_unmarked_pi()
        taint = TaintAnalysis(program)
        jt_pc = next(
            pc for pc, inst in enumerate(program.instructions)
            if inst.op is Op.JT
        )
        assert taint.is_tainted(jt_pc, COND)


class TestAutoMarking:
    def test_converts_the_monte_carlo_branch(self):
        program = build_unmarked_pi()
        converted, report = mark_probabilistic_branches(program)
        assert report.converted == 1
        assert len(converted.probabilistic_branch_pcs()) == 1

    def test_loop_branch_not_converted(self):
        """The loop-closing blt compares clean counters: must stay."""
        program = build_unmarked_pi()
        converted, report = mark_probabilistic_branches(program)
        fused = [
            inst for inst in converted.instructions if inst.op is Op.BLT
        ]
        assert len(fused) == 1

    def test_converted_program_behaves_identically_without_pbs(self):
        program = build_unmarked_pi()
        converted, _ = mark_probabilistic_branches(program)
        original = Executor(program, seed=9).run().output()
        rewritten = Executor(converted, seed=9).run().output()
        assert original == rewritten

    def test_converted_program_gets_pbs_hits(self):
        program = build_unmarked_pi()
        converted, _ = mark_probabilistic_branches(program)
        engine = PBSEngine()
        Executor(converted, seed=9, pbs=engine).run()
        assert engine.stats.hit_rate > 0.95

    def test_fused_branch_conversion(self):
        b = ProgramBuilder("fused")
        b.li(R(1), 0)
        b.li(R(2), 0)
        b.label("loop")
        b.rand(F(1))
        b.fli(F(2), 0.5)
        b.flt(R(3), F(1), F(2))       # r3 = rand < 0.5 (tainted)
        b.beq(R(3), 0, "skip")        # fused branch on tainted value
        b.add(R(1), R(1), 1)
        b.label("skip")
        b.add(R(2), R(2), 1)
        b.blt(R(2), 200, "loop")
        b.out(R(1))
        b.halt()
        program = b.build()
        converted, report = mark_probabilistic_branches(program)
        assert report.converted == 1
        # The fused branch expanded into a pair: program grew by one.
        assert len(converted) == len(program) + 1
        assert Executor(program, seed=4).run().output() == \
            Executor(converted, seed=4).run().output()

    def test_rejects_loop_variant_comparison(self):
        """§IV: the comparison partner must not change within the loop."""
        b = ProgramBuilder("variant")
        b.li(R(1), 0)
        b.fli(F(3), 0.5)
        b.label("loop")
        b.rand(F(1))
        b.fmul(F(3), F(3), 0.99)      # threshold decays (simulated annealing)
        b.cmp("lt", F(1), F(3))
        b.jt("skip")
        b.add(R(1), R(1), 1)
        b.label("skip")
        b.add(R(2), R(2), 1)
        b.blt(R(2), 100, "loop")
        b.out(R(1))
        b.halt()
        program = b.build()
        _, report = mark_probabilistic_branches(program)
        assert report.converted == 0
        assert any("varies within the loop" in r.reason for r in report.rejections)

    def test_rejects_branch_outside_loop(self):
        b = ProgramBuilder("straight")
        b.rand(F(1))
        b.cmp("lt", F(1), 0.5)
        b.jt("end")
        b.nop()
        b.label("end")
        b.halt()
        _, report = mark_probabilistic_branches(b.build())
        assert report.converted == 0
        assert any("not inside any loop" in r.reason for r in report.rejections)

    def test_rejects_both_operands_tainted(self):
        b = ProgramBuilder("both")
        b.li(R(1), 0)
        b.label("loop")
        b.rand(F(1))
        b.rand(F(2))
        b.cmp("lt", F(1), F(2))
        b.jt("skip")
        b.nop()
        b.label("skip")
        b.add(R(1), R(1), 1)
        b.blt(R(1), 50, "loop")
        b.halt()
        _, report = mark_probabilistic_branches(b.build())
        assert report.converted == 0
        assert any("both operands" in r.reason for r in report.rejections)

    def test_mirrors_operator_when_tainted_side_is_second(self):
        b = ProgramBuilder("mirror")
        b.li(R(1), 0)
        b.fli(F(2), 0.5)
        b.label("loop")
        b.rand(F(1))
        b.cmp("lt", F(2), F(1))       # const < rand
        b.jt("skip")
        b.nop()
        b.label("skip")
        b.add(R(1), R(1), 1)
        b.blt(R(1), 50, "loop")
        b.halt()
        program = b.build()
        converted, report = mark_probabilistic_branches(program)
        assert report.converted == 1
        candidate = report.candidates[0]
        assert candidate.prob_operand is F(1)
        assert candidate.operator == "gt"  # lt mirrored
        # Execution must be preserved.
        assert Executor(program, seed=2).run().output() == \
            Executor(converted, seed=2).run().output()

    def test_category_detection(self):
        # Category 2: the tainted value is consumed after the branch.
        b = ProgramBuilder("cat2")
        b.li(R(1), 0)
        b.fli(F(5), 0.0)
        b.label("loop")
        b.rand(F(1))
        b.cmp("lt", F(1), 0.5)
        b.jt("skip")
        b.fadd(F(5), F(5), F(1))      # uses the probabilistic value
        b.label("skip")
        b.add(R(1), R(1), 1)
        b.blt(R(1), 50, "loop")
        b.out(F(5))
        b.halt()
        _, report = mark_probabilistic_branches(b.build())
        assert report.converted == 1
        assert report.candidates[0].category == 2

    def test_report_renders(self):
        program = build_unmarked_pi()
        _, report = mark_probabilistic_branches(program)
        text = report.render()
        assert "converted" in text
