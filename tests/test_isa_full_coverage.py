"""Full-opcode coverage: every instruction through every tool.

Builds one program that executes every opcode in the ISA, then pushes it
through the functional simulator, the disassembler/assembler round trip,
the binary encoder/decoder round trip, and the timing model — catching
gaps for opcodes the eight workloads happen not to use.
"""

import math

import pytest

from repro.branch import Tournament
from repro.functional import Executor
from repro.isa import F, Op, ProgramBuilder, R, assemble, disassemble
from repro.isa.encoding import decode_program, encode_program
from repro.pipeline import OoOCore, four_wide


def build_everything_program():
    b = ProgramBuilder("everything", data_size=8)
    # Integer ALU.
    b.li(R(1), 7)
    b.li(R(2), 3)
    b.add(R(3), R(1), R(2))
    b.sub(R(4), R(1), R(2))
    b.mul(R(5), R(1), R(2))
    b.div(R(6), R(1), R(2))
    b.mod(R(7), R(1), R(2))
    b.and_(R(8), R(1), R(2))
    b.or_(R(9), R(1), R(2))
    b.xor(R(10), R(1), R(2))
    b.shl(R(11), R(1), 2)
    b.shr(R(12), R(1), 1)
    b.slt(R(13), R(2), R(1))
    b.sle(R(14), R(1), R(1))
    b.seq(R(15), R(1), R(2))
    b.sne(R(16), R(1), R(2))
    b.imin(R(17), R(1), R(2))
    b.imax(R(18), R(1), R(2))
    b.mov(R(19), R(1))
    b.select(R(20), R(13), 100, 200)
    # Floating point.
    b.fli(F(1), 2.0)
    b.fli(F(2), 0.5)
    b.fadd(F(3), F(1), F(2))
    b.fsub(F(4), F(1), F(2))
    b.fmul(F(5), F(1), F(2))
    b.fdiv(F(6), F(1), F(2))
    b.fsqrt(F(7), F(1))
    b.fexp(F(8), F(2))
    b.flog(F(9), F(1))
    b.fsin(F(10), F(2))
    b.fcos(F(11), F(2))
    b.fabs_(F(12), F(4))
    b.fneg(F(13), F(1))
    b.fmin(F(14), F(1), F(2))
    b.fmax(F(15), F(1), F(2))
    b.fmov(F(16), F(1))
    b.fselect(F(17), R(13), F(1), F(2))
    b.flt(R(21), F(2), F(1))
    b.fle(R(22), F(1), F(1))
    b.feq(R(23), F(1), F(2))
    b.fne(R(24), F(1), F(2))
    b.itof(F(18), R(1))
    b.ftoi(R(25), F(1))
    b.ffloor(F(19), F(3))
    # Memory.
    b.li(R(26), 2)
    b.store(R(1), R(26), 1)
    b.load(R(27), R(26), 1)
    b.fstore(F(1), R(26), 2)
    b.fload(F(20), R(26), 2)
    # Randomness.
    b.rand(F(21))
    b.randn(F(22))
    # Control flow: cmp/jt/jf, fused branches, call/ret, jmp.
    b.cmp("lt", R(2), R(1))
    b.jt("taken_path")
    b.nop()
    b.label("taken_path")
    b.cmp("gt", R(2), R(1))
    b.jf("not_taken_path")
    b.nop()
    b.label("not_taken_path")
    b.beq(R(1), R(1), "beq_t")
    b.nop()
    b.label("beq_t")
    b.bne(R(1), R(2), "bne_t")
    b.nop()
    b.label("bne_t")
    b.ble(R(2), R(1), "ble_t")
    b.nop()
    b.label("ble_t")
    b.bgt(R(1), R(2), "bgt_t")
    b.nop()
    b.label("bgt_t")
    b.bge(R(1), R(2), "bge_t")
    b.nop()
    b.label("bge_t")
    b.call("function")
    # A loop with the probabilistic pair (with value register).
    b.li(R(28), 0)
    b.label("loop")
    b.rand(F(23))
    b.prob_cmp("lt", F(23), 0.5)
    b.prob_jmp(F(23), "skip")
    b.add(R(29), R(29), 1)
    b.label("skip")
    b.add(R(28), R(28), 1)
    b.blt(R(28), 30, "loop")
    b.jmp("finish")
    b.nop()
    b.label("finish")
    for index in range(3, 28):
        b.out(R(index))
    b.out(F(3))
    b.out(F(19))
    b.halt()
    b.label("function")
    b.add(R(30), R(30), 1)
    b.ret()
    return b.build()


@pytest.fixture(scope="module")
def program():
    return build_everything_program()


def run_outputs(prog, seed=6):
    executor = Executor(prog, seed=seed)
    state = executor.run()
    return state.output(), executor.retired


class TestOpcodeCoverage:
    def test_every_opcode_present(self, program):
        used = {inst.op for inst in program.instructions}
        missing = set(Op) - used
        assert not missing, f"opcodes not exercised: {missing}"

    def test_executes_with_expected_values(self, program):
        outputs, _ = run_outputs(program)
        # r3..r27 in order: spot-check the arithmetic results.
        assert outputs[0] == 10      # add 7+3
        assert outputs[1] == 4       # sub
        assert outputs[2] == 21      # mul
        assert outputs[3] == 2       # div (trunc)
        assert outputs[4] == 1       # mod
        assert outputs[17] == 100    # select (r13 = 3<7 = 1 -> if_true)
        assert outputs[-2] == 2.5    # fadd 2.0+0.5
        assert outputs[-1] == math.floor(2.5)  # ffloor

    def test_disassembler_roundtrip(self, program):
        text = disassemble(program)
        rebuilt = assemble(text, "rebuilt", data_size=program.data_size)
        assert run_outputs(rebuilt) == run_outputs(program)

    def test_encoding_roundtrip(self, program):
        decoded = decode_program(encode_program(program))
        assert run_outputs(decoded) == run_outputs(program)

    def test_legacy_decode_still_executes(self, program):
        legacy = decode_program(encode_program(program), pbs_aware=False)
        assert run_outputs(legacy) == run_outputs(program)

    def test_timing_model_handles_every_opcode(self, program):
        core = OoOCore(four_wide(), Tournament())
        Executor(program, seed=6).run(sink=core)
        stats = core.finalize()
        assert stats.cycles > 0
        assert stats.instructions > 0
