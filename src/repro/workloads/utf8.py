"""UTF8: DFA validation of a random byte stream (ported branchy kernel).

Not a paper benchmark (``paper = None``): a branch-heavy validator in
the style of DFA-based UTF-8 decoders, ported to grow the golden and
differential corpus beyond Monte-Carlo arithmetic.  Each iteration
draws one uniform, maps it to a byte, and runs it through the classic
lead/continuation state machine — nested range checks give dense,
data-dependent branching, the stress case for the compiled tier's
block dispatch.

The ASCII/multibyte split is the probabilistic branch: the drawn byte
is below 0x80 exactly when the uniform is below 0.5, so a Category-1
``PROB_CMP``/``PROB_JMP`` on the uniform against the constant 0.5
decides it.
"""

from __future__ import annotations

from typing import Dict

from ..functional.rng import Drand48
from ..isa import F, Program, ProgramBuilder, R
from ..sim.registry import register_workload
from .base import Workload

DEFAULT_BYTES = 12_000


@register_workload(order=8)
class Utf8Workload(Workload):
    name = "utf8"
    description = "DFA validation of a random byte stream"
    paper = None

    def iterations(self, scale: float) -> int:
        return max(1, int(DEFAULT_BYTES * scale))

    def build(self, scale: float = 1.0) -> Program:
        iterations = self.iterations(scale)
        b = ProgramBuilder("utf8")
        valid, invalid, need, i, count, byte = (
            R(1), R(2), R(3), R(4), R(5), R(6)
        )
        u, scaled = F(1), F(2)

        b.li(valid, 0)
        b.li(invalid, 0)
        b.li(need, 0)          # continuation bytes still expected
        b.li(i, 0)
        b.li(count, iterations)
        b.label("loop")
        b.rand(u)
        b.fmul(scaled, u, 256.0)
        b.ftoi(byte, scaled)

        b.beq(need, 0, "lead")
        # Continuation position: must be 0x80..0xBF.
        b.blt(byte, 0x80, "bad")
        b.bge(byte, 0xC0, "bad")
        b.sub(need, need, 1)
        b.bne(need, 0, "next")
        b.add(valid, valid, 1)  # sequence completed
        b.jmp("next")

        b.label("lead")
        # byte < 0x80 iff u < 0.5: the ASCII fast path is probabilistic.
        b.prob_cmp("ge", u, 0.5)
        b.prob_jmp(None, "multibyte")
        b.add(valid, valid, 1)
        b.jmp("next")

        b.label("multibyte")
        # Lead byte ranges: C2..DF / E0..EF / F0..F4; anything else at a
        # lead position (stray continuation, overlong C0/C1, > F4) is
        # invalid.
        b.blt(byte, 0xC2, "bad")
        b.bge(byte, 0xF5, "bad")
        b.bge(byte, 0xF0, "len4")
        b.bge(byte, 0xE0, "len3")
        b.li(need, 1)
        b.jmp("next")
        b.label("len3")
        b.li(need, 2)
        b.jmp("next")
        b.label("len4")
        b.li(need, 3)
        b.jmp("next")

        b.label("bad")
        b.add(invalid, invalid, 1)
        b.li(need, 0)          # resynchronize the DFA

        b.label("next")
        b.add(i, i, 1)
        b.blt(i, count, "loop")
        b.out(valid)
        b.out(invalid)
        b.out(count)
        b.halt()
        return b.build()

    def reference(self, scale: float = 1.0, seed: int = 0) -> Dict[str, float]:
        iterations = self.iterations(scale)
        rng = Drand48(seed)
        valid = invalid = need = 0
        for _ in range(iterations):
            byte = int(rng.uniform() * 256.0)
            if need > 0:
                if 0x80 <= byte < 0xC0:
                    need -= 1
                    if need == 0:
                        valid += 1
                else:
                    invalid += 1
                    need = 0
            elif byte < 0x80:
                valid += 1
            elif 0xC2 <= byte < 0xE0:
                need = 1
            elif 0xE0 <= byte < 0xF0:
                need = 2
            elif 0xF0 <= byte < 0xF5:
                need = 3
            else:
                invalid += 1
        return {
            "valid": valid,
            "invalid": invalid,
            "valid_rate": valid / iterations,
        }

    def outputs(self, state) -> Dict[str, float]:
        valid, invalid, count = (
            state.output()[0], state.output()[1], state.output()[2]
        )
        return {
            "valid": valid,
            "invalid": invalid,
            "valid_rate": valid / count,
        }

    def accuracy_error(self, baseline, candidate) -> float:
        return abs(
            candidate["valid_rate"] - baseline["valid_rate"]
        ) / abs(baseline["valid_rate"])
