"""PSUM: Hillis-Steele parallel prefix sum (ported branchy kernel).

Not a paper benchmark (``paper = None``): the classic data-parallel
inclusive-scan schedule executed sequentially — log2(N) passes, each
adding ``mem[i - offset]`` into ``mem[i]`` from the top down — ported
to give the corpus a memory-resident workload with nested loops,
``CALL``/``RET`` (the random fill runs through a subroutine) and
address arithmetic, none of which the paper's Monte-Carlo kernels
exercise together.

The probabilistic branch is in the fill phase: each element's uniform
also decides (Category-1 ``PROB_CMP`` against 0.5) whether the element
counts toward the "upper half" statistic — a side tally PBS may
approximate while the scan itself stays exact.
"""

from __future__ import annotations

from typing import Dict

from ..functional.rng import Drand48
from ..isa import F, Program, ProgramBuilder, R
from ..sim.registry import register_workload
from .base import Workload

DEFAULT_ELEMENTS = 256
_VALUE_RANGE = 1024.0


@register_workload(order=9)
class PrefixSumWorkload(Workload):
    name = "psum"
    description = "Hillis-Steele inclusive prefix sum over random values"
    paper = None

    def elements(self, scale: float) -> int:
        return max(4, int(DEFAULT_ELEMENTS * scale))

    def build(self, scale: float = 1.0) -> Program:
        n = self.elements(scale)
        b = ProgramBuilder("psum", data_size=n)
        i, count, value, upper, offset, addr, other = (
            R(1), R(2), R(3), R(4), R(5), R(6), R(7)
        )
        u, scaled = F(1), F(2)

        # Fill phase: mem[i] = int(u * 1024) via the gen_value routine;
        # the same uniform feeds the probabilistic upper-half tally.
        b.li(i, 0)
        b.li(count, n)
        b.li(upper, 0)
        b.label("fill")
        b.call("gen_value")
        b.store(value, i)
        b.prob_cmp("lt", u, 0.5)
        b.prob_jmp(None, "lower")
        b.add(upper, upper, 1)
        b.label("lower")
        b.add(i, i, 1)
        b.blt(i, count, "fill")

        # Scan phase: for offset in 1, 2, 4, ... < n, walk i from n-1
        # down to offset adding mem[i - offset] — downward order reads
        # each neighbour before this pass overwrites it.
        b.li(offset, 1)
        b.label("pass")
        b.sub(i, count, 1)
        b.label("scan")
        b.blt(i, offset, "pass_done")
        b.load(value, i)
        b.sub(addr, i, offset)
        b.load(other, addr)
        b.add(value, value, other)
        b.store(value, i)
        b.sub(i, i, 1)
        b.jmp("scan")
        b.label("pass_done")
        b.add(offset, offset, offset)
        b.blt(offset, count, "pass")

        # mem[n-1] now holds the inclusive total.
        b.sub(addr, count, 1)
        b.load(value, addr)
        b.out(value)
        b.out(upper)
        b.out(count)
        b.halt()

        b.label("gen_value")
        b.rand(u)
        b.fmul(scaled, u, _VALUE_RANGE)
        b.ftoi(value, scaled)
        b.ret()
        return b.build()

    def reference(self, scale: float = 1.0, seed: int = 0) -> Dict[str, float]:
        n = self.elements(scale)
        rng = Drand48(seed)
        values = []
        upper = 0
        for _ in range(n):
            u = rng.uniform()
            values.append(int(u * _VALUE_RANGE))
            if u >= 0.5:
                upper += 1
        return {
            "total": sum(values),
            "upper": upper,
            "mean": sum(values) / n,
        }

    def outputs(self, state) -> Dict[str, float]:
        total, upper, count = (
            state.output()[0], state.output()[1], state.output()[2]
        )
        return {"total": total, "upper": upper, "mean": total / count}

    def accuracy_error(self, baseline, candidate) -> float:
        return abs(candidate["mean"] - baseline["mean"]) / abs(
            baseline["mean"]
        )
