"""PI: Monte Carlo estimation of pi (paper §II-A5, Table II row "PI").

One Category-1 probabilistic branch: a uniform point (dx, dy) is sampled
and ``dx*dx + dy*dy < 1`` decides whether it lands inside the quarter
circle.  The probabilistic value is derived from two uniforms and compared
against the constant 1.0, satisfying the PBS correctness rule.
"""

from __future__ import annotations

import math
from typing import Dict

from ..functional.rng import Drand48
from ..isa import F, Program, ProgramBuilder, R
from .base import PaperFacts, Workload
from ..sim.registry import register_workload

DEFAULT_ITERATIONS = 20_000


@register_workload(order=6)
class PiWorkload(Workload):
    name = "pi"
    description = "Monte Carlo estimation of pi by quarter-circle sampling"
    paper = PaperFacts(
        prob_branches=1,
        total_branches=45,
        category=1,
        simulated_instructions="1.3 Billion",
    )

    def iterations(self, scale: float) -> int:
        return max(1, int(DEFAULT_ITERATIONS * scale))

    def build(self, scale: float = 1.0) -> Program:
        iterations = self.iterations(scale)
        b = ProgramBuilder("pi")
        hits, count, i = R(1), R(2), R(3)
        dx, dy, dx2, dy2, dist2 = F(1), F(2), F(3), F(4), F(5)

        b.li(hits, 0)
        b.li(count, iterations)
        b.li(i, 0)
        b.label("loop")
        b.rand(dx)
        b.rand(dy)
        b.fmul(dx2, dx, dx)
        b.fmul(dy2, dy, dy)
        b.fadd(dist2, dx2, dy2)
        b.prob_cmp("ge", dist2, 1.0)
        b.prob_jmp(None, "miss")
        b.add(hits, hits, 1)
        b.label("miss")
        b.add(i, i, 1)
        b.blt(i, count, "loop")
        b.out(hits)
        b.out(count)
        b.halt()
        return b.build()

    def reference(self, scale: float = 1.0, seed: int = 0) -> Dict[str, float]:
        iterations = self.iterations(scale)
        rng = Drand48(seed)
        hits = 0
        for _ in range(iterations):
            dx = rng.uniform()
            dy = rng.uniform()
            if dx * dx + dy * dy < 1.0:
                hits += 1
        return {"hits": hits, "pi": 4.0 * hits / iterations}

    def outputs(self, state) -> Dict[str, float]:
        hits, count = state.output()[0], state.output()[1]
        return {"hits": hits, "pi": 4.0 * hits / count}

    def accuracy_error(self, baseline, candidate) -> float:
        return abs(candidate["pi"] - baseline["pi"]) / abs(baseline["pi"])


PI_TRUE = math.pi
