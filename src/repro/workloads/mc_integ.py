"""MC-integ: Monte Carlo hit-or-miss integration (paper §II-A5).

Integrates f(x) = exp(-x^2) over [0, 1] by sampling (x, y) uniformly and
testing ``y < exp(-x^2)``.  The test is algebraically rewritten as
``y * exp(x^2) < 1`` so the probabilistic value (``y * exp(x^2)``, derived
from two uniforms) is compared against the constant 1.0 — the same
constant-comparison shape the paper requires.  One Category-1 branch.
"""

from __future__ import annotations

import math
from typing import Dict

from ..functional.rng import Drand48
from ..isa import F, Program, ProgramBuilder, R
from .base import PaperFacts, Workload
from ..sim.registry import register_workload

DEFAULT_ITERATIONS = 20_000

#: The analytically known value: integral of exp(-x^2) from 0 to 1.
TRUE_INTEGRAL = math.sqrt(math.pi) / 2.0 * math.erf(1.0)


@register_workload(order=5)
class McIntegWorkload(Workload):
    name = "mc-integ"
    description = "Monte Carlo hit-or-miss integration of exp(-x^2) on [0,1]"
    paper = PaperFacts(
        prob_branches=1,
        total_branches=39,
        category=1,
        simulated_instructions="3.2 Billion",
    )

    def iterations(self, scale: float) -> int:
        return max(1, int(DEFAULT_ITERATIONS * scale))

    def build(self, scale: float = 1.0) -> Program:
        iterations = self.iterations(scale)
        b = ProgramBuilder("mc-integ")
        hits, count, i = R(1), R(2), R(3)
        x, y, x2, ex2, derived = F(1), F(2), F(3), F(4), F(5)

        b.li(hits, 0)
        b.li(count, iterations)
        b.li(i, 0)
        b.label("loop")
        b.rand(x)
        b.rand(y)
        b.fmul(x2, x, x)
        b.fexp(ex2, x2)
        b.fmul(derived, y, ex2)
        b.prob_cmp("ge", derived, 1.0)
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
            x = rng.uniform()
            y = rng.uniform()
            if y * math.exp(x * x) < 1.0:
                hits += 1
        return {"hits": hits, "integral": hits / iterations}

    def outputs(self, state) -> Dict[str, float]:
        hits, count = state.output()[0], state.output()[1]
        return {"hits": hits, "integral": hits / count}

    def accuracy_error(self, baseline, candidate) -> float:
        return abs(candidate["integral"] - baseline["integral"]) / abs(
            baseline["integral"]
        )
