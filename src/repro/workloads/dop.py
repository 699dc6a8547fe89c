"""DOP: digital option pricing by Monte Carlo (paper §VI-A, after [21]).

A digital (binary) option pays 1 when the simulated terminal price crosses
the strike.  Each path draws a standard normal via an inline Box-Muller
transform (two uniforms — the library-call structure of the original C++),
computes the terminal price ``S_T = S_adj * exp(v*sqrt(T) * g)`` and tests
it against the strike twice: once for the call, once for the put.  The
payoff is the constant 1, so nothing after the branches depends on the
probabilistic value: two Category-1 branches, matching Table II.
"""

from __future__ import annotations

import math
from typing import Dict

from ..functional.rng import Drand48
from ..isa import F, Program, ProgramBuilder, R
from .base import PaperFacts, Workload
from ..sim.registry import register_workload

DEFAULT_PATHS = 8_000

SPOT = 100.0
STRIKE = 100.0
RATE = 0.05
VOLATILITY = 0.2
MATURITY = 1.0

S_ADJUST = SPOT * math.exp(MATURITY * (RATE - 0.5 * VOLATILITY * VOLATILITY))
VOL_SQRT_T = VOLATILITY * math.sqrt(MATURITY)
DISCOUNT = math.exp(-RATE * MATURITY)
TWO_PI = 2.0 * math.pi


@register_workload(order=0)
class DopWorkload(Workload):
    name = "dop"
    description = "Digital option pricing (call + put) by Monte Carlo"
    paper = PaperFacts(
        prob_branches=2,
        total_branches=47,
        category=1,
        simulated_instructions="2.6 Billion",
    )

    def paths(self, scale: float) -> int:
        return max(1, int(DEFAULT_PATHS * scale))

    def build(self, scale: float = 1.0) -> Program:
        paths = self.paths(scale)
        b = ProgramBuilder("dop")
        call_hits, put_hits, count, i = R(1), R(2), R(3), R(4)
        u1 = F(1)
        u2 = F(2)
        radius = F(3)
        theta = F(4)
        gauss = F(5)
        s_t = F(6)
        s_t_put = F(7)
        tmp = F(8)

        b.li(call_hits, 0)
        b.li(put_hits, 0)
        b.li(count, paths)
        b.li(i, 0)
        b.label("path")
        # gauss = sqrt(-2 ln u1) * cos(2 pi u2): the Box-Muller transform.
        b.rand(u1)
        b.rand(u2)
        b.flog(tmp, u1)
        b.fmul(tmp, tmp, -2.0)
        b.fsqrt(radius, tmp)
        b.fmul(theta, u2, TWO_PI)
        b.fcos(tmp, theta)
        b.fmul(gauss, radius, tmp)
        # S_T = S_adjust * exp(v sqrt(T) * gauss)
        b.fmul(tmp, gauss, VOL_SQRT_T)
        b.fexp(tmp, tmp)
        b.fmul(s_t, tmp, S_ADJUST)
        b.fmov(s_t_put, s_t)
        # Call branch: payoff 1 when S_T > K.
        b.prob_cmp("le", s_t, STRIKE)
        b.prob_jmp(None, "skip_call")
        b.add(call_hits, call_hits, 1)
        b.label("skip_call")
        # Put branch: payoff 1 when S_T < K.
        b.prob_cmp("ge", s_t_put, STRIKE)
        b.prob_jmp(None, "skip_put")
        b.add(put_hits, put_hits, 1)
        b.label("skip_put")
        b.add(i, i, 1)
        b.blt(i, count, "path")
        b.out(call_hits)
        b.out(put_hits)
        b.out(count)
        b.halt()
        return b.build()

    def reference(self, scale: float = 1.0, seed: int = 0) -> Dict[str, float]:
        paths = self.paths(scale)
        rng = Drand48(seed)
        call_hits = 0
        put_hits = 0
        for _ in range(paths):
            u1 = rng.uniform()
            u2 = rng.uniform()
            gauss = math.sqrt(-2.0 * math.log(u1)) * math.cos(TWO_PI * u2)
            s_t = S_ADJUST * math.exp(VOL_SQRT_T * gauss)
            if s_t > STRIKE:
                call_hits += 1
            if s_t < STRIKE:
                put_hits += 1
        return self._package(call_hits, put_hits, paths)

    def outputs(self, state) -> Dict[str, float]:
        call_hits, put_hits, count = state.output()[:3]
        return self._package(call_hits, put_hits, count)

    @staticmethod
    def _package(call_hits, put_hits, paths) -> Dict[str, float]:
        return {
            "call_hits": call_hits,
            "put_hits": put_hits,
            "call_price": DISCOUNT * call_hits / paths,
            "put_price": DISCOUNT * put_hits / paths,
        }

    def accuracy_error(self, baseline, candidate) -> float:
        call = abs(candidate["call_price"] - baseline["call_price"]) / abs(
            baseline["call_price"]
        )
        put = abs(candidate["put_price"] - baseline["put_price"]) / abs(
            baseline["put_price"]
        )
        return max(call, put)
