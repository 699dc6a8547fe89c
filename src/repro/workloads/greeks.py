"""Greeks: Monte Carlo option sensitivities (paper §II-A2, after [15]).

Prices a vanilla European call at three spots (S - dS, S, S + dS) with
common random numbers, from which price, delta and gamma follow by finite
differences.  Each path draws one Box-Muller normal and evaluates three
``if (S_cur - K > 0) payoff_sum += S_cur - K`` branches — the paper's
canonical Category-2 example: the probabilistic value ``S_cur`` is used in
the control-dependent code after the branch, so PBS must swap it.
"""

from __future__ import annotations

import math
from typing import Dict

from ..functional.rng import Drand48
from ..isa import F, Program, ProgramBuilder, R
from .base import PaperFacts, Workload
from ..sim.registry import register_workload

DEFAULT_PATHS = 6_000

SPOT = 100.0
STRIKE = 100.0
RATE = 0.05
VOLATILITY = 0.2
MATURITY = 1.0
BUMP = 1.0

VOL_SQRT_T = VOLATILITY * math.sqrt(MATURITY)
DISCOUNT = math.exp(-RATE * MATURITY)
TWO_PI = 2.0 * math.pi
_DRIFT = math.exp(MATURITY * (RATE - 0.5 * VOLATILITY * VOLATILITY))
ADJUST_MID = SPOT * _DRIFT
ADJUST_UP = (SPOT + BUMP) * _DRIFT
ADJUST_DOWN = (SPOT - BUMP) * _DRIFT


@register_workload(order=1)
class GreeksWorkload(Workload):
    name = "greeks"
    description = "Monte Carlo Greeks (price/delta/gamma) via bumped spots"
    paper = PaperFacts(
        prob_branches=3,
        total_branches=50,
        category=2,
        simulated_instructions="2.9 Billion",
    )

    def paths(self, scale: float) -> int:
        return max(1, int(DEFAULT_PATHS * scale))

    def build(self, scale: float = 1.0) -> Program:
        paths = self.paths(scale)
        b = ProgramBuilder("greeks")
        count, i = R(1), R(2)
        u1, u2, radius, theta, gauss, growth, tmp = (
            F(1), F(2), F(3), F(4), F(5), F(6), F(7)
        )
        s_mid, s_up, s_down = F(8), F(9), F(10)
        sum_mid, sum_up, sum_down = F(11), F(12), F(13)

        b.li(count, paths)
        b.li(i, 0)
        b.fli(sum_mid, 0.0)
        b.fli(sum_up, 0.0)
        b.fli(sum_down, 0.0)
        b.label("path")
        b.rand(u1)
        b.rand(u2)
        b.flog(tmp, u1)
        b.fmul(tmp, tmp, -2.0)
        b.fsqrt(radius, tmp)
        b.fmul(theta, u2, TWO_PI)
        b.fcos(tmp, theta)
        b.fmul(gauss, radius, tmp)
        b.fmul(tmp, gauss, VOL_SQRT_T)
        b.fexp(growth, tmp)
        b.fmul(s_mid, growth, ADJUST_MID)
        b.fmul(s_up, growth, ADJUST_UP)
        b.fmul(s_down, growth, ADJUST_DOWN)
        # Three Category-2 branches: S is consumed after the branch, so it
        # rides the PROB_CMP register swap.
        for s_reg, sum_reg, skip in (
            (s_mid, sum_mid, "skip_mid"),
            (s_up, sum_up, "skip_up"),
            (s_down, sum_down, "skip_down"),
        ):
            b.prob_cmp("le", s_reg, STRIKE)
            b.prob_jmp(None, skip)
            b.fsub(tmp, s_reg, STRIKE)
            b.fadd(sum_reg, sum_reg, tmp)
            b.label(skip)
        b.add(i, i, 1)
        b.blt(i, count, "path")
        b.out(sum_mid)
        b.out(sum_up)
        b.out(sum_down)
        b.out(count)
        b.halt()
        return b.build()

    def reference(self, scale: float = 1.0, seed: int = 0) -> Dict[str, float]:
        paths = self.paths(scale)
        rng = Drand48(seed)
        sums = [0.0, 0.0, 0.0]
        adjusts = (ADJUST_MID, ADJUST_UP, ADJUST_DOWN)
        for _ in range(paths):
            u1 = rng.uniform()
            u2 = rng.uniform()
            gauss = math.sqrt(-2.0 * math.log(u1)) * math.cos(TWO_PI * u2)
            growth = math.exp(VOL_SQRT_T * gauss)
            for index, adjust in enumerate(adjusts):
                s_cur = growth * adjust
                if s_cur > STRIKE:
                    sums[index] += s_cur - STRIKE
        return self._package(sums[0], sums[1], sums[2], paths)

    def outputs(self, state) -> Dict[str, float]:
        sum_mid, sum_up, sum_down, count = state.output()[:4]
        return self._package(sum_mid, sum_up, sum_down, count)

    @staticmethod
    def _package(sum_mid, sum_up, sum_down, paths) -> Dict[str, float]:
        price_mid = DISCOUNT * sum_mid / paths
        price_up = DISCOUNT * sum_up / paths
        price_down = DISCOUNT * sum_down / paths
        return {
            "price": price_mid,
            "delta": (price_up - price_down) / (2.0 * BUMP),
            "gamma": (price_up - 2.0 * price_mid + price_down) / (BUMP * BUMP),
        }

    def accuracy_error(self, baseline, candidate) -> float:
        price = abs(candidate["price"] - baseline["price"]) / abs(baseline["price"])
        delta = abs(candidate["delta"] - baseline["delta"]) / abs(baseline["delta"])
        return max(price, delta)
