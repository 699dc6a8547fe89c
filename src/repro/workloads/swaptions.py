"""Swaptions: Monte Carlo swaption pricing (paper §VI-A, after PARSEC).

A simplified HJM-flavoured simulation: each path evolves a short rate
through a fixed number of time steps (mean-reverting with uniform shocks),
accumulating the discounted value of a payer swap.  Three swaptions with
different strikes are then priced from the same path value: three
Category-2 probabilistic branches (``if V > K_i: sum_i += V - K_i``), each
comparing a derived probabilistic value against a constant strike.

The time-step inner loop supplies the regular-branch density that the real
PARSEC Swaptions kernel has (it is also why the paper could not apply
CFD: the probabilistic branch is reached from a loop the compiler cannot
split — see Table I).
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..functional.rng import Drand48
from ..isa import F, Program, ProgramBuilder, R
from .base import PaperFacts, Workload
from ..sim.registry import register_workload

DEFAULT_PATHS = 1_000
TIME_STEPS = 16

RATE0 = 0.05
KAPPA = 0.2
THETA = 0.05
SIGMA = 0.02
DT = 0.25
NOTIONAL = 100.0
FIXED_RATE = 0.05
STRIKES = (0.0, 0.5, 1.0)


@register_workload(order=2)
class SwaptionsWorkload(Workload):
    name = "swaptions"
    description = "Monte Carlo pricing of three payer swaptions"
    paper = PaperFacts(
        prob_branches=3,
        total_branches=309,
        category=2,
        simulated_instructions="17 Billion",
    )

    def paths(self, scale: float) -> int:
        return max(1, int(DEFAULT_PATHS * scale))

    def build(self, scale: float = 1.0) -> Program:
        paths = self.paths(scale)
        b = ProgramBuilder("swaptions")
        count, i, step = R(1), R(2), R(3)
        rate, shock, discount, value, tmp = F(1), F(2), F(3), F(4), F(5)
        v1, v2, v3 = F(6), F(7), F(8)
        sum1, sum2, sum3 = F(9), F(10), F(11)

        b.li(count, paths)
        b.li(i, 0)
        b.fli(sum1, 0.0)
        b.fli(sum2, 0.0)
        b.fli(sum3, 0.0)
        b.label("path")
        b.fli(rate, RATE0)
        b.fli(discount, 1.0)
        b.fli(value, 0.0)
        b.li(step, 0)
        b.label("step")
        # Mean-reverting rate with a centred uniform shock.
        b.rand(shock)
        b.fsub(shock, shock, 0.5)
        b.fmul(shock, shock, SIGMA)
        b.fsub(tmp, THETA, rate)
        b.fmul(tmp, tmp, KAPPA * DT)
        b.fadd(rate, rate, tmp)
        b.fadd(rate, rate, shock)
        # Discount to this step and accrue the swap leg difference.
        b.fmul(tmp, rate, -DT)
        b.fexp(tmp, tmp)
        b.fmul(discount, discount, tmp)
        b.fsub(tmp, rate, FIXED_RATE)
        b.fmul(tmp, tmp, DT * NOTIONAL)
        b.fmul(tmp, tmp, discount)
        b.fadd(value, value, tmp)
        b.add(step, step, 1)
        b.blt(step, TIME_STEPS, "step")
        # Three swaptions from the same path value (Category-2 branches).
        b.fmov(v1, value)
        b.fmov(v2, value)
        b.fmov(v3, value)
        for v_reg, sum_reg, strike, skip in (
            (v1, sum1, STRIKES[0], "skip1"),
            (v2, sum2, STRIKES[1], "skip2"),
            (v3, sum3, STRIKES[2], "skip3"),
        ):
            b.prob_cmp("le", v_reg, strike)
            b.prob_jmp(None, skip)
            b.fsub(tmp, v_reg, strike)
            b.fadd(sum_reg, sum_reg, tmp)
            b.label(skip)
        b.add(i, i, 1)
        b.blt(i, count, "path")
        b.out(sum1)
        b.out(sum2)
        b.out(sum3)
        b.out(count)
        b.halt()
        return b.build()

    def reference(self, scale: float = 1.0, seed: int = 0) -> Dict[str, float]:
        paths = self.paths(scale)
        rng = Drand48(seed)
        sums: List[float] = [0.0, 0.0, 0.0]
        for _ in range(paths):
            rate = RATE0
            discount = 1.0
            value = 0.0
            for _ in range(TIME_STEPS):
                shock = (rng.uniform() - 0.5) * SIGMA
                rate = rate + KAPPA * DT * (THETA - rate) + shock
                discount *= math.exp(-rate * DT)
                value += (rate - FIXED_RATE) * DT * NOTIONAL * discount
            for index, strike in enumerate(STRIKES):
                if value > strike:
                    sums[index] += value - strike
        return self._package(sums[0], sums[1], sums[2], paths)

    def outputs(self, state) -> Dict[str, float]:
        sum1, sum2, sum3, count = state.output()[:4]
        return self._package(sum1, sum2, sum3, count)

    @staticmethod
    def _package(sum1, sum2, sum3, paths) -> Dict[str, float]:
        return {
            "price_0": sum1 / paths,
            "price_1": sum2 / paths,
            "price_2": sum3 / paths,
        }

    def accuracy_error(self, baseline, candidate) -> float:
        errors = []
        for key in ("price_0", "price_1", "price_2"):
            if baseline[key] != 0:
                errors.append(abs(candidate[key] - baseline[key]) / abs(baseline[key]))
        return max(errors) if errors else 0.0
