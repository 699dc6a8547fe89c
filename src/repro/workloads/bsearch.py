"""BSEARCH: binary-search-heavy table lookups (ported branchy kernel).

Not a paper benchmark (``paper = None``): a sorted in-memory table
probed by random keys, each query running a full binary search — the
branch history is dominated by the hard-to-predict ``mem[mid] < key``
comparisons that make search loops a classic branch-predictor stress
test, which is exactly the corpus coverage the Monte-Carlo kernels
lack.

The probabilistic branch (Category-1 ``PROB_CMP`` of the query uniform
against 1/3) tallies how many queries land in the low third of the key
space; PBS may approximate that tally while every search stays exact.
"""

from __future__ import annotations

from typing import Dict

from ..functional.rng import Drand48
from ..isa import F, Program, ProgramBuilder, R
from ..sim.registry import register_workload
from .base import Workload

DEFAULT_TABLE = 64
DEFAULT_QUERIES = 1_500
_STEP = 7  # table keys are i * _STEP: sorted, with gaps to miss into


@register_workload(order=10)
class BinarySearchWorkload(Workload):
    name = "bsearch"
    description = "binary searches over a sorted in-memory table"
    paper = None

    def table_size(self, scale: float) -> int:
        return max(4, int(DEFAULT_TABLE * scale))

    def queries(self, scale: float) -> int:
        return max(1, int(DEFAULT_QUERIES * scale))

    def build(self, scale: float = 1.0) -> Program:
        n = self.table_size(scale)
        queries = self.queries(scale)
        b = ProgramBuilder("bsearch", data_size=n)
        i, count, key, lo, hi, mid, probe = (
            R(1), R(2), R(3), R(4), R(5), R(6), R(7)
        )
        found, index_sum, low_third, q = R(8), R(9), R(10), R(11)
        u, scaled = F(1), F(2)

        # Deterministic sorted table: mem[i] = i * _STEP.
        b.li(i, 0)
        b.li(count, n)
        b.li(probe, 0)
        b.label("fill")
        b.store(probe, i)
        b.add(probe, probe, _STEP)
        b.add(i, i, 1)
        b.blt(i, count, "fill")

        b.li(found, 0)
        b.li(index_sum, 0)
        b.li(low_third, 0)
        b.li(q, 0)
        b.label("query")
        b.rand(u)
        # Derive the key first: PROB_CMP swaps the value in ``u`` under
        # PBS, and only the tally below may be approximated.
        b.fmul(scaled, u, float(n * _STEP))
        b.ftoi(key, scaled)
        # Tally queries aimed at the low third of the key space.
        b.prob_cmp("ge", u, 1.0 / 3.0)
        b.prob_jmp(None, "search")
        b.add(low_third, low_third, 1)

        b.label("search")
        # Lower-bound search: first index with mem[index] >= key.
        b.li(lo, 0)
        b.mov(hi, count)
        b.label("bisect")
        b.bge(lo, hi, "lookup")
        b.add(mid, lo, hi)
        b.shr(mid, mid, 1)
        b.load(probe, mid)
        b.bge(probe, key, "go_left")
        b.add(lo, mid, 1)
        b.jmp("bisect")
        b.label("go_left")
        b.mov(hi, mid)
        b.jmp("bisect")

        b.label("lookup")
        b.add(index_sum, index_sum, lo)
        b.bge(lo, count, "miss")
        b.load(probe, lo)
        b.bne(probe, key, "miss")
        b.add(found, found, 1)
        b.label("miss")
        b.add(q, q, 1)
        b.blt(q, queries, "query")

        b.out(found)
        b.out(index_sum)
        b.out(low_third)
        b.out(q)
        b.halt()
        return b.build()

    def reference(self, scale: float = 1.0, seed: int = 0) -> Dict[str, float]:
        n = self.table_size(scale)
        queries = self.queries(scale)
        rng = Drand48(seed)
        table = [i * _STEP for i in range(n)]
        found = index_sum = low_third = 0
        for _ in range(queries):
            u = rng.uniform()
            if u < 1.0 / 3.0:
                low_third += 1
            key = int(u * n * _STEP)
            lo, hi = 0, n
            while lo < hi:
                mid = (lo + hi) >> 1
                if table[mid] < key:
                    lo = mid + 1
                else:
                    hi = mid
            index_sum += lo
            if lo < n and table[lo] == key:
                found += 1
        return {
            "found": found,
            "index_sum": index_sum,
            "hit_rate": found / queries,
        }

    def outputs(self, state) -> Dict[str, float]:
        found, index_sum, queries = (
            state.output()[0], state.output()[1], state.output()[3]
        )
        return {
            "found": found,
            "index_sum": index_sum,
            "hit_rate": found / queries,
        }

    def accuracy_error(self, baseline, candidate) -> float:
        return abs(
            candidate["index_sum"] - baseline["index_sum"]
        ) / max(1.0, abs(baseline["index_sum"]))
