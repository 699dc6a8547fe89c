"""Whole-toolchain integration: compiler -> encoding -> simulation.

Exercises the full PBS deployment story on one program: an unmarked
kernel is auto-marked by the §V-B compiler pass, encoded to the §V-A2
binary format, decoded both PBS-aware and legacy, and simulated on the
timing model — asserting at each stage what the paper promises.
"""

import pytest

from repro.branch import TageSCL, Tournament
from repro.compiler import mark_probabilistic_branches
from repro.core import PBSEngine
from repro.functional import Executor
from repro.isa import assemble
from repro.isa.encoding import decode_program, encode_program
from repro.memory import Cache, MemoryHierarchy
from repro.pipeline import OoOCore, four_wide

KERNEL = """
; unmarked stochastic accumulation kernel with memory traffic
    li   r1, 0          ; i
    li   r2, 0          ; bin base
    fli  f3, 0.25       ; threshold
loop:
    rand f1
    cmp  lt, f1, f3
    jt   hit
    jmp  next
hit:
    fmul f2, f1, 4.0
    ftoi r3, f2
    load r4, r3
    add  r4, r4, 1
    store r4, r3
next:
    add  r1, r1, 1
    blt  r1, 3000, loop
    li   r3, 0
dump:
    load r4, r3
    out  r4
    add  r3, r3, 1
    blt  r3, 4, dump
    halt
"""


@pytest.fixture(scope="module")
def toolchain():
    source = assemble(KERNEL, "kernel", data_size=8)
    marked, report = mark_probabilistic_branches(source)
    encoded = encode_program(marked)
    return source, marked, report, encoded


class TestToolchain:
    def test_compiler_marks_exactly_the_random_branch(self, toolchain):
        _, marked, report, _ = toolchain
        assert report.converted == 1
        assert len(marked.probabilistic_branch_pcs()) == 1

    def test_marked_binary_runs_on_legacy_machine(self, toolchain):
        source, _, _, encoded = toolchain
        legacy = decode_program(encoded, pbs_aware=False)
        want = Executor(source, seed=3).run().output()
        got = Executor(legacy, seed=3).run().output()
        assert got == want

    def test_marked_binary_gets_pbs_on_aware_machine(self, toolchain):
        _, _, _, encoded = toolchain
        aware = decode_program(encoded, pbs_aware=True)
        engine = PBSEngine()
        Executor(aware, seed=3, pbs=engine).run()
        assert engine.stats.hit_rate > 0.95

    def test_full_timing_improvement(self, toolchain):
        source, _, _, encoded = toolchain
        aware = decode_program(encoded, pbs_aware=True)

        base_core = OoOCore(four_wide(), TageSCL())
        Executor(source, seed=3).run(sink=base_core)
        baseline = base_core.finalize()

        pbs_core = OoOCore(four_wide(), TageSCL())
        Executor(aware, seed=3, pbs=PBSEngine()).run(sink=pbs_core)
        with_pbs = pbs_core.finalize()

        assert with_pbs.mpki < 0.2 * baseline.mpki
        assert with_pbs.ipc > baseline.ipc
        assert with_pbs.cpi_stack(4)["branch"] < baseline.cpi_stack(4)["branch"]

    def test_outputs_statistically_preserved_under_pbs(self, toolchain):
        source, _, _, encoded = toolchain
        aware = decode_program(encoded, pbs_aware=True)
        base_bins = Executor(source, seed=3).run().output()
        pbs_bins = Executor(aware, seed=3, pbs=PBSEngine()).run().output()
        assert sum(base_bins) == pytest.approx(sum(pbs_bins), abs=10)

    def test_cache_traffic_recorded(self, toolchain):
        source, _, _, _ = toolchain
        hierarchy = MemoryHierarchy(
            l1=Cache("l1", 1024, ways=2, latency=4),
            l2=Cache("l2", 8192, ways=4, latency=12),
        )
        core = OoOCore(four_wide(), Tournament(), hierarchy=hierarchy)
        Executor(source, seed=3).run(sink=core)
        core.finalize()
        stats = hierarchy.stats()
        assert stats["l1_accesses"] > 0
        # The 8-word bin array fits one or two lines: almost all hits.
        assert stats["l1_miss_rate"] < 0.05
