"""Tests for predication and CFD transforms (Table I)."""

import pytest

from repro.branch import Tournament
from repro.functional import Executor
from repro.pipeline import OoOCore, four_wide
from repro.transforms import (
    TABLE1,
    build_cfd,
    build_predicated,
    cfd_applicable,
    pbs_applicable,
    predication_applicable,
)
from repro.workloads import get_workload

SCALE = 0.1


class TestTable1:
    def test_all_eight_benchmarks_present(self):
        assert len(TABLE1) == 8

    def test_predication_fails_for_five(self):
        """Paper: "the GNU C compiler fails to if-convert the probabilistic
        branches for five of the eight benchmarks"."""
        assert sorted(predication_applicable()) == ["dop", "mc-integ", "pi"]

    def test_cfd_fails_for_three(self):
        assert sorted(cfd_applicable()) == [
            "dop", "genetic", "greeks", "mc-integ", "pi",
        ]

    def test_pbs_applies_everywhere(self):
        assert len(pbs_applicable()) == 8

    def test_reasons_recorded(self):
        for row in TABLE1.values():
            assert row.predication_reason
            assert row.cfd_reason


class TestPredicatedVariants:
    @pytest.mark.parametrize("name", ["pi", "mc-integ", "dop"])
    def test_bit_identical_outputs(self, name):
        workload = get_workload(name)
        original = workload.run(scale=SCALE, seed=3).outputs
        program = build_predicated(name, scale=SCALE)
        state = Executor(program, seed=3).run()
        predicated = workload.outputs(state)
        assert predicated == original

    @pytest.mark.parametrize("name", ["pi", "mc-integ", "dop"])
    def test_no_probabilistic_branch_remains(self, name):
        program = build_predicated(name, scale=SCALE)
        assert program.probabilistic_branch_pcs() == []

    def test_predicated_removes_the_hot_branch(self):
        """The predicated PI has strictly fewer static branches."""
        original = get_workload("pi").build(scale=SCALE)
        predicated = build_predicated("pi", scale=SCALE)
        assert (
            len(predicated.static_branch_pcs())
            < len(original.static_branch_pcs())
        )

    def test_inapplicable_raises(self):
        with pytest.raises(KeyError):
            build_predicated("photon")


class TestCfdVariants:
    @pytest.mark.parametrize("name", ["pi", "mc-integ", "dop", "greeks", "genetic"])
    def test_bit_identical_outputs(self, name):
        """CFD preserves semantics exactly (paper §IV: "CFD does not cause
        such a change, leaving the semantics of the code unchanged")."""
        workload = get_workload(name)
        original = workload.run(scale=SCALE, seed=3).outputs
        cfd = build_cfd(name, scale=SCALE)
        state = Executor(cfd.program, seed=3).run()
        transformed = workload.outputs(state)
        assert transformed == original

    @pytest.mark.parametrize("name", ["pi", "mc-integ", "dop", "greeks", "genetic"])
    def test_queue_branches_are_conditional_branches(self, name):
        cfd = build_cfd(name, scale=SCALE)
        assert cfd.queue_branch_pcs
        for pc in cfd.queue_branch_pcs:
            assert cfd.program.instructions[pc].is_conditional_branch

    @pytest.mark.parametrize("name", ["pi", "mc-integ", "dop", "greeks", "genetic"])
    def test_no_probabilistic_instructions(self, name):
        cfd = build_cfd(name, scale=SCALE)
        assert cfd.program.probabilistic_branch_pcs() == []

    def test_cfd_adds_instruction_overhead(self):
        """Paper §IV: CFD pays loop overhead plus push/pop operations."""
        workload = get_workload("pi")
        base = workload.run(scale=SCALE, seed=3)
        cfd = build_cfd("pi", scale=SCALE)
        executor = Executor(cfd.program, seed=3)
        executor.run()
        assert executor.retired > base.instructions

    def test_inapplicable_raises(self):
        with pytest.raises(KeyError):
            build_cfd("photon")
        with pytest.raises(KeyError):
            build_cfd("swaptions")
        with pytest.raises(KeyError):
            build_cfd("bandit")


class TestCfdTiming:
    def test_oracle_eliminates_queue_branch_misses(self):
        cfd = build_cfd("pi", scale=SCALE)

        def run(oracle):
            core = OoOCore(
                four_wide(),
                Tournament(),
                oracle_pcs=cfd.queue_branch_pcs if oracle else frozenset(),
            )
            Executor(cfd.program, seed=3).run(sink=core)
            return core.finalize()

        with_oracle = run(True)
        without = run(False)
        assert with_oracle.mpki < 0.2 * without.mpki
        assert with_oracle.ipc > without.ipc

    def test_cfd_beats_baseline_but_carries_overhead(self):
        """CFD removes the mispredicts but executes more instructions, so
        its cycle count sits between baseline and PBS (paper §II-B2)."""
        from repro.core import PBSEngine

        workload = get_workload("pi")
        scale = 0.25

        base_core = OoOCore(four_wide(), Tournament())
        workload.run(scale=scale, seed=3, sink=base_core)
        baseline = base_core.finalize()

        cfd = build_cfd("pi", scale=scale)
        cfd_core = OoOCore(
            four_wide(), Tournament(), oracle_pcs=cfd.queue_branch_pcs
        )
        Executor(cfd.program, seed=3).run(sink=cfd_core)
        cfd_stats = cfd_core.finalize()

        pbs_core = OoOCore(four_wide(), Tournament())
        workload.run(scale=scale, seed=3, pbs=PBSEngine(), sink=pbs_core)
        pbs_stats = pbs_core.finalize()

        assert cfd_stats.cycles < baseline.cycles
        assert pbs_stats.cycles < cfd_stats.cycles
