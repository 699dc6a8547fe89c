"""Tests for the registered benchmarks.

The first eight are the paper's Table II; the rest are ported kernels
(``paper = None``) that join the golden/differential corpus without
appearing in any paper table.

The heaviest guarantee here is *bit-exact cross-validation*: every ISA
program must produce exactly the outputs of its pure-Python reference for
the same seed, which validates the program, the assembler conventions and
the functional simulator against each other.
"""

import pytest

from repro.core import PBSConfig, PBSEngine
from repro.functional.trace import ProbMode
from repro.workloads import (
    all_workloads,
    get_workload,
    paper_workload_names,
    workload_names,
)
from repro.workloads.mc_integ import TRUE_INTEGRAL

from .events import Collector

SMALL = 0.08  # scale used for per-test runs (a few thousand instructions)

ALL_NAMES = workload_names()
PAPER_NAMES = paper_workload_names()
CORPUS_NAMES = [name for name in ALL_NAMES if name not in PAPER_NAMES]


class TestRegistry:
    def test_paper_order(self):
        assert PAPER_NAMES == [
            "dop", "greeks", "swaptions", "genetic",
            "photon", "mc-integ", "pi", "bandit",
        ]

    def test_corpus_kernels_list_after_paper(self):
        assert ALL_NAMES == PAPER_NAMES + ["utf8", "psum", "bsearch"]
        for name in CORPUS_NAMES:
            assert get_workload(name).paper is None

    def test_get_workload(self):
        assert get_workload("pi").name == "pi"

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("doom")

    def test_all_workloads_instances(self):
        assert len(all_workloads()) == len(ALL_NAMES) == 11


class TestPaperFacts:
    """Table II metadata of each benchmark."""

    @pytest.mark.parametrize(
        "name,prob,total,category",
        [
            ("dop", 2, 47, 1),
            ("greeks", 3, 50, 2),
            ("swaptions", 3, 309, 2),
            ("genetic", 2, 182, 1),
            ("photon", 2, 104, 2),
            ("mc-integ", 1, 39, 1),
            ("pi", 1, 45, 1),
            ("bandit", 1, 864, 1),
        ],
    )
    def test_table2_rows(self, name, prob, total, category):
        facts = get_workload(name).paper
        assert facts.prob_branches == prob
        assert facts.total_branches == total
        assert facts.category == category

    @pytest.mark.parametrize("name", PAPER_NAMES)
    def test_static_prob_branches_match_paper(self, name):
        """Our programs mark exactly the paper's probabilistic branches."""
        workload = get_workload(name)
        summary = workload.static_summary()
        assert summary["probabilistic_branches"] == workload.paper.prob_branches

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_probabilistic_minority_of_static_branches(self, name):
        summary = get_workload(name).static_summary()
        assert summary["probabilistic_branches"] < summary["total_branches"]


class TestReferenceCrossValidation:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_bit_exact_against_reference(self, name, seed):
        workload = get_workload(name)
        run = workload.run(scale=SMALL, seed=seed)
        reference = workload.reference(scale=SMALL, seed=seed)
        assert set(reference) <= set(run.outputs)
        for key, want in reference.items():
            assert run.outputs[key] == pytest.approx(want, abs=1e-9), key


class TestStatisticalSanity:
    def test_pi_estimate(self):
        outputs = get_workload("pi").run(scale=1.0, seed=2).outputs
        assert abs(outputs["pi"] - 3.14159) < 0.1

    def test_mc_integ_estimate(self):
        outputs = get_workload("mc-integ").run(scale=1.0, seed=2).outputs
        assert abs(outputs["integral"] - TRUE_INTEGRAL) < 0.03

    def test_dop_digital_prices_sum_below_discount(self):
        outputs = get_workload("dop").run(scale=0.5, seed=2).outputs
        # Call + put digital prices ~ discounted 1 (minus at-the-money tie).
        total = outputs["call_price"] + outputs["put_price"]
        assert 0.85 < total <= 1.0

    def test_greeks_delta_in_unit_range(self):
        outputs = get_workload("greeks").run(scale=0.5, seed=2).outputs
        assert 0.0 < outputs["delta"] < 1.0
        assert outputs["price"] > 0

    def test_bandit_learns_good_arm(self):
        outputs = get_workload("bandit").run(scale=0.5, seed=2).outputs
        # Random play yields ~0.425; epsilon-greedy should approach 0.8.
        assert outputs["average_reward"] > 0.6

    def test_photon_conservation(self):
        outputs = get_workload("photon").run(scale=0.3, seed=2).outputs
        absorbed = sum(v for k, v in outputs.items() if k.startswith("bin_"))
        total = outputs["reflected"] + outputs["transmitted"] + absorbed
        photons = get_workload("photon").photons(0.3)
        # Weight is lost to the WEIGHT_ABSORB decay and roulette kills,
        # never created.
        assert 0 < total <= photons

    def test_genetic_sometimes_succeeds(self):
        genetic = get_workload("genetic")
        successes = [
            genetic.run(scale=1.0, seed=seed).outputs["success"]
            for seed in range(6)
        ]
        assert 0 < sum(successes) <= 6


def run_with_pbs(name, scale, seed):
    """One run of workload ``name`` under the paper's PBS config, and
    the engine that handled it."""
    engine = PBSEngine(PBSConfig())
    return get_workload(name).run(scale=scale, seed=seed, pbs=engine), engine


class TestUnderPbs:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_high_hit_rate(self, name):
        _, engine = run_with_pbs(name, scale=0.25, seed=5)
        assert engine.stats.hit_rate > 0.80, engine.stats.as_dict()

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_no_fallbacks_at_paper_config(self, name):
        """The paper's 4-branch configuration suffices for all benchmarks."""
        _, engine = run_with_pbs(name, scale=0.25, seed=5)
        stats = engine.stats
        assert stats.const_mismatches == 0
        assert stats.capacity_rejects == 0
        assert stats.value_count_rejects == 0

    @pytest.mark.parametrize(
        "name,tolerance",
        [
            ("dop", 0.02),
            ("greeks", 0.02),
            ("swaptions", 0.03),
            ("mc-integ", 0.02),
            ("pi", 0.02),
            ("bandit", 0.08),
        ],
    )
    def test_accuracy_small(self, name, tolerance):
        workload = get_workload(name)
        base = workload.run(scale=0.5, seed=11)
        pbs, _ = run_with_pbs(name, scale=0.5, seed=11)
        error = workload.accuracy_error(base.outputs, pbs.outputs)
        assert error < tolerance

    def test_prob_events_marked(self):
        collector = Collector()
        get_workload("pi").run(scale=SMALL, seed=1, sink=collector)
        prob = [m for m in collector.batch.prob_modes if m != ProbMode.NOT_PROB]
        assert prob
        assert all(m == ProbMode.PREDICTED for m in prob)

    def test_dynamic_prob_share_is_minority(self):
        """Figure 1's left bar: probabilistic branches are a minority of
        dynamic branches for the loop-structured benchmarks."""
        for name in ("bandit", "genetic", "swaptions"):
            collector = Collector()
            get_workload(name).run(scale=SMALL, seed=1, sink=collector)
            branches = [e for e in collector.rows if e.is_cond_branch]
            prob = [e for e in branches if e.prob_mode != ProbMode.NOT_PROB]
            assert 0 < len(prob) < 0.5 * len(branches), name


class TestDeterminism:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_same_seed_same_outputs(self, name):
        workload = get_workload(name)
        first = workload.run(scale=SMALL, seed=9).outputs
        second = workload.run(scale=SMALL, seed=9).outputs
        assert first == second

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_pbs_deterministic_replay(self, name):
        first = run_with_pbs(name, scale=SMALL, seed=9)[0].outputs
        second = run_with_pbs(name, scale=SMALL, seed=9)[0].outputs
        assert first == second
