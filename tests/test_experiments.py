"""Tests for the experiment harnesses (shape checks at tiny scale).

These assert the *qualitative* claims each paper artefact makes — the
acceptance criteria in DESIGN.md — using reduced workload scales so the
whole file runs in tens of seconds.
"""

import json

from repro.experiments import (
    ablations,
    accuracy,
    figure1,
    figure6,
    figure7,
    figure8,
    figure9,
    table1,
    table2,
    table3,
)
from repro.experiments import runner
from repro.sim import executors

SCALE = 0.1
FAST_NAMES = ["pi", "dop"]


class TestCommon:
    def test_render_produces_table(self):
        result = figure1.run(scale=SCALE, names=["pi"])
        text = result.render()
        assert "Figure 1" in text
        assert "pi" in text

    def test_column_access(self):
        result = figure1.run(scale=SCALE, names=FAST_NAMES)
        assert len(result.column("benchmark")) == 2


class TestFigure1:
    def test_prob_branches_dominate_mispredictions(self):
        result = figure1.run(scale=SCALE, names=["pi", "mc-integ"])
        for row in result.rows:
            assert row["tournament_miss_share_%"] > row["prob_branch_share_%"]
            assert row["tagescl_miss_share_%"] > row["prob_branch_share_%"]

    def test_prob_share_of_branches_below_100(self):
        result = figure1.run(scale=SCALE, names=["bandit"])
        share = result.rows[0]["prob_branch_share_%"]
        assert 0 < share < 50


class TestFigure6:
    def test_mpki_reduced_for_prob_dominated_benchmarks(self):
        result = figure6.run(scale=SCALE, names=["pi", "dop"])
        for row in result.rows[:-1]:  # skip the average row
            assert row["tournament_reduction_%"] > 90
            assert row["tagescl_reduction_%"] > 90

    def test_average_row_present(self):
        result = figure6.run(scale=SCALE, names=["pi"])
        assert result.rows[-1]["benchmark"] == "average"


class TestFigure7:
    def test_pbs_improves_ipc(self):
        result = figure7.run(scale=SCALE, names=FAST_NAMES)
        for row in result.rows[:-1]:
            assert row["ipc_tournament+pbs"] > row["ipc_tournament"]
            assert row["ipc_tage-sc-l+pbs"] > row["ipc_tage-sc-l"]

    def test_tournament_plus_pbs_beats_plain_tagescl(self):
        """The paper's return-on-investment argument (Figure 7)."""
        result = figure7.run(scale=SCALE, names=FAST_NAMES)
        geomean = result.rows[-1]
        assert geomean["norm_tournament+pbs"] > geomean["norm_tage-sc-l"]


class TestFigure9:
    def test_runs_and_reports_bounded_values(self):
        result = figure9.run(
            scale=SCALE, seeds=(0, 1), names=["genetic"], include_tagescl=False
        )
        value = result.rows[0]["tournament_increase_%"]
        assert -50 < value < 100


class TestTable1:
    def test_positive_entries_verified(self):
        result = table1.run(verify=True)
        for row in result.rows:
            assert "DIVERGES" not in row["predication"]
            assert "DIVERGES" not in row["cfd"]
            assert row["pbs"] == "yes"

    def test_negative_entries_have_reasons(self):
        result = table1.run(verify=False)
        negatives = [
            row for row in result.rows if row["predication"].startswith("no")
        ]
        assert len(negatives) == 5


class TestTable2:
    def test_all_benchmarks_listed(self):
        result = table2.run(scale=SCALE)
        assert len(result.rows) == 8

    def test_prob_counts_match_paper(self):
        result = table2.run(scale=SCALE)
        for row in result.rows:
            ours = row["prob/total (ours)"].split("/")[0]
            paper = row["prob/total (paper)"].split("/")[0]
            assert ours == paper


class TestTable3:
    def test_intervals_overlap(self):
        result = table3.run(scale=SCALE, seeds=(0, 1, 2), names=["genetic"])
        assert result.rows[0]["CIs overlap"] == "yes"


class TestAccuracy:
    def test_monte_carlo_benchmarks_ok(self):
        result = accuracy.run(scale=0.2, seeds=(0, 1), names=["pi", "dop"])
        for row in result.rows:
            assert row["verdict"].startswith("ok"), row


class TestAblations:
    def test_depth_sweep_monotone_bootstraps(self):
        result = ablations.inflight_depth_sweep(
            scale=SCALE, depths=(1, 4, 8)
        )
        bootstraps = result.column("bootstraps")
        assert bootstraps == sorted(bootstraps)

    def test_capacity_sweep_greeks_needs_three(self):
        result = ablations.capacity_sweep(scale=SCALE, capacities=(1, 3))
        small, enough = result.rows
        assert enough["hit_rate"] > small["hit_rate"]
        assert enough["capacity_rejects"] == 0

    def test_technique_comparison_pbs_beats_baseline(self):
        result = ablations.technique_comparison(scale=SCALE, names=["pi"])
        row = result.rows[0]
        assert row["pbs_cycles"] < row["baseline_cycles"]
        assert row["cfd_cycles"] < row["baseline_cycles"]

    def test_history_insertion_never_hurts_much(self):
        result = ablations.history_insertion(scale=SCALE, names=["bandit"])
        row = result.rows[0]
        assert row["pbs_mpki_with_insert"] <= row["pbs_mpki_without_insert"] * 1.2


class TestRunCommand:
    """``pbs-experiments run`` executes every artefact's specs as one
    sweep; its output must not depend on the cache or the executor."""

    SCALE = 0.02
    NAMES = ["pi", "dop"]

    def _run_all(self, capsys, monkeypatch, cache_dir, *extra):
        calls = []
        execute = executors._execute_spec

        def counting(spec):
            calls.append(spec)
            return execute(spec)

        monkeypatch.setattr(executors, "_execute_spec", counting)
        argv = ["run", "all", "--scale", str(self.SCALE),
                "--names", ",".join(self.NAMES), "--json",
                "--cache-dir", str(cache_dir), *extra]
        assert runner.main(argv) == 0
        return capsys.readouterr().out, len(calls)

    def _standalone(self):
        """Every artefact's own ``run(...)``, in the runner's order."""
        scale, names = self.SCALE, self.NAMES
        outcomes = {
            "figure1": figure1.run(scale=scale, names=names),
            "table1": table1.run(names=names),
            "table2": table2.run(scale=scale, names=names),
            "figure6": figure6.run(scale=scale, names=names),
            "figure7": figure7.run(scale=scale, names=names),
            "figure8": figure8.run(scale=scale, names=names),
            "figure9": figure9.run(scale=scale, names=names),
            "table3": table3.run(scale=scale, names=names),
            "accuracy": accuracy.run(scale=scale, names=names),
            "ablations": ablations.run(scale=scale),
        }
        assert list(outcomes) == list(runner.EXPERIMENTS)
        return [
            {"experiment": key, **result.to_dict()}
            for key, outcome in outcomes.items()
            for result in (outcome if isinstance(outcome, list) else [outcome])
        ]

    def test_cold_warm_and_pooled_runs_print_the_same_tables(
        self, capsys, monkeypatch, tmp_path
    ):
        cold, cold_calls = self._run_all(capsys, monkeypatch, tmp_path / "a")
        warm, warm_calls = self._run_all(capsys, monkeypatch, tmp_path / "a")
        pooled, _ = self._run_all(
            capsys, monkeypatch, tmp_path / "b", "--processes", "2"
        )
        assert cold_calls > 0
        assert warm_calls == 0  # every spec came from the cache
        assert cold == warm == pooled
        assert cold == json.dumps(self._standalone(), indent=2) + "\n"
