"""Tests for the repro.sim Session/Sweep API and plugin registries."""

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from repro.core import PBSConfig
from repro.pipeline import four_wide
from repro.sim import (
    RunResult,
    RunSpec,
    Session,
    Sweep,
    baseline_predictors,
    create_predictor,
    get_workload,
    paper_workload_names,
    predictor_names,
    register_workload,
    workload_names,
)
from repro.sim import registry as sim_registry
from repro.workloads.base import Workload

SCALE = 0.05


class TestRegistry:
    def test_table_ii_order(self):
        assert paper_workload_names() == [
            "dop", "greeks", "swaptions", "genetic", "photon",
            "mc-integ", "pi", "bandit",
        ]
        # Ported corpus kernels list after the paper eight.
        assert workload_names() == paper_workload_names() + [
            "utf8", "psum", "bsearch",
        ]

    def test_unknown_workload_raises_with_listing(self):
        with pytest.raises(KeyError) as excinfo:
            get_workload("no-such-benchmark")
        message = str(excinfo.value)
        assert "no-such-benchmark" in message
        assert "pi" in message  # available names are listed

    def test_unknown_predictor_raises_with_listing(self):
        with pytest.raises(KeyError) as excinfo:
            create_predictor("no-such-predictor")
        assert "tournament" in str(excinfo.value)

    def test_baselines_are_the_papers_pair(self):
        assert baseline_predictors() == ("tournament", "tage-sc-l")
        assert set(baseline_predictors()) <= set(predictor_names())

    def test_workload_instances_are_shared(self):
        assert get_workload("pi") is get_workload("pi")

    def test_decorator_registration_and_override(self):
        pi_cls = sim_registry.workload_class("pi")
        try:
            @register_workload(order=99)
            class ProbeWorkload(pi_cls):
                name = "test-probe"

            assert "test-probe" in workload_names()
            assert workload_names()[-1] == "test-probe"
            assert isinstance(get_workload("test-probe"), ProbeWorkload)
        finally:
            sim_registry._WORKLOADS.pop("test-probe", None)
            sim_registry._WORKLOAD_INSTANCES.pop("test-probe", None)
        assert "test-probe" not in workload_names()

    def test_nameless_workload_rejected(self):
        with pytest.raises(ValueError):
            register_workload(type("Anon", (Workload,), {}))


class TestSession:
    def test_single_pass_fans_out_to_all_predictors(self):
        result = (
            Session("pi", scale=SCALE, seed=1)
            .predictors("tournament", "tage-sc-l")
            .run()
        )
        assert set(result.predictors) == {"tournament", "tage-sc-l"}
        assert result.instructions > 0
        assert result.predictor("tournament").mpki > 0
        assert result.outputs  # workload outputs captured
        assert not result.pbs and result.pbs_stats is None

    def test_pbs_mode_attaches_engine_stats(self):
        result = Session("pi", scale=SCALE, seed=1).pbs().run()
        assert result.pbs
        assert result.pbs_stats.instances > 0
        assert 0.0 < result.pbs_stats.hit_rate <= 1.0

    def test_timing_builds_cores(self):
        result = (
            Session("pi", scale=SCALE, seed=1)
            .predictors("tournament")
            .timing(four_wide)
            .run()
        )
        assert result.core("tournament").cycles > 0
        assert result.core("tournament").ipc > 0

    def test_harness_options_reach_the_harness(self):
        result = (
            Session("pi", scale=SCALE, seed=1)
            .predictor("tournament", label="shared")
            .predictor("tournament", label="filtered", filter_probabilistic=True)
            .run()
        )
        # The filtered harness charges probabilistic branches statically.
        assert result.predictor("filtered").prob_branches > 0

    def test_record_consumed(self):
        result = Session("pi", scale=SCALE, seed=1).record_consumed().run()
        assert result.consumed_values
        assert all(isinstance(v, float) for v in result.consumed_values)

    def test_json_round_trip(self):
        result = (
            Session("pi", scale=SCALE, seed=1)
            .predictors("tournament")
            .pbs(PBSConfig(inflight_depth=2))
            .run()
        )
        clone = RunResult.from_json(result.to_json())
        assert clone.predictor("tournament").mpki == result.predictor("tournament").mpki
        assert clone.pbs_stats.hit_rate == result.pbs_stats.hit_rate
        assert clone.pbs_config["inflight_depth"] == 2
        assert json.loads(result.to_json())["workload"] == "pi"


class TestSweep:
    GRID = dict(workloads=["pi"], scales=(SCALE,), seeds=(1, 2))

    def test_cache_miss_then_hit(self, tmp_path):
        first = Sweep(cache_dir=tmp_path, **self.GRID).run()
        assert (first.simulated, first.cache_hits) == (4, 0)
        second = Sweep(cache_dir=tmp_path, **self.GRID).run()
        assert (second.simulated, second.cache_hits) == (0, 4)
        for fresh, cached in zip(first, second):
            assert cached.cached and not fresh.cached
            assert fresh.to_json() == cached.to_json()

    def test_config_change_invalidates_cache(self, tmp_path):
        Sweep(cache_dir=tmp_path, **self.GRID).run()
        changed = Sweep(
            cache_dir=tmp_path,
            pbs_config=PBSConfig(inflight_depth=2),
            **self.GRID,
        ).run()
        # Base runs ignore the PBS config; only the pbs runs re-simulate.
        assert changed.simulated == 2
        assert changed.cache_hits == 2

    def test_parallel_matches_serial(self):
        serial = Sweep(**self.GRID).run(processes=1)
        parallel = Sweep(**self.GRID).run(processes=4)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            da, db = a.to_dict(), b.to_dict()
            da.pop("wall_time"), db.pop("wall_time")
            assert da == db

    def test_lookup_by_grid_coordinates(self):
        results = Sweep(**self.GRID).run()
        run = results.get(workload="pi", seed=2, mode="pbs")
        assert run.pbs and run.seed == 2
        assert len(results.select(mode="base")) == 2
        with pytest.raises(LookupError):
            results.get(workload="pi")  # ambiguous: four matches

    def test_spec_digest_distinguishes_configs(self):
        base = RunSpec(workload="pi", scale=SCALE, seed=1)
        assert base.digest() == RunSpec(workload="pi", scale=SCALE, seed=1).digest()
        assert base.digest() != RunSpec(workload="pi", scale=SCALE, seed=2).digest()
        assert base.digest() != RunSpec(workload="dop", scale=SCALE, seed=1).digest()


class TestRemovedShims:
    def test_mpki_pair_and_timed_matrix_are_gone(self):
        # Removed after a deprecation cycle (use Session / Session.timing).
        from repro.experiments import common

        assert not hasattr(common, "mpki_pair")
        assert not hasattr(common, "timed_matrix")
        assert "mpki_pair" not in common.__all__
        assert "timed_matrix" not in common.__all__

    def test_autopilot_subcommand_is_gone(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as exc:
            main(["autopilot", "pi"])
        assert exc.value.code == 2
        assert "invalid choice: 'autopilot'" in capsys.readouterr().err


class TestImportBoundary:
    def test_sim_runs_without_numpy_or_scipy(self):
        # repro.sim and the simulations it runs need neither numpy nor
        # scipy; only the statistics artefacts do.  A fresh interpreter
        # with both blocked must import the package, list every
        # registry and run a base and a PBS Session.
        script = textwrap.dedent("""
            import sys
            sys.modules["numpy"] = None
            sys.modules["scipy"] = None
            import repro.sim as sim
            for listing in (sim.workload_names, sim.predictor_names,
                            sim.executor_names, sim.engine_names):
                assert listing()
            base = sim.Session("pi").scale(0.01).run()
            pbs = sim.Session("pi").scale(0.01).pbs().run()
            assert not base.pbs and pbs.pbs
            loaded = sorted(
                name for name, module in sys.modules.items()
                if name.split(".")[0] in ("numpy", "scipy")
                and module is not None
            )
            assert not loaded, loaded
        """)
        self._run_blocked(script)

    def test_cli_imports_without_numpy_or_scipy(self):
        # pbs-experiments pays for numpy and scipy only when an artefact
        # computes statistics: the runner, every experiment module and
        # repro.stats itself import with both blocked.
        script = textwrap.dedent("""
            import sys
            sys.modules["numpy"] = None
            sys.modules["scipy"] = None
            import repro.experiments.runner as runner
            import repro.stats
            assert repro.stats.mean_interval and repro.stats.Interval
            assert runner.main(["list"]) == 0
            assert runner.main(["run", "table1", "--scale", "0.05"]) == 0
        """)
        self._run_blocked(script)

    def test_confidence_intervals_skip_scipy_stats(self):
        # The interval helpers need two quantile functions, which
        # scipy.special provides without scipy.stats' import cost.
        script = textwrap.dedent("""
            import sys
            from repro.stats import (
                count_interval, mean_interval, proportion_interval,
            )
            assert mean_interval([1.0, 2.0, 4.0]).low < 1.0
            assert 0.0 < proportion_interval(3, 7).low < 3 / 7
            assert count_interval([17, 19, 18], 19).high <= 19
            assert "scipy.stats" not in sys.modules, "scipy.stats loaded"
        """)
        self._run_blocked(script)

    @staticmethod
    def _run_blocked(script):
        src = str(Path(sim_registry.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
