"""Tests of the benchmark itself: its names, its tracer and its check.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import grids  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Smallest grid that still runs every workload at a valid scale.
TINY = grids.Grid("functional", 0.05, 1)


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_pass(tmp_path_factory):
    return grids.run_pass(TINY, 1, tmp_path_factory.mktemp("tiny"))


def _declared(contract, section):
    return {metric["name"]: metric["unit"] for metric in contract[section]}


def test_every_printed_name_is_declared(contract):
    untraced = [{"wall_s": 1.0, "instructions": 10, "peak_rss_mb": 50.0,
                 "host_factor": 1.0}]
    traced = [{**untraced[0],
               "layers": dict.fromkeys(tracing.METRICS, 1.0)}]
    printed = {
        "end_to_end": run.end_to_end(untraced, [{"setup_s": 1.0, "host_factor": 1.0}]),
        "per_layer": run.per_layer(untraced, traced),
    }
    units = {"end_to_end": run.END_TO_END, "per_layer": tracing.METRICS}
    for section, metrics in printed.items():
        declared = _declared(contract, section)
        assert set(metrics) == set(declared)
        for name in metrics:
            assert NAME.fullmatch(name), name
            assert units[section][name] == declared[name], name
    assert [w["name"] for w in contract["workloads"]] == list(grids.GRIDS)


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    trace = tracing.LayerTrace()
    points = trace.entry_points()
    originals = {
        (id(owner), name): vars(owner)[name]
        for owner, name, _ in points if name in vars(owner)
    }
    from repro.sim import executors

    execute_spec = executors._execute_spec
    grid = grids.GRIDS["trace-pool"]
    with trace:
        assert executors._execute_spec is not execute_spec
        record = grids.run_pass(grid, 1, tmp_path, trace)
    assert executors._execute_spec is execute_spec
    for owner, name, _ in points:
        if (id(owner), name) in originals:
            assert vars(owner)[name] is originals[(id(owner), name)], name
    layers = record["layers"]
    # Worker-side layers come back from the forked pool workers.
    assert layers["branch.tage-sc-l.consume_s"] > 0
    assert layers["trace.capture_s"] > 0 and layers["cache.hit_ratio"] == 0.5
    assert layers["pipeline.feed_s"] == 0


def test_the_unmodified_program_passes_its_check(tiny_pass):
    expect = checks.Expectations(TINY, 1, pins=None)
    assert expect.check(tiny_pass) == []


def test_a_wrong_pinned_digest_fails_the_spec(tiny_pass):
    digests = {key: entry["digest"] for key, entry in tiny_pass["results"].items()}
    wrong_key = next(iter(digests))
    digests[wrong_key] = "0" * 20
    pins = {"seed": 1, "grids": {TINY.name: {
        "scale": TINY.scale, "seeds_per_pass": TINY.seeds_per_pass,
        "digests": digests,
    }}}
    expect = checks.Expectations(TINY, 1, pins)
    assert expect.pin_status == "checked"
    failures = expect.check(tiny_pass)
    assert len(failures) == 1 and wrong_key in failures[0]


def test_a_perturbed_reference_output_fails_the_spec(tiny_pass):
    expect = checks.Expectations(TINY, 1, pins=None)
    reference = expect.references[("pi", 100)]
    name = next(iter(reference))
    reference[name] += 1
    failures = expect.check(tiny_pass)
    assert failures == ["functional pi|base|100: outputs differ from Workload.reference"]


def test_a_pass_that_differs_from_the_first_fails(tiny_pass):
    expect = checks.Expectations(TINY, 1, pins=None)
    assert expect.check(tiny_pass) == []
    changed = json.loads(json.dumps(tiny_pass))
    changed["results"]["pi|pbs|100"]["digest"] = "f" * 20
    assert len(expect.check(changed)) == 1


def test_pins_apply_only_to_the_pinned_seed_and_size():
    pins = checks.load_pins()
    other_seed = checks.Expectations(TINY, 2, pins)
    assert other_seed.pinned is None and "seed 2" in other_seed.pin_status
    resized = dataclasses.replace(grids.GRIDS["functional"], scale=0.05)
    assert checks.Expectations(resized, 1, pins).pinned is None


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "functional",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
