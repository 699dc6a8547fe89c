"""A trace group's one run gives every spec exactly its solo result.

``run_specs`` runs the pending specs that share a committed path as one
engine run, with one harness per distinct (predictor, harness options)
and every core reading its harness.  Each spec's ``RunResult`` must
still equal what ``spec.session().run()`` returns alone: same bytes,
same predictor and core labels in the same order, and consumed values
only where the spec asked for them.
"""

import pytest

from repro.experiments.runner import EXPERIMENTS
from repro.pipeline import eight_wide, four_wide
from repro.sim import RunSpec, run_specs
from repro.sim.executors import trace_groups
from repro.sim.sweep import _core_config_to_dict

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover — hypothesis ships in CI
    HAVE_HYPOTHESIS = False

SCALE = 0.02
ARTEFACTS = ("figure7", "figure8", "figure9", "ablations", "table3")


def _comparable(result) -> dict:
    data = result.to_dict()
    data.pop("wall_time")
    return data


def _assert_solo_equal(specs, results):
    assert len(results) == len(specs)
    for spec, result in zip(specs, results):
        assert _comparable(result) == _comparable(spec.session().run()), spec


@pytest.fixture(scope="module")
def artefact_specs():
    unique = {}
    for key in ARTEFACTS:
        for spec in EXPERIMENTS[key].specs(SCALE, 1, None):
            unique.setdefault(spec.digest(), spec)
    specs = list(unique.values())
    # The artefacts share paths: most groups hold several specs.
    assert len(trace_groups(specs)) < len(specs) / 2
    return specs


@pytest.mark.parametrize("executor", ["serial", "pool"])
def test_artefact_specs_grouped_equal_solo(artefact_specs, executor):
    sweep = run_specs(artefact_specs, executor=executor, processes=2)
    _assert_solo_equal(artefact_specs, sweep.results)


def test_groups_key_on_path_engine_and_store():
    base = RunSpec("pi", scale=SCALE, seed=1, predictors=("gshare",))
    twins = [
        base,
        RunSpec("pi", scale=SCALE, seed=1, predictors=("bimodal",),
                harness_options={"filter_probabilistic": True}),
        RunSpec("pi", scale=SCALE, seed=1, record_consumed=True,
                timing=_core_config_to_dict(four_wide())),
    ]
    apart = [
        RunSpec("pi", scale=SCALE, seed=2),
        RunSpec("pi", scale=SCALE, seed=1, mode="pbs"),
        RunSpec("pi", scale=SCALE, seed=1, engine="interp"),
        RunSpec("pi", scale=SCALE, seed=1, trace_store="elsewhere"),
    ]
    assert trace_groups(twins + apart) == [[0, 1, 2], [3], [4], [5], [6]]
    # A partial PBS config that spells out the default joins the group.
    assert trace_groups([
        RunSpec("pi", mode="pbs"),
        RunSpec("pi", mode="pbs", pbs_config={"num_branches": 4}),
    ]) == [[0, 1]]


def test_serial_callbacks_arrive_group_by_group():
    specs = [
        RunSpec("pi", scale=SCALE, seed=seed, predictors=(predictor,))
        for predictor in ("gshare", "bimodal") for seed in (0, 1)
    ]
    order = []
    run_specs(specs, executor="serial",
              on_result=lambda spec, result: order.append(
                  (spec.seed, spec.predictors)))
    assert order == [(0, ("gshare",)), (0, ("bimodal",)),
                     (1, ("gshare",)), (1, ("bimodal",))]


if HAVE_HYPOTHESIS:
    TIMINGS = (None, _core_config_to_dict(four_wide()),
               _core_config_to_dict(eight_wide()))

    member = st.fixed_dictionaries({
        "predictors": st.lists(
            st.sampled_from(("gshare", "bimodal", "tournament")),
            max_size=2, unique=True,
        ).map(tuple),
        "harness_options": st.fixed_dictionaries({}, optional={
            "filter_probabilistic": st.booleans(),
            "pbs_inserts_history": st.booleans(),
        }),
        "timing": st.sampled_from(TIMINGS),
        "record_consumed": st.booleans(),
    })

    @settings(max_examples=15, deadline=None)
    @given(
        workload=st.sampled_from(("pi", "bandit")),
        mode=st.sampled_from(("base", "pbs")),
        members=st.lists(member, min_size=2, max_size=5),
    )
    @example(
        workload="pi", mode="base",
        members=[
            {"predictors": ("gshare",), "harness_options": {},
             "timing": None, "record_consumed": False},
            {"predictors": ("gshare",),
             "harness_options": {"filter_probabilistic": True},
             "timing": None, "record_consumed": False},
        ],
    )
    @example(
        workload="pi", mode="pbs",
        members=[
            {"predictors": ("tournament",), "harness_options": {},
             "timing": TIMINGS[1], "record_consumed": True},
            {"predictors": ("tournament",),
             "harness_options": {"pbs_inserts_history": False},
             "timing": TIMINGS[2], "record_consumed": False},
        ],
    )
    def test_one_group_mixing_consumers_equals_solo(workload, mode, members):
        specs = [
            RunSpec(workload, scale=SCALE, seed=3, mode=mode, **fields)
            for fields in members
        ]
        assert len(trace_groups(specs)) == 1
        _assert_solo_equal(specs, run_specs(specs, executor="serial").results)
