"""The golden-result regression corpus.

``tests/golden/`` holds checked-in canonical :class:`RunResult` JSON
fixtures for a small, fixed-seed, representative workload × predictor
grid.  Every registered executor backend — including ``http``, driven
against an in-process coordinator and worker — is replayed against
these fixtures and must reproduce them **byte for byte** (wall time,
the one non-deterministic field, is normalized to ``0.0`` on both
sides).

Regenerate after an *intentional* simulation-semantics change with::

    PYTHONPATH=src python -m tests.golden.regen

and commit the diff; an unintentional diff is a regression.
"""

import json
from dataclasses import replace
from pathlib import Path
from typing import List

from repro.pipeline import four_wide
from repro.sim import RunSpec

GOLDEN_DIR = Path(__file__).resolve().parent

MANIFEST_PATH = GOLDEN_DIR / "specs.json"

#: Small enough that the whole corpus simulates in a few seconds, large
#: enough for every predictor to leave warm-up.
GOLDEN_SCALE = 0.02

#: The paper's two baseline predictors, pinned explicitly so registry
#: default changes cannot silently rewrite what the fixtures mean.
GOLDEN_PREDICTORS = ("tournament", "tage-sc-l")


def golden_specs() -> List[RunSpec]:
    """The canonical grid: untimed base/pbs points plus timed runs."""
    specs = [
        RunSpec(
            workload=workload,
            scale=GOLDEN_SCALE,
            seed=seed,
            mode=mode,
            predictors=GOLDEN_PREDICTORS,
        )
        for workload, seed in (
            ("pi", 1), ("dop", 1), ("mc-integ", 2),
            # Ported branchy kernels (not in any paper table) pin the
            # DFA / scan / search control-flow shapes.
            ("utf8", 1), ("psum", 1), ("bsearch", 1),
        )
        for mode in ("base", "pbs")
    ]
    # Timed runs pin the OoO core's branch arms: plain prediction, PBS
    # hits (never mispredict), and Figure 9's filtered static prediction.
    for mode, harness_options in (
        ("base", {}),
        ("pbs", {}),
        ("base", {"filter_probabilistic": True}),
    ):
        specs.append(
            RunSpec(
                workload="pi",
                scale=GOLDEN_SCALE,
                seed=1,
                mode=mode,
                predictors=GOLDEN_PREDICTORS,
                harness_options=harness_options,
                timing=_four_wide_dict(),
            )
        )
    return specs


def _four_wide_dict():
    from repro.sim.sweep import _core_config_to_dict

    return _core_config_to_dict(four_wide())


def fixture_name(spec: RunSpec) -> str:
    timed = "-timed" if spec.timing is not None else ""
    filtered = (
        "-filtered" if spec.harness_options.get("filter_probabilistic") else ""
    )
    return f"{spec.workload}-{spec.mode}-seed{spec.seed}{timed}{filtered}.json"


#: The CFD ablation's timed cores.  A Session cannot express
#: ``oracle_pcs`` (queue branches resolved at fetch), so this fixture
#: pins the core's stats for every CFD-transformed workload directly.
CFD_ORACLE_FIXTURE = "cfd-oracle-timed.json"


def cfd_oracle_json() -> str:
    """Each CFD program on the 4-wide core, per golden predictor, as
    fixture JSON.  (CFD removes the probabilistic branches, so the
    filter option has nothing to act on here.)"""
    from repro.functional import Executor
    from repro.pipeline import OoOCore
    from repro.sim.registry import create_predictor
    from repro.transforms import build_cfd, cfd_applicable

    rows = []
    for name in cfd_applicable():
        cfd = build_cfd(name, scale=GOLDEN_SCALE)
        for predictor in GOLDEN_PREDICTORS:
            core = OoOCore(
                four_wide(),
                create_predictor(predictor),
                oracle_pcs=cfd.queue_branch_pcs,
            )
            Executor(cfd.program, seed=1).run(sink=core)
            stats = core.finalize()
            row = {"workload": name}
            row.update(stats.as_dict())
            row["branch_stall_cycles"] = stats.branch_stall_cycles
            rows.append(row)
    return json.dumps(rows, indent=2) + "\n"


def normalized_json(result) -> str:
    """The byte-exact fixture form: wall time zeroed, 2-space indent."""
    return replace(result, wall_time=0.0).to_json(indent=2) + "\n"
