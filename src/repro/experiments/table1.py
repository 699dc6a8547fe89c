"""Table I: applicability of predication and CFD.

The static analysis lives in :mod:`repro.transforms.analysis`; this
experiment additionally *proves* the positive entries by building each
applicable variant and checking it runs to the same outputs.
"""

from __future__ import annotations

from typing import List

from ..functional import Executor
from ..sim import RunSpec, get_workload, paper_workload_names
from ..transforms import TABLE1, build_cfd, build_predicated
from .common import ExperimentResult, Names, Runs, simulate

TITLE = "Table I: can predication / CFD be applied?"
PAPER_CLAIM = (
    "predication fails for five of eight benchmarks (if-conversion), CFD "
    "for three (non-inlinable calls, loop-carried dependences); PBS "
    "applies to all eight"
)

VERIFY_SCALE = 0.05
VERIFY_SEED = 2


def _original(name: str) -> RunSpec:
    """The unmodified benchmark the variants must match."""
    return RunSpec(name, scale=VERIFY_SCALE, seed=VERIFY_SEED)


def _verify_variant(kind: str, name: str, runs: Runs) -> str:
    """Build + run the variant; compare outputs with the original."""
    original = runs[_original(name)].outputs
    if kind == "predication":
        program = build_predicated(name, scale=VERIFY_SCALE)
    else:
        program = build_cfd(name, scale=VERIFY_SCALE).program
    state = Executor(program, seed=VERIFY_SEED).run()
    outputs = get_workload(name).outputs(state)
    return "yes (verified)" if outputs == original else "yes (DIVERGES!)"


def specs(scale=None, seed=None, names: Names = None, verify: bool = True) -> List[RunSpec]:
    """The originals to verify against; the table ignores ``scale`` and
    ``seed`` (verification runs at :data:`VERIFY_SCALE`)."""
    if not verify:
        return []
    rows = ((name, TABLE1[name]) for name in names or paper_workload_names())
    return [_original(name) for name, row in rows if row.predication or row.cfd]


def reduce(runs: Runs, scale=None, seed=None, names: Names = None,
           verify: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        TITLE,
        columns=["benchmark", "predication", "cfd", "pbs"],
        paper_claim=PAPER_CLAIM,
    )
    for name in names or paper_workload_names():
        row = TABLE1[name]
        if row.predication:
            predication = _verify_variant("predication", name, runs) if verify else "yes"
        else:
            predication = f"no ({row.predication_reason})"
        if row.cfd:
            cfd = _verify_variant("cfd", name, runs) if verify else "yes"
        else:
            cfd = f"no ({row.cfd_reason})"
        result.add_row(benchmark=name, predication=predication, cfd=cfd, pbs="yes")
    return result


def run(verify: bool = True, names: Names = None) -> ExperimentResult:
    return reduce(simulate(specs(names=names, verify=verify)), names=names, verify=verify)
