"""Figure 7: normalized IPC on the 4-wide core.

The paper's headline performance result: adding PBS improves IPC by 9.0%
on average (up to 26%) over the tournament predictor and by 6.7% (up to
17%) over TAGE-SC-L — and the tournament predictor *with* PBS outperforms
TAGE-SC-L *without* it.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..pipeline import CoreConfig, four_wide
from ..sim import RunSpec, Sweep, paper_workload_names
from .common import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    ExperimentResult,
    Names,
    Runs,
    geometric_mean,
    simulate,
)

TITLE = "Figure 7: normalized IPC, 4-wide out-of-order core"
PAPER_CLAIM = (
    "PBS improves IPC by 9.0% avg (up to 26%) over tournament and 6.7% avg "
    "(up to 17%) over TAGE-SC-L; tournament+PBS beats plain TAGE-SC-L"
)

CONFIG_KEYS = ("tournament", "tage-sc-l", "tournament+pbs", "tage-sc-l+pbs")


def ipc_specs(
    core: Callable[[], CoreConfig], scale: float, seed: int, names: Names
) -> List[RunSpec]:
    """Both predictors inside a ``core()`` timing core, base and PBS."""
    return Sweep(
        workloads=names or paper_workload_names(),
        scales=(scale,),
        seeds=(seed,),
        predictors=("tournament", "tage-sc-l"),
        timing=core,
    ).specs()


def ipc_table(
    runs: Runs, grid: Sequence[RunSpec], title: str, paper_claim: str
) -> ExperimentResult:
    """The normalized-IPC table over :func:`ipc_specs` results."""
    result = ExperimentResult(
        title,
        columns=["benchmark"] + [f"ipc_{key}" for key in CONFIG_KEYS]
        + ["norm_tage-sc-l", "norm_tournament+pbs", "norm_tage-sc-l+pbs"],
        paper_claim=paper_claim,
    )
    by_point = {(spec.workload, spec.mode): runs[spec] for spec in grid}
    normalized = {key: [] for key in CONFIG_KEYS}
    for name in dict.fromkeys(spec.workload for spec in grid):
        ipcs = {}
        for mode, suffix in (("base", ""), ("pbs", "+pbs")):
            run_result = by_point[name, mode]
            for pname in ("tournament", "tage-sc-l"):
                ipcs[pname + suffix] = run_result.core(pname).ipc
        baseline_ipc = ipcs["tournament"]
        row = {"benchmark": name}
        for key in CONFIG_KEYS:
            ipc = ipcs[key]
            row[f"ipc_{key}"] = ipc
            normalized[key].append(ipc / baseline_ipc if baseline_ipc else 0.0)
        row["norm_tage-sc-l"] = normalized["tage-sc-l"][-1]
        row["norm_tournament+pbs"] = normalized["tournament+pbs"][-1]
        row["norm_tage-sc-l+pbs"] = normalized["tage-sc-l+pbs"][-1]
        result.add_row(**row)

    result.add_row(
        benchmark="geomean",
        **{
            "norm_tage-sc-l": geometric_mean(normalized["tage-sc-l"]),
            "norm_tournament+pbs": geometric_mean(normalized["tournament+pbs"]),
            "norm_tage-sc-l+pbs": geometric_mean(normalized["tage-sc-l+pbs"]),
        },
    )
    result.add_note("IPC normalized to the tournament predictor baseline")
    return result


def specs(scale: float, seed: int = DEFAULT_SEED, names: Names = None) -> List[RunSpec]:
    return ipc_specs(four_wide, scale, seed, names)


def reduce(runs: Runs, scale: float, seed: int = DEFAULT_SEED,
           names: Names = None) -> ExperimentResult:
    return ipc_table(runs, specs(scale, seed, names), TITLE, PAPER_CLAIM)


def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
        names: Names = None) -> ExperimentResult:
    return reduce(simulate(specs(scale, seed, names)), scale, seed, names)
