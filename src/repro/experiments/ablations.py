"""Ablation studies beyond the paper's headline figures.

Four design-choice sweeps DESIGN.md calls out:

* **technique** — PBS vs CFD vs predication cycle counts on the
  benchmarks where all (or both) apply, quantifying §II-B's argument that
  the prior techniques pay instruction overhead where PBS does not;
* **inflight depth** — bootstrap length vs hit rate and accuracy;
* **capacity** — Prob-BTB entries vs hit rate on the 3-branch Greeks;
* **context support** — §V-C1's context tracking on vs off.

Each study is a spec list plus the function that tables its results;
the studies vary ``pbs_config``, ``harness_options`` or ``timing``.
Only the predication/CFD program variants still drive the Executor
directly (they run transformed programs, not registered workloads).
"""

from __future__ import annotations

import functools
from dataclasses import asdict, replace
from typing import Callable, List, Sequence, Tuple

from ..branch import Tournament
from ..core import PBSConfig
from ..functional import Executor
from ..pipeline import OoOCore, four_wide
from ..sim import RunSpec, Sweep, get_workload
from ..transforms import build_cfd, build_predicated, cfd_applicable
from .common import DEFAULT_SCALE, DEFAULT_SEED, ExperimentResult, Names, Runs, simulate

TECH_TITLE = "Ablation: PBS vs CFD vs predication (cycles, 4-wide, tournament)"
DEPTH_TITLE = "Ablation: PBS in-flight depth"
CAPACITY_TITLE = "Ablation: Prob-BTB capacity (greeks: 3 prob branches)"
CONTEXT_TITLE = "Ablation: context support on/off"
HISTORY_TITLE = "Ablation: PBS history insertion on/off"

#: The predictor-quality spectrum of :func:`predictor_sweep`, worst to
#: best (all resolved through the repro.sim predictor registry).
PREDICTOR_SPECTRUM = (
    "bimodal", "gshare", "local", "perceptron", "tournament", "tage-sc-l",
)

#: A study's plan: its specs, and the function that tables their results.
Study = Tuple[List[RunSpec], Callable[[Runs], ExperimentResult]]


def _study(plan: Callable[..., Study]) -> Callable[..., ExperimentResult]:
    """Make a study's plan its own entry point: calling the study runs
    the plan's specs and returns the table.  The plan itself stays
    reachable as ``.plan``, for :func:`specs` and :func:`reduce`."""

    @functools.wraps(plan)
    def conduct(*args, **kwargs) -> ExperimentResult:
        study_specs, table = plan(*args, **kwargs)
        return table(simulate(study_specs))

    conduct.plan = plan
    return conduct


def _pbs(name: str, scale: float, seed: int, **config) -> RunSpec:
    """A PBS run of ``name`` with a non-default :class:`PBSConfig`."""
    return RunSpec(
        name, scale=scale, seed=seed, mode="pbs",
        pbs_config=asdict(PBSConfig(**config)),
    )


@_study
def technique_comparison(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                         names: Names = None):
    names = list(names or cfd_applicable())
    # Baseline and PBS cycles on the 4-wide tournament core.
    timed = Sweep(
        workloads=names, scales=(scale,), seeds=(seed,),
        predictors=("tournament",), timing=four_wide,
    ).specs()

    def table(runs: Runs) -> ExperimentResult:
        result = ExperimentResult(
            TECH_TITLE,
            columns=[
                "benchmark", "baseline_cycles", "predication_cycles",
                "cfd_cycles", "pbs_cycles", "pbs_speedup",
            ],
            paper_claim=(
                "CFD incurs loop and push/pop overhead over PBS; predication "
                "trades the branch for data dependences (§II-B, §IV)"
            ),
        )
        cycles = {
            (spec.workload, spec.mode): runs[spec].core("tournament").cycles
            for spec in timed
        }
        for name in names:
            try:
                program = build_predicated(name, scale=scale)
                pred_core = OoOCore(four_wide(), Tournament())
                Executor(program, seed=seed).run(sink=pred_core)
                predication = pred_core.finalize().cycles
            except KeyError:
                predication = "n/a"

            cfd = build_cfd(name, scale=scale)
            cfd_core = OoOCore(
                four_wide(), Tournament(), oracle_pcs=cfd.queue_branch_pcs
            )
            Executor(cfd.program, seed=seed).run(sink=cfd_core)
            cfd_cycles = cfd_core.finalize().cycles

            baseline = cycles[name, "base"]
            pbs_cycles = cycles[name, "pbs"]
            result.add_row(
                benchmark=name,
                baseline_cycles=baseline,
                predication_cycles=predication,
                cfd_cycles=cfd_cycles,
                pbs_cycles=pbs_cycles,
                pbs_speedup=baseline / pbs_cycles,
            )
        return result

    return timed, table


@_study
def inflight_depth_sweep(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                         name: str = "pi", depths: Sequence[int] = (1, 2, 4, 8, 16)):
    baseline = RunSpec(name, scale=scale, seed=seed)
    pbs = [_pbs(name, scale, seed, inflight_depth=depth) for depth in depths]

    def table(runs: Runs) -> ExperimentResult:
        result = ExperimentResult(
            DEPTH_TITLE,
            columns=["depth", "hit_rate", "bootstraps", "accuracy_error"],
            paper_claim=(
                "the paper evaluates 4 outstanding in-flight branches; deeper "
                "queues lengthen bootstrap and the replay lag"
            ),
        )
        workload = get_workload(name)
        outputs = runs[baseline].outputs
        for depth, spec in zip(depths, pbs):
            run = runs[spec]
            result.add_row(
                depth=depth,
                hit_rate=run.pbs_stats.hit_rate,
                bootstraps=run.pbs_stats.bootstraps,
                accuracy_error=workload.accuracy_error(outputs, run.outputs),
            )
        result.add_note(f"benchmark: {name}")
        return result

    return [baseline, *pbs], table


@_study
def capacity_sweep(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                   name: str = "greeks", capacities: Sequence[int] = (1, 2, 3, 4, 8)):
    pbs = [
        _pbs(name, scale, seed, num_branches=capacity,
             swap_entries=max(capacity, 1))
        for capacity in capacities
    ]

    def table(runs: Runs) -> ExperimentResult:
        result = ExperimentResult(
            CAPACITY_TITLE,
            columns=["prob_btb_entries", "hit_rate", "capacity_rejects",
                     "evictions_ok"],
            paper_claim=(
                "four Prob-BTB entries suffice for all studied benchmarks "
                "(§V-C2); fewer entries force fallback to regular prediction"
            ),
        )
        for capacity, spec in zip(capacities, pbs):
            stats = runs[spec].pbs_stats
            result.add_row(
                prob_btb_entries=capacity,
                hit_rate=stats.hit_rate,
                capacity_rejects=stats.capacity_rejects,
                evictions_ok="yes" if stats.hit_rate > 0 else "no",
            )
        result.add_note(f"benchmark: {name}")
        return result

    return pbs, table


@_study
def context_support(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                    names: Sequence[str] = ("genetic", "photon", "bandit")):
    pairs = [
        (_pbs(name, scale, seed, context_support=True),
         _pbs(name, scale, seed, context_support=False))
        for name in names
    ]

    def table(runs: Runs) -> ExperimentResult:
        result = ExperimentResult(
            CONTEXT_TITLE,
            columns=["benchmark", "hit_rate_with", "hit_rate_without",
                     "flushes_with"],
            paper_claim=(
                "context tracking scopes entries to the two innermost loops "
                "and flushes on loop exit (§V-C1); disabling it removes "
                "re-bootstraps but risks cross-context value reuse"
            ),
        )
        for name, (with_ctx, without_ctx) in zip(names, pairs):
            with_stats = runs[with_ctx].pbs_stats
            result.add_row(
                benchmark=name,
                hit_rate_with=with_stats.hit_rate,
                hit_rate_without=runs[without_ctx].pbs_stats.hit_rate,
                flushes_with=with_stats.loop_flushes,
            )
        return result

    return [spec for pair in pairs for spec in pair], table


@_study
def predictor_sweep(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                    name: str = "photon"):
    """PBS benefit across the whole predictor quality spectrum.

    The paper's observation that "as modern predictors improve ...
    probabilistic branches become even more critical" implies PBS's
    *relative* value is orthogonal to predictor quality: no amount of
    prediction hardware reaches the entropy floor PBS removes.
    """
    # One base pass and one PBS pass, each fanning the trace out to all
    # six predictors at once (harnesses are independent consumers).
    base = RunSpec(name, scale=scale, seed=seed, predictors=PREDICTOR_SPECTRUM)
    pbs = replace(base, mode="pbs")

    def table(runs: Runs) -> ExperimentResult:
        result = ExperimentResult(
            "Ablation: predictor sweep (MPKI with/without PBS)",
            columns=["predictor", "mpki_base", "mpki_pbs", "reduction_%"],
            paper_claim=(
                "probabilistic misses survive every predictor (Figure 1's "
                "trend); PBS removes them regardless of baseline quality"
            ),
        )
        for label in PREDICTOR_SPECTRUM:
            base_mpki = runs[base].predictor(label).mpki
            pbs_mpki = runs[pbs].predictor(label).mpki
            result.add_row(
                predictor=label,
                mpki_base=base_mpki,
                mpki_pbs=pbs_mpki,
                **{"reduction_%": 100.0 * (base_mpki - pbs_mpki) / base_mpki
                   if base_mpki else 0.0},
            )
        result.add_note(f"benchmark: {name}")
        return result

    return [base, pbs], table


@_study
def history_insertion(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                      names: Sequence[str] = ("bandit", "genetic", "swaptions")):
    """Our extension beyond the paper: PBS-known directions can be
    shifted into the predictor's global history for free.  Without it,
    regular branches that correlate with a probabilistic branch lose
    their history signal and PBS's MPKI win shrinks or inverts."""
    def trio(name: str) -> Tuple[RunSpec, RunSpec, RunSpec]:
        base = RunSpec(name, scale=scale, seed=seed, predictors=("tage-sc-l",))
        with_insert = replace(
            base, mode="pbs", harness_options={"pbs_inserts_history": True}
        )
        without = replace(
            with_insert, harness_options={"pbs_inserts_history": False}
        )
        return base, with_insert, without

    def table(runs: Runs) -> ExperimentResult:
        result = ExperimentResult(
            HISTORY_TITLE,
            columns=[
                "benchmark", "base_mpki",
                "pbs_mpki_with_insert", "pbs_mpki_without_insert",
            ],
            paper_claim=(
                "not in the paper: history insertion preserves the "
                "correlation signal probabilistic branches feed into "
                "history-based predictors"
            ),
        )
        for name in names:
            base, with_insert, without = (
                runs[spec].predictor("tage-sc-l").mpki for spec in trio(name)
            )
            result.add_row(
                benchmark=name,
                base_mpki=base,
                pbs_mpki_with_insert=with_insert,
                pbs_mpki_without_insert=without,
            )
        return result

    return [spec for name in names for spec in trio(name)], table


#: The studies of :func:`run`, in table order.
STUDIES = (
    technique_comparison, inflight_depth_sweep, capacity_sweep,
    context_support, history_insertion, predictor_sweep,
)


def _studies(scale: float, seed: int) -> List[Study]:
    """All six plans at their default benchmarks."""
    return [study.plan(scale, seed) for study in STUDIES]


def specs(scale: float, seed: int = DEFAULT_SEED, names: Names = None) -> List[RunSpec]:
    return [spec for study_specs, _ in _studies(scale, seed) for spec in study_specs]


def reduce(runs: Runs, scale: float, seed: int = DEFAULT_SEED,
           names: Names = None) -> List[ExperimentResult]:
    return [table(runs) for _, table in _studies(scale, seed)]


def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED) -> List[ExperimentResult]:
    """All six ablations, as a list of ExperimentResults."""
    return reduce(simulate(specs(scale, seed)), scale, seed)
