"""The benchmark's four workloads: paper-shaped grids over ``repro.sim``.

Every workload drives the public API from one process in a closed loop:
the next spec starts only when the previous one returns.  A pass is one
walk over the workload's grid; :func:`run_pass` times it and returns the
results keyed by grid coordinate, so the output check in ``checks.py``
can compare every spec against references and pinned digests.

Simulation seeds derive from the benchmark's base seed
(:func:`sim_seeds`); the same base seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

MODES = ("base", "pbs")

#: ``mpki-grid`` fans each interpretation out to these harnesses:
#: ``(label, predictor, filter_probabilistic)`` — figure9's pairs.
MPKI_HARNESSES = (
    ("tournament", "tournament", False),
    ("tage-sc-l", "tage-sc-l", False),
    ("tournament-filtered", "tournament", True),
    ("tage-sc-l-filtered", "tage-sc-l", True),
)

#: ``ipc-timing`` runs each of these inside its own ``OoOCore``.
TIMING_PREDICTORS = ("tournament", "tage-sc-l")

#: ``trace-pool`` splits the grid into one spec per predictor.
TRACE_POOL_PREDICTORS = ("tournament", "tage-sc-l", "gshare")


@dataclass(frozen=True)
class Grid:
    """One workload's grid size; the grid's shape is its pass function."""

    name: str
    scale: float
    seeds_per_pass: int
    #: Processes the pass keeps busy: its executor's pool width.
    workers: int = 1

    def cores(self) -> int:
        """Cores the pass uses: never more than the machine has."""
        return min(self.workers, os.cpu_count() or 1)


# Sized so one pass takes about 2 s on a 2-core x86 host; the reasons
# for each workload are in BENCHMARK.json and README.md.
GRIDS: Dict[str, Grid] = {
    grid.name: grid
    for grid in (
        Grid("mpki-grid", 0.05, 1),
        Grid("ipc-timing", 0.05, 1),
        Grid("functional", 0.25, 1),
        Grid("trace-pool", 0.05, 1, workers=2),
    )
}


def sim_seeds(grid: Grid, base_seed: int) -> List[int]:
    """The simulation seeds one pass of ``grid`` runs for ``base_seed``."""
    return [base_seed * 100 + i for i in range(grid.seeds_per_pass)]


def spec_key(workload: str, mode: str, seed: int, *extra: str) -> str:
    return "|".join((workload, mode, str(seed)) + extra)


def expected_keys(grid: Grid, base_seed: int) -> List[str]:
    """Every key one pass of ``grid`` must return."""
    from repro.sim import paper_workload_names, workload_names

    names = workload_names() if grid.name == "functional" else paper_workload_names()
    keys = []
    for workload in names:
        for seed in sim_seeds(grid, base_seed):
            for mode in MODES:
                if grid.name == "trace-pool":
                    keys.extend(
                        spec_key(workload, mode, seed, predictor, phase)
                        for predictor in TRACE_POOL_PREDICTORS
                        for phase in ("cold", "warm")
                    )
                else:
                    keys.append(spec_key(workload, mode, seed))
    return keys


def stats_digest(result) -> str:
    """Digest of every simulated statistic of a ``RunResult``: its JSON
    form without the host-time field ``wall_time``."""
    data = result.to_dict()
    data.pop("wall_time")
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()[:20]


def _result_key(result, *extra: str) -> str:
    return spec_key(result.workload, "pbs" if result.pbs else "base",
                    result.seed, *extra)


# -- the passes ----------------------------------------------------------

def _mpki_grid(grid: Grid, seeds: List[int], workdir: Path, pause):
    from repro.sim import Session, paper_workload_names

    results = []
    for workload in paper_workload_names():
        for seed in seeds:
            for mode in MODES:
                session = Session(workload, scale=grid.scale, seed=seed)
                for label, predictor, filtered in MPKI_HARNESSES:
                    session.predictor(
                        predictor, label=label, filter_probabilistic=filtered
                    )
                if mode == "pbs":
                    session.pbs()
                result = session.run()
                results.append((_result_key(result), result))
                pause()
    return results, {}


def _ipc_timing(grid: Grid, seeds: List[int], workdir: Path, pause):
    from repro.pipeline import four_wide
    from repro.sim import Sweep, paper_workload_names

    sweep = Sweep(
        workloads=paper_workload_names(), scales=(grid.scale,), seeds=seeds,
        predictors=TIMING_PREDICTORS, timing=four_wide,
    )
    results = sweep.run(executor="serial", on_result=lambda spec, r: pause())
    return [(_result_key(r), r) for r in results], {}


def _functional(grid: Grid, seeds: List[int], workdir: Path, pause):
    from repro.sim import Sweep, workload_names

    sweep = Sweep(
        workloads=workload_names(), scales=(grid.scale,), seeds=seeds,
        predictors=(), record_consumed=True,
    )
    results = sweep.run(executor="serial", on_result=lambda spec, r: pause())
    return [(_result_key(r), r) for r in results], {}


def _trace_pool(grid: Grid, seeds: List[int], workdir: Path, pause):
    # No pauses: the parent's results arrive while both cores are busy.
    from repro.sim import Sweep, paper_workload_names

    traces = workdir / "traces"
    sweep = Sweep(
        workloads=paper_workload_names(), scales=(grid.scale,), seeds=seeds,
        predictors=TRACE_POOL_PREDICTORS, split_predictors=True,
        trace_dir=str(traces), cache_dir=str(workdir / "cache"),
    )
    results = []
    for phase in ("cold", "warm"):
        for r in sweep.run(processes=grid.cores(), executor="pool"):
            (predictor,) = r.predictors
            results.append((_result_key(r, predictor, phase), r))
    trace_bytes = sum(p.stat().st_size for p in traces.glob("??/*.trace"))
    return results, {"trace_bytes": trace_bytes}


_PASSES = {
    "mpki-grid": _mpki_grid,
    "ipc-timing": _ipc_timing,
    "functional": _functional,
    "trace-pool": _trace_pool,
}


def run_pass(grid: Grid, base_seed: int, workdir: Path, trace=None,
             between: Optional[Callable[[], None]] = None) -> Dict:
    """Run one timed pass of ``grid`` inside a fresh scratch directory
    under ``workdir``; returns the pass record ``checks.py`` consumes.

    ``trace`` is an installed :class:`tracing.LayerTrace` or ``None``;
    with one, the record also carries the per-layer metrics.  ``between``
    runs after each spec of a serial pass (the host-speed probe); the
    time it takes is not part of ``wall_s``.
    """
    paused = [0.0]

    def pause() -> None:
        if between is not None:
            started = time.perf_counter()
            between()
            paused[0] += time.perf_counter() - started

    scratch = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
    try:
        started = time.perf_counter()
        results, extras = _PASSES[grid.name](
            grid, sim_seeds(grid, base_seed), scratch, pause
        )
        wall = time.perf_counter() - started - paused[0]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    simulated = [r for _, r in results if not r.cached]
    record = {
        "wall_s": wall,
        "instructions": sum(r.instructions for r in simulated),
        "results": summarize(results),
    }
    if trace is not None:
        record["layers"] = trace.report(wall, simulated, extras)
    return record


def summarize(results: List[Tuple[str, object]]) -> Dict[str, Dict]:
    """Per-key record of what the output check needs: the statistics
    digest, base-mode outputs, and which path produced the result."""
    summary = {}
    for key, result in results:
        origin = "cache" if result.cached else (result.trace_origin or "interp")
        summary[key] = {
            "digest": stats_digest(result),
            "outputs": None if result.pbs else result.outputs,
            "origin": origin,
        }
    return summary
