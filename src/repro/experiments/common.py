"""Shared infrastructure for the paper's experiments.

An artefact module declares its simulations as data and its table as a
function of their results:

* ``specs(scale, seed, names) -> list[RunSpec]`` — every simulation the
  artefact needs, one :class:`~repro.sim.RunSpec` each;
* ``reduce(runs, scale, seed, names)`` — builds the artefact's
  :class:`ExperimentResult` (a list of them for the ablations) from
  ``runs``, a :class:`Runs` lookup that maps each of those specs to its
  :class:`~repro.sim.RunResult`;
* ``run(...)`` — the standalone entry point, ``reduce(simulate(specs(
  ...)), ...)``, plus module-level constants naming the paper artefact.

An artefact with a fixed seed set (figure9, table3, accuracy) ignores
``seed``; one with a fixed benchmark set (the ablations) ignores
``names``.  ``pbs-experiments run`` collects the specs of every
selected artefact, runs each distinct spec once through
:func:`~repro.sim.run_specs` — so the result cache, the process pool
and ``--engine`` reach every artefact — and then reduces each one.
Only simulations of transformed programs, which are not registered
workloads, run outside the specs (table1's variant check and the
technique ablation's predication and CFD cores).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..sim import DEFAULT_SCALE, DEFAULT_SEED, RunResult, RunSpec, SweepResult, run_specs

__all__ = [
    "DEFAULT_SCALE",
    "DEFAULT_SEED",
    "ExperimentResult",
    "Names",
    "Runs",
    "geometric_mean",
    "simulate",
]

#: An artefact's benchmark subset (``None``: its own default set).
Names = Optional[Sequence[str]]


class Runs:
    """Results looked up by spec: ``runs[spec]`` matches on
    :meth:`~repro.sim.RunSpec.digest`, which leaves the engine out.
    ``sweep`` holds the run's cache and executor statistics."""

    def __init__(self, results: Dict[str, RunResult], sweep: SweepResult):
        self.results = results
        self.sweep = sweep

    def __getitem__(self, spec: RunSpec) -> RunResult:
        return self.results[spec.digest()]


def simulate(specs: Iterable[RunSpec], *, processes: int = 1,
             cache_dir: Optional[str] = None) -> Runs:
    """Run every distinct spec once, in one :func:`~repro.sim.run_specs`
    call; duplicates (equal digests) share one result."""
    unique: Dict[str, RunSpec] = {}
    for spec in specs:
        unique.setdefault(spec.digest(), spec)
    sweep = run_specs(
        list(unique.values()), processes=processes, cache_dir=cache_dir
    )
    return Runs(dict(zip(unique, sweep.results)), sweep)


# ----------------------------------------------------------------------
# Result tables.
# ----------------------------------------------------------------------
class ExperimentResult:
    """A titled table of rows plus free-form notes."""

    def __init__(self, title: str, columns: Sequence[str], paper_claim: str = ""):
        self.title = title
        self.columns = list(columns)
        self.paper_claim = paper_claim
        self.rows: List[Dict[str, object]] = []
        self.notes: List[str] = []

    def add_row(self, **values) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List:
        return [row.get(name) for row in self.rows]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the CLI's ``--json`` output)."""
        return {
            "title": self.title,
            "paper_claim": self.paper_claim,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        widths = {
            col: max(
                len(col), *(len(fmt(row.get(col, ""))) for row in self.rows)
            ) if self.rows else len(col)
            for col in self.columns
        }
        lines = [self.title]
        if self.paper_claim:
            lines.append(f"paper: {self.paper_claim}")
        header = "  ".join(col.ljust(widths[col]) for col in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(
                    fmt(row.get(col, "")).ljust(widths[col])
                    for col in self.columns
                )
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def geometric_mean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
