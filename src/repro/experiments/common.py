"""Shared infrastructure for the paper's experiments.

Every experiment module exposes ``run(scale=..., seed=..., ...) ->
ExperimentResult`` returning a renderable table, plus module-level
constants naming the paper artefact it reproduces.  Simulation itself
goes through :mod:`repro.sim` — a :class:`~repro.sim.Session` interprets
each benchmark once and fans the trace out to all consumers; the
experiments are thin, declarative sweeps over it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..sim import DEFAULT_SCALE, DEFAULT_SEED

__all__ = [
    "DEFAULT_SCALE",
    "DEFAULT_SEED",
    "ExperimentResult",
    "geometric_mean",
]


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
