"""Single-step lockstep differential testing across execution tiers.

The bit-identity contract says every tier — the interpreter and the
compiled tier — commits the same architectural state at every
retired instruction.  End-to-end result comparison can only say *that*
two tiers disagree; this package says *where*:

* :mod:`~repro.diff.steppers` — one resumable single-step adapter per
  tier, all behind the same :class:`~repro.diff.steppers.Stepper`
  surface.
* :mod:`~repro.diff.harness` — :func:`~repro.diff.harness.diff_tiers`
  drives the tiers to shared retired-count barriers and reports the
  first divergence as a structured
  :class:`~repro.diff.harness.Divergence` delta.
* :mod:`~repro.diff.generator` — random, shrinkable ISA programs that
  stay inside every tier's defined envelope by construction.
* :mod:`~repro.diff.shrink` — delta-debugging minimizer for diverging
  generated programs.

CLI entry point: ``pbs-experiments diff`` (see ``docs/diffing.md``).
"""

from .generator import GenProgram, build_program, generate
from .harness import Divergence, diff_tiers
from .shrink import shrink
from .steppers import (
    DIFF_MAX_INSTRUCTIONS,
    STEPPERS,
    CompiledStepper,
    InterpStepper,
    Stepper,
)

__all__ = [
    "GenProgram",
    "build_program",
    "generate",
    "Divergence",
    "diff_tiers",
    "shrink",
    "DIFF_MAX_INSTRUCTIONS",
    "STEPPERS",
    "CompiledStepper",
    "InterpStepper",
    "Stepper",
]
