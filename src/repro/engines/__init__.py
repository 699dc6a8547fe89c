"""Tiered execution engines: how a decoded program actually runs.

An :class:`~repro.engines.base.Engine` picks the machinery that executes
one workload program — the same program, the same results, different
speed:

* ``"interp"`` — the reference pre-decoded interpreter
  (:class:`~repro.functional.Executor`).
* ``"compiled"`` — translates the decoded program into specialized
  Python (unrolled handlers, locals-bound registers, no per-instruction
  dispatch), cached by program digest.

Every tier runs every spec: any workload, with or without PBS, sinks
and consumed-value recording.

Engines register under :func:`~repro.engines.base.register_engine`,
mirroring the workload/predictor/executor/analysis registries, and are
selected through ``Session.engine(name, **options)``,
``Sweep(engine=...)`` or the CLI ``--engine`` flag.  Every tier is under
the same bit-identical contract as the interpreter: switching engines
may never change a result.
"""

from .base import (
    ENGINES,
    Engine,
    create_engine,
    default_engine,
    engine_names,
    get_engine,
    list_engines,
    register_engine,
    set_default_engine,
)

# Importing the tier modules runs their @register_engine decorators.
from . import compiled, interp  # noqa: E402,F401  (import side effect)

__all__ = [
    "ENGINES",
    "Engine",
    "create_engine",
    "default_engine",
    "engine_names",
    "get_engine",
    "list_engines",
    "register_engine",
    "set_default_engine",
]
