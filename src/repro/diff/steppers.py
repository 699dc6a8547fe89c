"""Tier stepping adapters: one uniform single-step surface per engine.

The interpreter and the compiled tier's step-variant codegen both
resume through ``run(budget=)``.  A :class:`Stepper` wraps each behind
the same observations the lockstep harness compares at every
retired-count barrier:

* ``halted`` / ``retired`` / ``pc`` — where execution stands;
* ``regs()`` / ``memory()`` / ``rng_state()`` / ``outputs()`` — the
  full architectural state, as plain Python values.

Adding a tier hook = subclassing :class:`Stepper` with a constructor
taking ``(program, seed=, max_instructions=, sink=None)`` (``sink``
rides the tier through every ``step_to``), implementing ``step_to``
with *exact* ``max_instructions`` parity (raise
``ExecutionLimitExceeded`` at the interpreter's retired count — the
differential tests pin this boundary), and registering it in
``STEPPERS``.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..engines.compiled import CompiledExecutor
from ..functional import Executor

#: Default instruction budget for differential runs: generated programs
#: retire a few thousand instructions, so anything that gets here is a
#: runaway loop worth failing fast on.
DIFF_MAX_INSTRUCTIONS = 200_000


class Stepper:
    """One tier being driven in lockstep (see module docstring)."""

    name = "?"

    def step_to(self, target: int) -> None:
        """Advance until ``retired == target``, HALT, or the limit."""
        raise NotImplementedError

    def sink_stats(self) -> "Dict | None":
        """The attached sink's tally as a plain dict, or ``None`` when
        no comparable sink rides this tier."""
        return None

    @property
    def halted(self) -> bool:
        raise NotImplementedError

    @property
    def retired(self) -> int:
        raise NotImplementedError

    @property
    def pc(self) -> int:
        raise NotImplementedError

    def regs(self) -> List:
        raise NotImplementedError

    def memory(self) -> List:
        raise NotImplementedError

    def rng_state(self) -> int:
        raise NotImplementedError

    def outputs(self) -> Dict[int, List]:
        raise NotImplementedError


class _ExecutorStepper(Stepper):
    """Shared adapter for executors with the ``run(budget=)`` protocol
    (the interpreter and the compiled tier's step variant)."""

    executor_class: type = None

    def __init__(self, program, seed: int = 0,
                 max_instructions: int = DIFF_MAX_INSTRUCTIONS,
                 sink=None):
        self._ex = self.executor_class(
            program, seed=seed, max_instructions=max_instructions
        )
        self._sink = sink

    def step_to(self, target: int) -> None:
        budget = target - self._ex.retired
        if budget > 0 and not self._ex.halted:
            self._ex.run(sink=self._sink, budget=budget)

    def sink_stats(self):
        stats = getattr(self._sink, "stats", None)
        if stats is None:
            return None
        return stats.as_dict()

    @property
    def halted(self) -> bool:
        return self._ex.halted

    @property
    def retired(self) -> int:
        return self._ex.retired

    @property
    def pc(self) -> int:
        return self._ex.pc

    def regs(self) -> List:
        return list(self._ex.state.regs)

    def memory(self) -> List:
        return list(self._ex.state.memory)

    def rng_state(self) -> int:
        return self._ex.rng.state()

    def outputs(self) -> Dict[int, List]:
        return self._ex.state.outputs


class InterpStepper(_ExecutorStepper):
    """The reference tier: ``repro.functional.Executor``."""

    name = "interp"
    executor_class = Executor


class CompiledStepper(_ExecutorStepper):
    """The compiled tier's per-PC step-variant codegen."""

    name = "compiled"
    executor_class = CompiledExecutor


#: tier name -> stepper class; the harness and CLI resolve tiers here.
STEPPERS: Dict[str, Type[Stepper]] = {
    cls.name: cls
    for cls in (InterpStepper, CompiledStepper)
}
