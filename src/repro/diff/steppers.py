"""Tier stepping adapters: one uniform single-step surface per engine.

The interpreter and the compiled tier's step-variant codegen resume
through ``run(budget=)``; the trace-replay path has no machine state at
all.  A :class:`Stepper` wraps each behind the same five observations the
lockstep harness compares at every retired-count barrier:

* ``halted`` / ``retired`` / ``pc`` — where execution stands;
* ``regs()`` / ``memory()`` / ``rng_state()`` / ``outputs()`` — the
  architectural state, as plain Python values.

``compares_*`` class flags declare which observations a tier can
honestly make: the replay tier, for instance, sees only the committed
control flow that survived the trace wire format, so it opts out of
register/memory/RNG comparison instead of reporting garbage.

Adding a tier hook = subclassing :class:`Stepper`, implementing
``step_to`` with *exact* ``max_instructions`` parity (raise
``ExecutionLimitExceeded`` at the interpreter's retired count — the
differential tests pin this boundary), and registering it in
``STEPPERS``.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..engines.compiled import CompiledExecutor
from ..functional import Executor
from ..isa.opcodes import Op
from ..trace.format import pack_event, unpack_events

#: Default instruction budget for differential runs: generated programs
#: retire a few thousand instructions, so anything that gets here is a
#: runaway loop worth failing fast on.
DIFF_MAX_INSTRUCTIONS = 200_000


class Stepper:
    """One tier being driven in lockstep (see module docstring)."""

    name = "?"
    compares_registers = True
    compares_memory = True
    compares_rng = True
    compares_outputs = True
    #: Whether the tier can carry an attached trace sink through
    #: ``step_to`` (the sink-attached lockstep mode: a fresh
    #: :class:`~repro.branch.PredictorHarness` per tier, tallies
    #: compared at every barrier).
    supports_sink = False

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
    supports_sink = True

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


class ReplayStepper(Stepper):
    """The trace tier: committed control flow through the wire format.

    Runs the interpreter with a sink that packs every event with
    :func:`repro.trace.format.pack_event` and immediately decodes it
    back — so ``pc``/``retired``/``halted`` are read from the
    *round-tripped* events, putting the trace encoding itself under the
    lockstep contract.  Registers, memory and the RNG are not part of a
    trace, so this tier only compares control flow and outputs.
    """

    name = "replay"
    compares_registers = False
    compares_memory = False
    compares_rng = False

    def __init__(self, program, seed: int = 0,
                 max_instructions: int = DIFF_MAX_INSTRUCTIONS):
        self._ex = Executor(
            program, seed=seed, max_instructions=max_instructions
        )
        self._count = 0
        self._last = None

        def sink(event):
            decoded = next(iter(unpack_events(pack_event(event))))
            self._count += 1
            self._last = decoded

        self._sink = sink

    def step_to(self, target: int) -> None:
        budget = target - self._ex.retired
        if budget > 0 and not self._ex.halted:
            self._ex.run(sink=self._sink, budget=budget)

    @property
    def halted(self) -> bool:
        return self._last is not None and self._last.op is Op.HALT

    @property
    def retired(self) -> int:
        return self._count

    @property
    def pc(self) -> int:
        if self._last is None:
            return 0
        return self._last.next_pc

    def regs(self) -> List:
        return []

    def memory(self) -> List:
        return []

    def rng_state(self) -> int:
        return 0

    def outputs(self) -> Dict[int, List]:
        return self._ex.state.outputs


#: tier name -> stepper class; the harness and CLI resolve tiers here.
STEPPERS: Dict[str, Type[Stepper]] = {
    cls.name: cls
    for cls in (InterpStepper, CompiledStepper, ReplayStepper)
}
