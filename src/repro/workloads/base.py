"""Workload abstraction: a paper benchmark as an ISA program + reference.

Every benchmark from the paper's Table II is implemented twice:

* as a program in the repro ISA (built by :meth:`Workload.build`), with its
  probabilistic branches marked via ``PROB_CMP``/``PROB_JMP``;
* as a pure-Python reference (:meth:`Workload.reference`) consuming the
  same drand48 stream in the same order, used to cross-validate the ISA
  program and the functional simulator bit for bit.

The ``scale`` parameter replaces the paper's billions of simulated
instructions with laptop-sized runs; it multiplies the benchmark's natural
iteration count.  ``scale=1.0`` is the default experiment size.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional

from ..core import PBSConfig, PBSEngine
from ..functional import Executor
from ..isa import Program


@dataclass(frozen=True)
class PaperFacts:
    """What the paper's Table II records for this benchmark."""

    prob_branches: int          # static probabilistic branches
    total_branches: int         # static branches (paper's denominator)
    category: int               # 1 or 2 (Section III-A)
    simulated_instructions: str  # e.g. "2.6 Billion"


class Workload(abc.ABC):
    """One probabilistic benchmark."""

    #: Unique short name ("dop", "pi", ...).
    name: str = ""
    #: Human description for docs and reports.
    description: str = ""
    #: Table II facts — or ``None`` for ported kernels that join the
    #: golden/differential corpus without appearing in any paper table
    #: (those are excluded from
    #: :func:`repro.sim.registry.paper_workload_names`).
    paper: Optional[PaperFacts] = PaperFacts(0, 0, 1, "")

    @abc.abstractmethod
    def build(self, scale: float = 1.0) -> Program:
        """Build the ISA program at the given scale."""

    @abc.abstractmethod
    def reference(self, scale: float = 1.0, seed: int = 0) -> Dict[str, float]:
        """Pure-Python reference consuming the identical drand48 stream."""

    @abc.abstractmethod
    def outputs(self, state) -> Dict[str, float]:
        """Extract the result dictionary from a finished MachineState."""

    @abc.abstractmethod
    def accuracy_error(
        self, baseline: Dict[str, float], candidate: Dict[str, float]
    ) -> float:
        """Application-specific relative error between two runs (§VII-D)."""

    # ------------------------------------------------------------------
    # Conveniences shared by every workload.
    # ------------------------------------------------------------------
    def run(
        self,
        scale: float = 1.0,
        seed: int = 0,
        pbs: Optional[PBSEngine] = None,
        sink=None,
        record_consumed: bool = False,
        engine=None,
    ) -> "WorkloadRun":
        """Execute the workload and package the results.

        ``engine`` is an :class:`repro.engines.Engine` instance choosing
        the execution tier; ``None`` keeps the direct interpreter path.
        """
        program = self.build(scale)
        if engine is not None:
            executor = engine.executor(
                program, seed=seed, pbs=pbs, record_consumed=record_consumed
            )
        else:
            executor = Executor(
                program, seed=seed, pbs=pbs, record_consumed=record_consumed
            )
        state = executor.run(sink=sink)
        return WorkloadRun(
            workload=self,
            program=program,
            executor=executor,
            outputs=self.outputs(state),
        )

    def run_with_pbs(
        self,
        scale: float = 1.0,
        seed: int = 0,
        config: Optional[PBSConfig] = None,
        sink=None,
        record_consumed: bool = False,
    ) -> "WorkloadRun":
        engine = PBSEngine(config if config is not None else PBSConfig())
        run = self.run(
            scale, seed, pbs=engine, sink=sink, record_consumed=record_consumed
        )
        run.pbs_engine = engine
        return run

    def static_summary(self) -> Dict[str, int]:
        """Static branch counts of our implementation (Table II rows)."""
        return self.build(scale=0.05).static_branch_summary()


class WorkloadRun:
    """The outcome of one workload execution."""

    def __init__(self, workload, program, executor, outputs):
        self.workload = workload
        self.program = program
        self.executor = executor
        self.outputs = outputs
        self.pbs_engine = None

    @property
    def instructions(self) -> int:
        return self.executor.retired

    @property
    def consumed_values(self):
        return self.executor.consumed_values
