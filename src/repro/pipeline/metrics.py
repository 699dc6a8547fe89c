"""Performance metrics produced by the timing model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..branch.harness import BranchStats


@dataclass(slots=True)
class CoreStats:
    """Cycle and branch statistics for one timed run.

    A core counts into one named after its predictor; a
    :class:`~repro.sim.RunResult` holds a copy named after its label.
    ``core`` names the :class:`~repro.pipeline.CoreConfig`.
    """

    name: str = ""
    core: str = ""
    instructions: int = 0
    cycles: int = 0
    #: Front-end idle cycles attributable to branch mispredictions
    #: (resolution delay + refill penalty).
    branch_stall_cycles: int = 0
    branches: BranchStats = field(default_factory=BranchStats)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.branches.mispredicts / self.instructions

    def cpi_stack(self, width: int = None) -> Dict[str, float]:
        """An approximate CPI breakdown (Sniper-style CPI stack).

        ``base`` is the bandwidth-bound floor (1/width per instruction),
        ``branch`` the misprediction stalls, ``other`` the remainder
        (dataflow dependences, long-latency units, window stalls).
        """
        if self.instructions == 0:
            return {"base": 0.0, "branch": 0.0, "other": 0.0}
        total_cpi = self.cycles / self.instructions
        if width:
            base = 1.0 / width
        else:
            base = min(total_cpi, 0.25)
        branch = self.branch_stall_cycles / self.instructions
        other = max(0.0, total_cpi - base - branch)
        return {"base": base, "branch": branch, "other": other}

    def as_dict(self) -> Dict[str, float]:
        """A flat view with ``name`` as ``predictor`` and the branch
        counters prefixed ``branch_``."""
        data = {
            "core": self.core,
            "predictor": self.name,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "mpki": self.mpki,
        }
        data.update(
            {f"branch_{k}": v for k, v in self.branches.as_dict().items()}
        )
        return data
