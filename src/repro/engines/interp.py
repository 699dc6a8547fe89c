"""Tier 0: the reference pre-decoded interpreter, behind the engine API.

This is exactly the execution path every run has always taken —
:class:`repro.functional.Executor` — wrapped so engine selection is
uniform.  It is the readable reference the other tiers are checked
against.
"""

from __future__ import annotations

from ..functional import Executor
from .base import Engine, register_engine


@register_engine("interp")
class InterpEngine(Engine):
    """The interpreter as an engine (the reference tier)."""

    def executor(self, program, *, seed=0, pbs=None, record_consumed=False):
        self.last_cache_hit = False
        return Executor(
            program, seed=seed, pbs=pbs, record_consumed=record_consumed
        )
