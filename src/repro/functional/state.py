"""Architectural state for the functional simulator."""

from __future__ import annotations

from typing import Dict, List

from ..isa.registers import COND_REG_NUM, FLOAT_BASE, NUM_REGS


class MachineState:
    """Register files, data memory, call stack and output channels.

    The flat register file mirrors :mod:`repro.isa.registers`: slots
    0..31 are integer registers (initialised to 0), 32..63 float registers
    (0.0), slot 64 the condition flag (0).  Data memory is word-addressed:
    each address holds one Python number.
    """

    def __init__(self, data_size: int = 0):
        self.regs: List = [0] * FLOAT_BASE + [0.0] * (COND_REG_NUM - FLOAT_BASE) + [0]
        assert len(self.regs) == NUM_REGS
        self.memory: List = [0] * data_size
        self.call_stack: List[int] = []
        self.outputs: Dict[int, List] = {}

    def emit_output(self, channel: int, value) -> None:
        self.outputs.setdefault(channel, []).append(value)

    def output(self, channel: int = 0) -> List:
        """Values emitted on ``channel`` (empty list if none)."""
        return self.outputs.get(channel, [])
