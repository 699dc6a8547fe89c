"""Functional (committed-path) simulation of the repro ISA."""

from .executor import (
    ExecutionError,
    ExecutionLimitExceeded,
    Executor,
    nan_max,
    nan_min,
)
from .rng import Drand48, RecordingRng
from .state import MachineState
from .trace import EventBatch, ProbMode, as_batch_sink

__all__ = [
    "ExecutionError",
    "ExecutionLimitExceeded",
    "Executor",
    "nan_max",
    "nan_min",
    "Drand48",
    "RecordingRng",
    "MachineState",
    "EventBatch",
    "ProbMode",
    "as_batch_sink",
]
