"""Dynamic trace events emitted by the functional simulator.

The functional simulator executes the committed path and emits it as
:class:`EventBatch` columns, one row per retired instruction.  Timing
models, MPKI counters and other consumers observe this stream through
``consume_batch``; they never re-execute semantics.  That method is the
one sink protocol: :func:`as_batch_sink` refuses anything else where a
sink enters a producer.
"""

from __future__ import annotations


class ProbMode:
    """How a PROB_JMP instance was handled.

    Attributes:
        NOT_PROB: a regular (non-probabilistic) instruction.
        PREDICTED: a probabilistic branch treated as a regular branch —
            either PBS is disabled, the instance is in the bootstrap phase,
            or PBS fell back (Const-Val mismatch, capacity, deep call).
        PBS_HIT: direction supplied by the Prob-BTB at fetch; the branch
            never consults the predictor and can never mispredict.
    """

    NOT_PROB = 0
    PREDICTED = 1
    PBS_HIT = 2


class EventBatch:
    """A columnar run of retired instructions (structure of arrays).

    Producers (the pre-decoded interpreter, the compiled tier, trace
    replay) fill the parallel column lists and hand the batch to the
    sink's ``consume_batch`` method — the only way events travel.
    Column ``i`` across all twelve lists describes one retired
    instruction.

    Ownership contract: the producer may reuse the batch object (via
    :meth:`clear`) as soon as ``consume_batch`` returns, so consumers
    must not retain references to the batch or its columns.
    """

    __slots__ = (
        "pcs",
        "ops",
        "classes",
        "dests",
        "srcs",
        "conds",
        "takens",
        "targets",
        "next_pcs",
        "addrs",
        "stores",
        "prob_modes",
    )

    def __init__(self):
        self.pcs = []
        self.ops = []
        self.classes = []
        self.dests = []
        self.srcs = []
        self.conds = []
        self.takens = []
        self.targets = []
        self.next_pcs = []
        self.addrs = []
        self.stores = []
        self.prob_modes = []

    def __len__(self) -> int:
        return len(self.pcs)

    def clear(self) -> None:
        self.pcs.clear()
        self.ops.clear()
        self.classes.clear()
        self.dests.clear()
        self.srcs.clear()
        self.conds.clear()
        self.takens.clear()
        self.targets.clear()
        self.next_pcs.clear()
        self.addrs.clear()
        self.stores.clear()
        self.prob_modes.clear()

    def __repr__(self) -> str:
        return f"<EventBatch n={len(self.pcs)}>"


def as_batch_sink(sink):
    """``sink.consume_batch``, the one method a sink must declare.

    Producers call this where a sink enters them, before any
    instruction retires, so a sink without the method is a
    ``TypeError`` rather than a run that fails partway through.
    """
    consume = getattr(sink, "consume_batch", None)
    if consume is None:
        raise TypeError(
            f"a sink must declare consume_batch(batch); got {sink!r}"
        )
    return consume
