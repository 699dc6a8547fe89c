"""Dynamic trace events emitted by the functional simulator.

The functional simulator executes the committed path and emits it as
:class:`EventBatch` columns, one row per retired instruction.  Timing
models, MPKI counters and other consumers observe this stream through
``consume_batch``; they never re-execute semantics.  :class:`TraceEvent`
is the one-row view of a batch: what :func:`as_batch_sink` hands a bare
per-event callable, and what displays and diffs show.
"""

from __future__ import annotations

from typing import Optional, Tuple


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


class TraceEvent:
    """One retired instruction on the committed path."""

    __slots__ = (
        "pc",
        "op",
        "op_class",
        "dest",
        "srcs",
        "is_cond_branch",
        "taken",
        "target",
        "next_pc",
        "addr",
        "is_store",
        "prob_mode",
    )

    def __init__(
        self,
        pc: int,
        op: int,
        op_class: int,
        dest: int,
        srcs: Tuple[int, ...],
        is_cond_branch: bool = False,
        taken: bool = False,
        target: Optional[int] = None,
        next_pc: int = 0,
        addr: Optional[int] = None,
        is_store: bool = False,
        prob_mode: int = ProbMode.NOT_PROB,
    ):
        self.pc = pc
        self.op = op
        self.op_class = op_class
        self.dest = dest
        self.srcs = srcs
        self.is_cond_branch = is_cond_branch
        self.taken = taken
        self.target = target
        self.next_pc = next_pc
        self.addr = addr
        self.is_store = is_store
        self.prob_mode = prob_mode

    def __repr__(self) -> str:
        extra = ""
        if self.is_cond_branch:
            extra = f" {'T' if self.taken else 'NT'}->{self.target}"
            if self.prob_mode == ProbMode.PREDICTED:
                extra += " prob"
            elif self.prob_mode == ProbMode.PBS_HIT:
                extra += " pbs-hit"
        return f"<ev pc={self.pc} op={self.op}{extra}>"


class EventBatch:
    """A columnar run of retired instructions (structure of arrays).

    Producers (the pre-decoded interpreter, the compiled tier, trace
    replay) fill the parallel column lists and hand the batch to the
    sink's ``consume_batch`` method — the only way events travel.
    Column ``i`` across all twelve lists describes one retired
    instruction, field for field what :meth:`events` turns into a
    :class:`TraceEvent`.

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

    def append_event(self, event: "TraceEvent") -> None:
        """Append one per-event record (used by adapters and tests)."""
        self.pcs.append(event.pc)
        self.ops.append(event.op)
        self.classes.append(event.op_class)
        self.dests.append(event.dest)
        self.srcs.append(event.srcs)
        self.conds.append(event.is_cond_branch)
        self.takens.append(event.taken)
        self.targets.append(event.target)
        self.next_pcs.append(event.next_pc)
        self.addrs.append(event.addr)
        self.stores.append(event.is_store)
        self.prob_modes.append(event.prob_mode)

    def events(self):
        """Explode the batch into :class:`TraceEvent` objects, in row
        order (what :class:`PerEventSink` feeds a bare callable)."""
        make = TraceEvent
        for i in range(len(self.pcs)):
            yield make(
                self.pcs[i],
                self.ops[i],
                self.classes[i],
                self.dests[i],
                self.srcs[i],
                is_cond_branch=self.conds[i],
                taken=self.takens[i],
                target=self.targets[i],
                next_pc=self.next_pcs[i],
                addr=self.addrs[i],
                is_store=self.stores[i],
                prob_mode=self.prob_modes[i],
            )

    @classmethod
    def from_events(cls, events) -> "EventBatch":
        batch = cls()
        for event in events:
            batch.append_event(event)
        return batch

    def __repr__(self) -> str:
        return f"<EventBatch n={len(self.pcs)}>"


class PerEventSink:
    """Adapts a bare per-event callable to the columnar protocol.

    ``consume_batch`` explodes each batch with :meth:`EventBatch.events`
    and calls the wrapped callable once per row, in order.  Events still
    arrive a batch at a time, so a callable that inspects live machine
    state (registers, ``Executor.retired``) must drive the producer with
    ``step()`` to see it per instruction.
    """

    __slots__ = ("sink",)

    def __init__(self, sink):
        self.sink = sink

    def consume_batch(self, batch: EventBatch) -> None:
        sink = self.sink
        for event in batch.events():
            sink(event)


def as_batch_sink(sink):
    """``sink`` itself when it declares ``consume_batch`` (or is
    ``None``), else ``sink`` wrapped in :class:`PerEventSink`.

    Producers apply this where a sink enters them, so every consumer
    downstream speaks one protocol.
    """
    if sink is None or getattr(sink, "consume_batch", None) is not None:
        return sink
    return PerEventSink(sink)
