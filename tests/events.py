"""Row-level helpers for tests of the columnar event stream.

Producers hand sinks :class:`~repro.functional.EventBatch` columns and
nothing else.  Tests often want one retired instruction at a time
instead: :class:`Row` names one row's twelve fields, :func:`batch_of`
packs rows into a batch, :func:`rows_of` reads them back, and
:class:`Collector` is a sink that keeps every row it is handed.
"""

from typing import List, NamedTuple, Optional, Tuple

from repro.functional import EventBatch, ProbMode


class Row(NamedTuple):
    """One retired instruction, field for field one column index of an
    :class:`EventBatch` (the fields follow ``EventBatch.__slots__``)."""

    pc: int
    op: int
    op_class: int
    dest: int
    srcs: Tuple[int, ...]
    is_cond_branch: bool = False
    taken: bool = False
    target: Optional[int] = None
    next_pc: int = 0
    addr: Optional[int] = None
    is_store: bool = False
    prob_mode: int = ProbMode.NOT_PROB


def batch_of(rows) -> EventBatch:
    """A fresh batch holding ``rows`` in order."""
    batch = EventBatch()
    for column, values in zip(EventBatch.__slots__, zip(*rows)):
        getattr(batch, column).extend(values)
    return batch


def rows_of(batch: EventBatch) -> List[Row]:
    """Every row of ``batch``, in order."""
    columns = (getattr(batch, column) for column in EventBatch.__slots__)
    return [Row(*fields) for fields in zip(*columns)]


class Collector:
    """A sink that appends every batch it is handed to one growing
    batch (producers reuse theirs), counting the batches."""

    def __init__(self):
        self.batch = EventBatch()
        self.batches = 0

    def consume_batch(self, batch: EventBatch) -> None:
        self.batches += 1
        for column in EventBatch.__slots__:
            getattr(self.batch, column).extend(getattr(batch, column))

    @property
    def rows(self) -> List[Row]:
        return rows_of(self.batch)
