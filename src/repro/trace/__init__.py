"""repro.trace — capture the committed-path event stream once, replay it
everywhere.

The paper's methodology is trace-driven: timing models, MPKI harnesses
and the PBS engine all consume the committed-path
:class:`~repro.functional.trace.TraceEvent` stream and never re-execute
semantics.  This package makes that stream a first-class artifact:

* :class:`TraceWriter` / :class:`TraceReader` — a compact struct-packed
  binary file format (versioned header, zlib-compressed frames, O(1)
  metadata access);
* :class:`TraceStore` — a content-addressed, sharded on-disk store
  keyed by :func:`trace_digest` of ``(workload, scale, seed, PBS
  config)``, sharing the :class:`~repro.storage.ShardedStore` layout
  with the sweep result cache.

:class:`~repro.sim.Session` and :class:`~repro.sim.Sweep` build on it:
``Session.trace(store)`` captures on first run and replays after;
``Sweep(trace_dir=...)`` interprets each trace group once, capturing
its trace for a later sweep to replay.  Stores are local: a trace
never crosses the wire to a worker.  See ``docs/traces.md``.
"""

from .format import (
    FORMAT_VERSION,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    read_meta,
    unpack_events_batch,
)
from .store import (
    TraceCapture,
    TraceStore,
    trace_digest,
    trace_key,
)

__all__ = [
    "FORMAT_VERSION",
    "TraceFormatError",
    "TraceReader",
    "TraceWriter",
    "read_meta",
    "unpack_events_batch",
    "TraceCapture",
    "TraceStore",
    "trace_digest",
    "trace_key",
]
