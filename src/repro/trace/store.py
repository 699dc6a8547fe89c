"""Content-addressed trace storage.

A :class:`TraceStore` is a directory of ``<digest[:2]>/<digest>.trace``
files and nothing else: no index, no eviction.  It grows without bound;
treat it as a scratch directory and delete it by hand.  The digest is
computed from the **trace key** — ``(workload, scale, seed, resolved
PBS config)`` plus the trace format version — which is exactly the set
of parameters that determines the committed-path event stream.  Grid
points that differ only in predictors, harness options or timing
configuration share one trace: interpret once, replay everywhere.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Union

from ..storage import SHARD_CHARS, canonical_digest, temp_path
from .format import FORMAT_VERSION, TraceFormatError, TraceReader, TraceWriter


def trace_key(
    workload: str,
    scale: float,
    seed: int,
    pbs_config: Optional[Dict],
) -> Dict:
    """The canonical (JSON-serializable) identity of one event stream."""
    return {
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "pbs_config": pbs_config,
        "__trace_version__": FORMAT_VERSION,
    }


def trace_digest(
    workload: str,
    scale: float,
    seed: int,
    pbs_config: Optional[Dict],
) -> str:
    return canonical_digest(trace_key(workload, scale, seed, pbs_config))


class TraceStore:
    """A sharded directory of captured traces, keyed by trace digest."""

    suffix = ".trace"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path(self, digest: str) -> Path:
        return self.root / digest[:SHARD_CHARS] / f"{digest}{self.suffix}"

    def open(self, digest: str) -> Optional[TraceReader]:
        """A reader for ``digest``, or ``None`` (counts as a miss)."""
        try:
            reader = TraceReader(self.path(digest))
        except (OSError, TraceFormatError):
            self.misses += 1
            return None
        self.hits += 1
        return reader

    def writer(self, digest: str, compress: bool = True) -> "TraceCapture":
        """A capture handle staging into a temp file; ``commit(meta)``
        atomically publishes it under ``digest``."""
        path = self.path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        return TraceCapture(self, digest, temp_path(path), compress=compress)


class TraceCapture:
    """One in-flight capture: a :class:`TraceWriter` bound to a store slot."""

    def __init__(self, store: TraceStore, digest: str, tmp_path, compress=True):
        self.store = store
        self.digest = digest
        self.writer = TraceWriter(tmp_path, compress=compress)

    @property
    def sink(self):
        """The event sink to attach to the interpreter."""
        return self.writer

    def commit(self, meta: Dict) -> None:
        """Finalize the file and publish it atomically under the digest."""
        self.writer.finalize(meta)
        os.replace(self.writer.path, self.store.path(self.digest))

    def abort(self) -> None:
        self.writer.abort()
        # A commit that failed between finalize() and the atomic rename
        # leaves a finalized temp file the writer no longer owns.
        self.writer.path.unlink(missing_ok=True)
