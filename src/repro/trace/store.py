"""Content-addressed trace storage.

A :class:`TraceStore` is a :class:`~repro.storage.ShardedStore` of
``<digest[:2]>/<digest>.trace`` files.  The digest is computed from the
**trace key** — ``(workload, scale, seed, resolved PBS config)`` plus
the trace format version — which is exactly the set of parameters that
determines the committed-path event stream.  Grid points that differ
only in predictors, harness options or timing configuration share one
trace: interpret once, replay everywhere.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

from ..storage import ShardedStore, canonical_digest
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


class TraceStore(ShardedStore):
    """A sharded directory of captured traces, keyed by trace digest."""

    suffix = ".trace"

    def _entry_meta(self, digest: str) -> Dict:
        entry = {"digest": digest}
        entry.update(self._describe(digest))
        return entry

    def _describe(self, digest: str) -> Dict:
        from .format import read_meta

        path = self.path(digest)
        meta = read_meta(path)
        if meta is None:
            return {}
        described = {
            key: meta.get(key)
            for key in ("workload", "scale", "seed", "events", "instructions")
        }
        described["mode"] = "pbs" if meta.get("pbs_config") else "base"
        try:
            stat = path.stat()
            described["bytes"] = stat.st_size
            # Last-use default for LRU gc: the write time.  open() then
            # advances it through touch() on every replay hit.
            described["atime"] = round(stat.st_mtime, 3)
        except OSError:
            pass
        return described

    # -- entries --------------------------------------------------------

    def open(self, digest: str) -> Optional[TraceReader]:
        """A reader for ``digest``, or ``None`` (counts as a miss).

        A hit also advances the trace's last-used stamp in the manifest,
        which is what ``gc(max_bytes=...)`` orders evictions by.
        """
        path = self.path(digest)
        try:
            reader = TraceReader(path)
        except (OSError, TraceFormatError):
            self.misses += 1
            return None
        self.hits += 1
        self.touch(digest)
        return reader

    def touch(self, digest: str) -> None:
        """Stamp ``digest`` as just-used: one appended manifest line.

        Deliberately cheap — a minimal ``{digest, atime}`` line and no
        index load, so the hot replay path stays O(1).  Index loads
        merge lines per digest, so the stamp updates the entry without
        erasing its metadata.
        """
        entry = {"digest": digest, "atime": round(time.time(), 3)}
        if self._index is not None:
            existing = self._index.get(digest)
            if existing is not None:
                entry = {**existing, **entry}
            self._index[digest] = entry
        self._append(entry)

    def writer(self, digest: str, compress: bool = True) -> "TraceCapture":
        """A capture handle staging into a temp file; ``commit(meta)``
        atomically publishes it under ``digest``."""
        path = self.path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f".{digest}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        return TraceCapture(self, digest, tmp, compress=compress)

    def total_bytes(self) -> int:
        """Bytes of every stored trace, from the disk itself (not the
        manifest, whose sizes can go stale under concurrent writers)."""
        total = 0
        for path in self.root.glob(f"??/*{self.suffix}"):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def gc(self, clear: bool = False, max_bytes: Optional[int] = None) -> Dict:
        """Drop unreadable, stale-version or (with ``clear``) all traces,
        then — with ``max_bytes`` — evict least-recently-used traces
        until the store fits the byte budget.

        Last use is the ``atime`` stamp :meth:`open` maintains in the
        manifest (falling back to the file write time), so eviction
        order survives restarts.  Eviction is atomic per trace — a
        reader racing it sees either the whole file or a plain miss —
        and a budget smaller than the smallest trace simply empties the
        store.

        Temp files of captures that crashed are reclaimed once they go
        stale (an hour without a write); live captures are untouched.
        The closing manifest compaction, however, can drop entries a
        concurrent capture commits mid-gc — such a trace stays readable
        and is re-indexed by the next gc's shard scan.

        Returns ``{"removed": n, "evicted": n, "kept": n,
        "reclaimed_bytes": n}``.
        """
        from .format import read_meta

        removed = evicted = reclaimed = 0
        kept: Dict[str, int] = {}  # digest -> bytes, surviving so far
        # Candidates come from the manifest *and* a shard scan, so a
        # trace orphaned between its atomic rename and the manifest
        # append (crash window) is still reclaimable.
        candidates = set(self.digests())
        for path in self.root.glob(f"??/*{self.suffix}"):
            candidates.add(path.stem)
        for digest in sorted(candidates):
            path = self.path(digest)
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            if clear or read_meta(path) is None:
                self.remove(digest)
                removed += 1
                reclaimed += size
            else:
                kept[digest] = size
                if self.entry(digest) is None:
                    # A valid orphan (crash before the manifest append):
                    # adopt it so `trace ls` and replay lookups see it.
                    self._record(digest, self._entry_meta(digest))
        if max_bytes is not None and sum(kept.values()) > max_bytes:
            total = sum(kept.values())

            def last_use(digest: str) -> float:
                stamp = (self.entry(digest) or {}).get("atime")
                if stamp is not None:
                    return float(stamp)
                try:  # pre-atime manifests: the write time, as documented
                    return self.path(digest).stat().st_mtime
                except OSError:
                    return 0.0

            by_age = sorted(
                kept, key=lambda digest: (last_use(digest), digest)
            )
            for digest in by_age:
                if total <= max_bytes:
                    break
                size = kept.pop(digest)
                self.remove(digest)
                evicted += 1
                reclaimed += size
                total -= size
        # Also sweep stray temp files from *crashed* captures.  A live
        # capture flushes frames as they fill, so its temp file's mtime
        # stays fresh; only files stale for an hour or more are safe to
        # reclaim while sweeps may be running concurrently.
        stale_before = time.time() - 3600.0
        for shard in self.root.glob("??"):
            if not shard.is_dir():
                continue
            for stray in shard.glob(".*.tmp"):
                try:
                    if stray.stat().st_mtime >= stale_before:
                        continue
                    reclaimed += stray.stat().st_size
                    stray.unlink()
                except OSError:
                    pass
        self.compact()
        return {
            "removed": removed, "evicted": evicted, "kept": len(kept),
            "reclaimed_bytes": reclaimed,
        }


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
        path = self.store.path(self.digest)
        os.replace(self.writer.path, path)
        entry = {"digest": self.digest}
        entry.update(self.store._describe(self.digest))
        self.store._record(self.digest, entry)

    def abort(self) -> None:
        self.writer.abort()
        # A commit that failed between finalize() and the atomic rename
        # leaves a finalized temp file the writer no longer owns.
        self.writer.path.unlink(missing_ok=True)
