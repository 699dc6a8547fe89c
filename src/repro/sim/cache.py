"""On-disk memoization of completed simulation runs.

Results are stored one JSON file per run, named by the SHA-256 digest of
the run's canonical specification (workload, scale, seed, mode, predictor
set, PBS/core configuration and a cache-format version) and **sharded**
into 256 subdirectories by digest prefix::

    <root>/
        manifest.jsonl          # one line per entry: digest + metadata
        3f/3f9a...e1.json
        a0/a07c...42.json

Sharding keeps directory listings fast at millions of entries, and the
append-only ``manifest.jsonl`` index gives O(1) ``len()``, ``stats()``
and digest-prefix lookup without touching the shard directories.  Entry
writes go through a per-process temp file and an atomic ``os.replace``,
and manifest appends are single ``O_APPEND`` writes, so concurrent
writers — even racing on the same digest — never corrupt the cache.

Caches written by the flat v1 layout (``<root>/<digest>.json``) are
migrated in place, transparently, the first time they are opened.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..storage import SHARD_CHARS, canonical_digest, temp_path
from .results import RunResult

#: Bump when RunResult serialization or simulation semantics change in a
#: way that invalidates previously cached results.  (The v1 -> sharded
#: *layout* change did not alter digests, so migrated entries keep
#: hitting.)
CACHE_VERSION = 1

MANIFEST_NAME = "manifest.jsonl"

_DIGEST_LEN = 64  # hex SHA-256


def spec_digest(payload: Dict) -> str:
    """Stable digest of a canonical (JSON-serializable) run spec."""
    payload = dict(payload)
    payload["__cache_version__"] = CACHE_VERSION
    return canonical_digest(payload)


def looks_like_digest(stem: str) -> bool:
    if len(stem) != _DIGEST_LEN:
        return False
    return all(ch in "0123456789abcdef" for ch in stem)


class ResultCache:
    """A sharded directory of ``<digest[:2]>/<digest>.json`` files.

    :meth:`get`/:meth:`put` are the :class:`RunResult` codec; everything
    below them — sharding, the manifest index, atomic writes,
    ``clear()`` — works on any text payload through :meth:`write_entry`.
    """

    #: Filename suffix of one entry.
    suffix = ".json"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._index: Optional[Dict[str, Dict]] = None
        self._migrate_v1()
        if not self.manifest_path.exists():
            # Rebuild the index from the shards now, before any put()
            # writes an entry the rebuild scan could mistake for a
            # pre-existing metadata-less one.  When a manifest exists
            # the index loads lazily — the fully-warm read path (get()
            # only) never pays for reading it.
            self._load_index()

    def _migrate_v1(self) -> int:
        """Move flat ``<root>/<digest>.json`` entries into shards."""
        moved = 0
        for path in self.root.glob("*.json"):
            if not looks_like_digest(path.stem):
                continue
            target = self.path(path.stem)
            target.parent.mkdir(exist_ok=True)
            try:
                os.replace(path, target)
            except FileNotFoundError:
                continue  # a concurrent opener migrated this entry first
            self._record(path.stem, self._entry_meta(path.stem))
            moved += 1
        return moved

    # -- layout ---------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def path(self, digest: str) -> Path:
        return self.root / digest[:SHARD_CHARS] / f"{digest}{self.suffix}"

    def _entry_meta(self, digest: str) -> Dict:
        """Manifest entry for ``digest``, with run metadata recovered
        from the stored JSON (pre-manifest entries: migration, rebuild)."""
        entry = {"digest": digest}
        try:
            data = json.loads(self.path(digest).read_text())
        except (OSError, ValueError):
            return entry
        if isinstance(data, dict) and "workload" in data:
            entry.update({
                "workload": data["workload"],
                "scale": data.get("scale"),
                "seed": data.get("seed"),
                "mode": "pbs" if data.get("pbs") else "base",
            })
        return entry

    # -- manifest index -------------------------------------------------

    def _load_index(self) -> Dict[str, Dict]:
        """digest -> manifest entry, loaded lazily from ``manifest.jsonl``.

        Lines for one digest are **merged**, later keys winning.  A
        truncated trailing line from a crashed writer is skipped.  When
        the manifest is missing but shards exist — deleted by hand, or
        an older cache — it is rebuilt from the shard listing.
        """
        if self._index is not None:
            return self._index
        index: Dict[str, Dict] = {}
        if self.manifest_path.exists():
            for line in self.manifest_path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                digest = entry.get("digest")
                if digest:
                    merged = index.get(digest)
                    index[digest] = (
                        {**merged, **entry} if merged is not None else entry
                    )
        else:
            for path in sorted(self.root.glob(f"??/*{self.suffix}")):
                if looks_like_digest(path.stem):
                    index[path.stem] = self._entry_meta(path.stem)
            if index:
                with open(self.manifest_path, "a") as handle:
                    for entry in index.values():
                        handle.write(
                            json.dumps(entry, sort_keys=True) + "\n"
                        )
        self._index = index
        return index

    def _record(self, digest: str, entry: Dict) -> None:
        if self._index is None:
            # Index not loaded: append without paying the O(entries)
            # manifest parse just to dedup one line — duplicate lines
            # are tolerated on read (later lines win).
            self._append(entry)
            return
        existing = self._index.get(digest)
        if existing is not None and len(existing) >= len(entry):
            return  # already indexed with at least as much metadata
        self._index[digest] = entry
        self._append(entry)

    def _append(self, entry: Dict) -> None:
        # A single small O_APPEND write: atomic on POSIX, so concurrent
        # writers interleave whole lines rather than corrupting them.
        with open(self.manifest_path, "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    # -- entries --------------------------------------------------------

    def get(self, digest: str) -> Optional[RunResult]:
        path = self.path(digest)
        try:
            result = RunResult.from_json(path.read_text())
        except (OSError, ValueError, KeyError, TypeError):
            # Missing or corrupt entry: treat as a miss and re-simulate.
            self.misses += 1
            return None
        self.hits += 1
        result.cached = True
        return result

    def put(self, digest: str, result: RunResult) -> None:
        self.write_entry(digest, result.to_json(), meta={
            "workload": result.workload,
            "scale": result.scale,
            "seed": result.seed,
            "mode": "pbs" if result.pbs else "base",
        })

    def write_entry(self, digest: str, payload: str,
                    meta: Optional[Dict] = None) -> Path:
        """Atomically write one entry and index it in the manifest."""
        path = self.path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = temp_path(path)
        try:
            tmp.write_text(payload)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)  # only present if the write failed
        entry = {"digest": digest}
        entry.update(meta or {})
        self._record(digest, entry)
        return path

    def digests(self, prefix: str = "") -> List[str]:
        """All indexed digests starting with ``prefix``, sorted."""
        # Snapshot before filtering: another thread recording an entry
        # mid-iteration must not raise "dict changed size".
        return sorted(
            d for d in list(self._load_index()) if d.startswith(prefix)
        )

    def entry(self, digest: str) -> Optional[Dict]:
        """The manifest entry for ``digest``, or ``None``."""
        return self._load_index().get(digest)

    def stats(self) -> Dict:
        """Index-backed summary: entry/shard counts, session hit rates
        and entries per workload."""
        index = dict(self._load_index())  # snapshot against concurrent puts
        by_workload = Counter(
            entry["workload"] for entry in index.values()
            if entry.get("workload")
        )
        return {
            "entries": len(index),
            "shards": len({digest[:SHARD_CHARS] for digest in index}),
            "hits": self.hits,
            "misses": self.misses,
            "by_workload": dict(sorted(by_workload.items())),
        }

    def remove(self, digest: str) -> bool:
        """Drop one entry's file and forget it in the in-memory index.

        The manifest keeps its (now stale) line until the next rebuild;
        readers treat a missing file as a plain miss.
        """
        index = self._load_index()
        existed = self.path(digest).exists()
        self.path(digest).unlink(missing_ok=True)
        index.pop(digest, None)
        return existed

    def clear(self) -> int:
        removed = 0
        for shard in self.root.glob("??"):
            if not shard.is_dir():
                continue
            for path in shard.iterdir():
                if path.is_file():
                    if path.suffix == self.suffix:
                        removed += 1
                    path.unlink()  # entries and stray .tmp files alike
            if not any(shard.iterdir()):
                shard.rmdir()
        self.manifest_path.unlink(missing_ok=True)
        self._index = {}
        return removed

    def __len__(self) -> int:
        return len(self._load_index())

    def __contains__(self, digest: str) -> bool:
        return digest in self._load_index()
