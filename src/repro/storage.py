"""Helpers shared by the on-disk content-addressed stores.

Both the sweep :class:`~repro.sim.cache.ResultCache` and the
:class:`~repro.trace.TraceStore` keep one file per entry, named by the
SHA-256 digest of the entry's canonical key and **sharded** into 256
subdirectories by digest prefix (``<root>/3f/3f9a...e1<suffix>``), and
publish each file through a per-writer temp file and an atomic
``os.replace``, so writers racing on one digest never corrupt it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Dict

#: Hex characters of the digest used as the shard directory name.
SHARD_CHARS = 2


def canonical_digest(payload: Dict) -> str:
    """Stable SHA-256 of a canonical (JSON-serializable) key payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def temp_path(path: Path) -> Path:
    """A per-writer staging file next to ``path``: writers racing on one
    digest each stage their own file, and the atomic replaces leave
    whichever finished last."""
    return path.with_name(
        f".{path.stem}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
