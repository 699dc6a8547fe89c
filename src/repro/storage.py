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
from typing import Dict, Union

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


#: Suffix multipliers for :func:`parse_size` (binary, like ``ls -h``).
_SIZE_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": 1024,
    "kb": 1024,
    "kib": 1024,
    "m": 1024 ** 2,
    "mb": 1024 ** 2,
    "mib": 1024 ** 2,
    "g": 1024 ** 3,
    "gb": 1024 ** 3,
    "gib": 1024 ** 3,
    "t": 1024 ** 4,
    "tb": 1024 ** 4,
    "tib": 1024 ** 4,
}


def parse_size(text: Union[str, int]) -> int:
    """A human byte count — ``"500000"``, ``"64M"``, ``"1.5GiB"`` — in bytes.

    Suffixes are binary (``k`` = 1024) and case-insensitive; a bare
    non-negative int passes through unchanged, so programmatic callers
    and the CLI agree on what a plain number means.  Negative sizes —
    bare ints included — and anything unparsable raise ``ValueError``
    with a message naming the offending input.
    """
    if isinstance(text, bool):
        # bool is an int subclass; a byte budget of True is a bug.
        raise ValueError(f"size must be a byte count, not {text!r}")
    if isinstance(text, int):
        size = text
    else:
        raw = text.strip().lower()
        number = raw.rstrip("kmgtib")
        suffix = raw[len(number):]
        try:
            multiplier = _SIZE_SUFFIXES[suffix]
            size = int(float(number) * multiplier)
        except (KeyError, ValueError, OverflowError):  # OverflowError: "inf"
            raise ValueError(
                f"unparsable size {text!r}; want e.g. 500000, 64M or 1.5GiB"
            ) from None
    if size < 0:
        raise ValueError(f"size may not be negative, got {text!r}")
    return size
