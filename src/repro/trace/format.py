"""The on-disk trace encoding: struct-packed events in framed files.

A trace file holds the complete committed-path event stream of one
interpretation, plus a JSON metadata block carrying everything else a
replay needs to rebuild a bit-identical
:class:`~repro.sim.results.RunResult` (program outputs, retired
instruction count, PBS engine counters, consumed probabilistic values).

Layout::

    header   magic "RPTC" | u16 version | u16 flags (bit0: zlib frames)
    frames   kind u8 (1 = events, 2 = metadata) | u32 length | payload
    trailer  u64 metadata-frame offset | magic "RPTE"

Event frames concatenate fixed-prefix packed records — ``<u32 pc, u8 op,
u8 flags, i8 dest, u8 nsrcs>`` followed by ``nsrcs`` source-register
bytes and optional ``u32 target`` / ``u32 addr`` — and are individually
zlib-compressed when the header flag is set.  ``next_pc`` is never
stored: on the committed path it is always either ``pc + 1`` or the
branch target, so one flag bit reconstructs it exactly.

The trailer makes metadata reads O(1): opening a reader never decodes
event frames.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterator, Union

from ..functional.trace import EventBatch, as_batch_sink
from ..isa.opcodes import OP_CLASS, Op

#: Bump on any incompatible change to the framing or event packing.
FORMAT_VERSION = 1

MAGIC = b"RPTC"
TRAILER_MAGIC = b"RPTE"

HEADER_FLAG_ZLIB = 1

FRAME_EVENTS = 1
FRAME_META = 2

#: Event-flag bits (two high bits carry the ProbMode).
F_COND = 1
F_TAKEN = 2
F_STORE = 4
F_TARGET = 8
F_ADDR = 16
F_NEXT_IS_TARGET = 32
PROB_SHIFT = 6

_HEADER = struct.Struct("<4sHH")
_FRAME = struct.Struct("<BI")
_TRAILER = struct.Struct("<Q4s")
_EVENT = struct.Struct("<IBBbB")
_U32 = struct.Struct("<I")

#: Op value -> (member, functional-unit class), decoded once.
_OP_BY_VALUE: Dict[int, Op] = {int(op): op for op in Op}
_CLASS_BY_VALUE = {int(op): OP_CLASS[op] for op in Op}


class TraceFormatError(Exception):
    """A trace file is truncated, corrupt, or from another version."""


def unpack_events_batch(buffer: bytes, batch: EventBatch) -> None:
    """Decode one event frame's payload, appending its rows to
    ``batch``'s columns."""
    unpack_event = _EVENT.unpack_from
    unpack_u32 = _U32.unpack_from
    ops = _OP_BY_VALUE
    classes = _CLASS_BY_VALUE
    b_pc = batch.pcs.append
    b_op = batch.ops.append
    b_cl = batch.classes.append
    b_de = batch.dests.append
    b_sr = batch.srcs.append
    b_co = batch.conds.append
    b_tk = batch.takens.append
    b_tg = batch.targets.append
    b_nx = batch.next_pcs.append
    b_ad = batch.addrs.append
    b_st = batch.stores.append
    b_pm = batch.prob_modes.append
    offset = 0
    end = len(buffer)
    try:
        while offset < end:
            pc, op_value, flags, dest, nsrcs = unpack_event(buffer, offset)
            offset += 8
            srcs = tuple(buffer[offset:offset + nsrcs])
            if len(srcs) != nsrcs:
                raise TraceFormatError("corrupt event frame: truncated sources")
            offset += nsrcs
            if flags & F_TARGET:
                target = unpack_u32(buffer, offset)[0]
                offset += 4
            else:
                target = None
            if flags & F_ADDR:
                addr = unpack_u32(buffer, offset)[0]
                offset += 4
            else:
                addr = None
            b_pc(pc)
            b_op(ops[op_value])
            b_cl(classes[op_value])
            b_de(dest)
            b_sr(srcs)
            b_co(True if flags & F_COND else False)
            b_tk(True if flags & F_TAKEN else False)
            b_tg(target)
            b_nx(target if flags & F_NEXT_IS_TARGET else pc + 1)
            b_ad(addr)
            b_st(True if flags & F_STORE else False)
            b_pm(flags >> PROB_SHIFT)
    except (struct.error, KeyError) as exc:
        raise TraceFormatError(f"corrupt event frame: {exc!r}") from None


class TraceWriter:
    """Streams packed events into a trace file; usable directly as a sink.

    Frames are flushed to disk as they fill, so memory stays bounded by
    one frame regardless of trace length.  Call :meth:`finalize` with
    the run metadata to write the metadata frame and trailer; an
    unfinalized file is unreadable by design (no trailer magic).

    :meth:`consume_batch` packs records straight from
    :class:`EventBatch` columns, caching the packed bytes per
    ``(pc, flags, target)`` so steady-state capture re-packs nothing.
    The cache assumes what every committed path of one program
    guarantees: a pc always holds the same op, dest and sources.
    """

    def __init__(
        self,
        path: Union[str, Path],
        compress: bool = True,
        events_per_frame: int = 65536,
    ):
        self.path = Path(path)
        self.compress = compress
        self.events_per_frame = events_per_frame
        self.events = 0
        self._buffer: list = []
        self._buffered = 0
        #: (pc, flags, target) -> (op, dest, srcs, packed record sans
        #: addr tail).  A hit is reused only if op/dest/srcs also match,
        #: so a pc that carries different instructions repacks exactly.
        self._pack_cache: Dict[tuple, tuple] = {}
        self._handle = open(self.path, "wb")
        flags = HEADER_FLAG_ZLIB if compress else 0
        self._handle.write(_HEADER.pack(MAGIC, FORMAT_VERSION, flags))
        self._finalized = False

    def consume_batch(self, batch: EventBatch) -> None:
        """Pack a batch's rows into records (see the module docstring).

        Frames flush every ``events_per_frame`` events wherever the
        batch boundaries fall, so the file bytes do not depend on how
        the stream was chunked.
        """
        pcs = batch.pcs
        ops = batch.ops
        dests = batch.dests
        srcs_col = batch.srcs
        conds = batch.conds
        takens = batch.takens
        targets = batch.targets
        next_pcs = batch.next_pcs
        addrs = batch.addrs
        stores = batch.stores
        probs = batch.prob_modes
        buffer = self._buffer
        append = buffer.append
        cache = self._pack_cache
        cache_get = cache.get
        pack_head = _EVENT.pack
        pack_u32 = _U32.pack
        per_frame = self.events_per_frame
        buffered = self._buffered
        for i in range(len(pcs)):
            pc = pcs[i]
            target = targets[i]
            addr = addrs[i]
            flags = probs[i] << PROB_SHIFT
            if conds[i]:
                flags |= F_COND
            if takens[i]:
                flags |= F_TAKEN
            if stores[i]:
                flags |= F_STORE
            next_pc = next_pcs[i]
            if target is not None:
                flags |= F_TARGET
                if next_pc == target:
                    flags |= F_NEXT_IS_TARGET
                elif next_pc != pc + 1:
                    raise TraceFormatError(
                        f"unencodable next_pc {next_pc} at pc {pc}"
                    )
            elif next_pc != pc + 1:
                raise TraceFormatError(
                    f"unencodable next_pc {next_pc} at pc {pc}"
                )
            if addr is not None:
                flags |= F_ADDR
            key = (pc, flags, target)
            op = ops[i]
            dest = dests[i]
            srcs = srcs_col[i]
            entry = cache_get(key)
            if (
                entry is not None
                and entry[0] == op
                and entry[1] == dest
                and entry[2] == srcs
            ):
                record = entry[3]
            else:
                record = pack_head(pc, op, flags, dest, len(srcs)) + bytes(srcs)
                if target is not None:
                    record += pack_u32(target)
                cache[key] = (op, dest, srcs, record)
            if addr is not None:
                record += pack_u32(addr)
            append(record)
            buffered += 1
            if buffered >= per_frame:
                self.events += buffered - self._buffered
                self._buffered = buffered
                self._flush_frame()
                buffered = 0
        self.events += buffered - self._buffered
        self._buffered = buffered

    def _flush_frame(self) -> None:
        if not self._buffered:
            return
        payload = b"".join(self._buffer)
        if self.compress:
            payload = zlib.compress(payload, 1)
        self._handle.write(_FRAME.pack(FRAME_EVENTS, len(payload)))
        self._handle.write(payload)
        self._buffer.clear()
        self._buffered = 0

    def finalize(self, meta: Dict) -> None:
        """Write the metadata frame + trailer and close the file."""
        self._flush_frame()
        meta = dict(meta)
        meta["events"] = self.events
        payload = json.dumps(meta, separators=(",", ":")).encode("utf-8")
        if self.compress:
            payload = zlib.compress(payload, 6)
        meta_offset = self._handle.tell()
        self._handle.write(_FRAME.pack(FRAME_META, len(payload)))
        self._handle.write(payload)
        self._handle.write(_TRAILER.pack(meta_offset, TRAILER_MAGIC))
        self._handle.close()
        self._finalized = True

    def abort(self) -> None:
        """Close and delete a partial file (capture failed mid-run)."""
        if not self._finalized:
            self._handle.close()
            self.path.unlink(missing_ok=True)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()


class TraceReader:
    """Reads a finalized trace file: O(1) metadata, streamed events."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        with open(self.path, "rb") as handle:
            header = handle.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise TraceFormatError(f"{self.path}: truncated header")
            magic, version, flags = _HEADER.unpack(header)
            if magic != MAGIC:
                raise TraceFormatError(f"{self.path}: not a trace file")
            if version != FORMAT_VERSION:
                raise TraceFormatError(
                    f"{self.path}: format v{version}, reader speaks "
                    f"v{FORMAT_VERSION}"
                )
            self.compressed = bool(flags & HEADER_FLAG_ZLIB)
            size = os.fstat(handle.fileno()).st_size
            if size < _HEADER.size + _TRAILER.size:
                raise TraceFormatError(f"{self.path}: truncated file")
            handle.seek(size - _TRAILER.size)
            trailer = handle.read(_TRAILER.size)
            meta_offset, trailer_magic = _TRAILER.unpack(trailer)
            if trailer_magic != TRAILER_MAGIC:
                raise TraceFormatError(
                    f"{self.path}: missing trailer (unfinalized capture?)"
                )
            self._meta_offset = meta_offset
            handle.seek(meta_offset)
            kind, payload = self._read_frame(handle)
            if kind != FRAME_META:
                raise TraceFormatError(f"{self.path}: trailer points at kind {kind}")
            try:
                self.meta: Dict = json.loads(payload)
            except ValueError as exc:
                raise TraceFormatError(
                    f"{self.path}: corrupt metadata: {exc}"
                ) from None

    def _read_frame(self, handle) -> tuple:
        raw = handle.read(_FRAME.size)
        if len(raw) != _FRAME.size:
            raise TraceFormatError(f"{self.path}: truncated frame header")
        kind, length = _FRAME.unpack(raw)
        payload = handle.read(length)
        if len(payload) != length:
            raise TraceFormatError(f"{self.path}: truncated frame payload")
        if self.compressed:
            try:
                payload = zlib.decompress(payload)
            except zlib.error as exc:
                raise TraceFormatError(
                    f"{self.path}: corrupt frame: {exc}"
                ) from None
        return kind, payload

    def _event_payloads(self) -> Iterator[bytes]:
        """Stream the raw (decompressed) event-frame payloads."""
        with open(self.path, "rb") as handle:
            handle.seek(_HEADER.size)
            while handle.tell() < self._meta_offset:
                kind, payload = self._read_frame(handle)
                if kind != FRAME_EVENTS:
                    raise TraceFormatError(
                        f"{self.path}: unexpected frame kind {kind}"
                    )
                yield payload

    def replay(self, sink) -> int:
        """Feed every event to ``sink``; returns the event count.

        The sink's ``consume_batch`` receives one :class:`EventBatch`
        per stored frame, decoded straight into columns; a sink without
        that method is a ``TypeError`` before any frame is read.
        """
        consume = as_batch_sink(sink)
        count = 0
        batch = EventBatch()
        for payload in self._event_payloads():
            unpack_events_batch(payload, batch)
            count += len(batch.pcs)
            consume(batch)
            batch.clear()
        return count

