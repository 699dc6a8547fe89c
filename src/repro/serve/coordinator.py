"""The ``repro-coordinator`` daemon: sweeps as a long-lived service.

One asyncio event loop serves two planes on a single port, routed by
the first line of each connection:

* **Worker plane** — lines starting with ``{`` are newline-delimited
  JSON frames in the :mod:`repro.sim.remote` codec.  A ``repro-worker
  --coordinator host:port`` opens with a ``register`` frame (token,
  protocol and cache version, process count), receives ``run`` frames
  under **lease-based ownership**, and streams ``result`` frames back.
  Any frame from a worker renews its leases; a worker silent for longer
  than ``lease_seconds`` has its in-flight specs requeued for the
  other workers and takes no new work until it speaks again — so a
  killed worker loses nothing but time.  Traces never cross the wire:
  a submitted spec that names a trace store is refused with a 400.

* **HTTP plane** — everything else is HTTP/1.1 with JSON bodies:

  ====================================  =================================
  ``POST /v1/sweeps``                   submit specs or a grid; job id
  ``GET /v1/sweeps/<id>``               job status + counters
  ``GET /v1/sweeps/<id>/results``       chunked NDJSON stream of results
                                        in completion order (``?poll=1``
                                        for a non-blocking snapshot)
  ``GET /v1/workers``                   registered workers
  ``GET /v1/stats``                     daemon-lifetime counters
  ``GET /v1/healthz``                   liveness (never needs auth)
  ====================================  =================================

Identical in-flight specs — across any number of concurrent clients —
share one simulation keyed by the result-cache digest (one run, N
subscribers), and completed specs are answered straight from the
coordinator's sharded :class:`~repro.sim.cache.ResultCache`.  A shared
secret (``--token`` / ``$REPRO_TOKEN``) gates both planes: HTTP clients
send ``Authorization: Bearer <token>``, workers a ``token`` field in
their ``register`` frame.

Everything runs on the event-loop thread, so the scheduler state needs
no locks; :meth:`Coordinator.start` spins the loop up on a background
thread for in-process embedding (tests), while the console script runs
:meth:`Coordinator.serve_async` on the main thread.
"""

from __future__ import annotations

import argparse
import asyncio
import hmac
import json
import logging
import os
import signal
import sys
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from ..sim.cache import CACHE_VERSION, ResultCache
from ..sim.registry import workload_names
from ..sim.remote import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from ..sim.results import RunResult
from ..sim.sweep import RunSpec, Sweep
from .client import DEFAULT_PORT, TOKEN_ENV, parse_coordinator_address

log = logging.getLogger(__name__)

#: Hard ceiling on one HTTP request body (mirrors the frame cap).
MAX_BODY_BYTES = MAX_FRAME_BYTES

#: Specs one job may carry; beyond this a submission is a 400, not an OOM.
MAX_JOB_SPECS = 100_000

#: Completed jobs kept for late polls before the oldest are forgotten.
MAX_RETAINED_JOBS = 256

DEFAULT_LEASE_SECONDS = 30.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: Grid fields a ``{"sweep": {...}}`` submission may set.
_SWEEP_FIELDS = {
    "workloads", "scales", "seeds", "modes", "predictors",
    "harness_options", "pbs_config", "timing", "record_consumed",
    "split_predictors",
}


class _Job:
    """One submission: per-index results plus a completion-order log."""

    def __init__(self, job_id: str, count: int):
        self.id = job_id
        self.specs = count
        self.results: List[Optional[Dict]] = [None] * count
        #: Completion-order entries, exactly what streams to the client.
        self.log: List[Dict] = []
        self.completed = 0
        self.failures = 0
        self.cache_hits = 0        # answered from the coordinator's cache
        self.worker_cache_hits = 0  # answered from a worker's cache
        self.deduped = 0           # attached to an identical in-flight spec
        self.simulated = 0         # simulations this job put on a worker
        self.event = asyncio.Event()

    @property
    def done(self) -> bool:
        return self.completed >= self.specs

    def deliver(self, entry: Dict) -> None:
        index = entry["index"]
        if self.results[index] is not None:
            return
        self.results[index] = entry
        self.log.append(entry)
        self.completed += 1
        if "error" in entry:
            self.failures += 1
        self.event.set()

    def stats(self) -> Dict:
        return {
            "job": self.id,
            "specs": self.specs,
            "completed": self.completed,
            "done": self.done,
            "failures": self.failures,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "worker_cache_hits": self.worker_cache_hits,
            "deduped": self.deduped,
        }


class _Task:
    """One distinct spec digest in flight, with its subscribed jobs."""

    __slots__ = ("digest", "spec", "wire_spec", "waiters", "attempts", "done")

    def __init__(self, digest: str, spec: RunSpec):
        self.digest = digest
        self.spec = spec
        self.wire_spec = spec.to_dict()  # the precomputed run-frame payload
        self.waiters: List[Tuple[_Job, int]] = []
        self.attempts = 0
        self.done = False


class _WorkerLink:
    """Coordinator-side state of one registered worker connection."""

    def __init__(self, name: str, writer, processes: int, address: str):
        self.name = name
        self.writer = writer
        self.processes = processes
        self.capacity = max(1, min(processes * 2, 32))
        self.address = address
        self.inflight: Dict[int, _Task] = {}
        self.last_seen = 0.0
        #: Lease expired: no new work until the worker speaks again.
        self.suspended = False
        #: Worker announced a graceful drain: no new work, ever.
        self.draining = False
        self.completed = 0
        self.requeued = 0

    def available(self) -> bool:
        return (
            not self.suspended
            and not self.draining
            and len(self.inflight) < self.capacity
        )

    def describe(self) -> Dict:
        return {
            "name": self.name,
            "address": self.address,
            "processes": self.processes,
            "capacity": self.capacity,
            "inflight": len(self.inflight),
            "completed": self.completed,
            "requeued": self.requeued,
            "suspended": self.suspended,
            "draining": self.draining,
        }


class Coordinator:
    """The daemon.  See the module docstring for the architecture."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
        cache_dir: Optional[str] = None,
        cache_max_bytes: Optional[int] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = 3,
    ):
        self.host = host
        self.port = port
        self.token = token or None
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.cache_max_bytes = cache_max_bytes
        self._cache_bytes: Optional[int] = None
        self.lease_seconds = lease_seconds
        self.heartbeat_seconds = max(0.05, min(lease_seconds / 4, 5.0))
        self.max_attempts = max_attempts
        self._workers: Dict[str, _WorkerLink] = {}
        self._jobs: Dict[str, _Job] = {}
        self._active: Dict[str, _Task] = {}
        self._pending: Deque[_Task] = deque()
        self._job_seq = 0
        self._run_seq = 0
        self._worker_seq = 0
        # Daemon-lifetime counters (the /v1/stats payload).
        self.jobs_submitted = 0
        self.specs_received = 0
        self.simulated = 0
        self.cache_hits = 0
        self.worker_cache_hits = 0
        self.deduped = 0
        self.requeues = 0
        self.address: Tuple[str, int] = (host, port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._expiry: Optional[asyncio.Task] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------

    @property
    def address_string(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    async def _open(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_FRAME_BYTES + 1024,
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._expiry = self._loop.create_task(self._expiry_loop())

    async def _close(self) -> None:
        if self._expiry is not None:
            self._expiry.cancel()
            self._expiry = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for link in list(self._workers.values()):
            try:
                link.writer.close()
            except Exception:
                pass
        self._workers.clear()

    def start(self) -> "Coordinator":
        """Serve on a background thread (the in-process/test path)."""
        ready = threading.Event()
        failure: List[BaseException] = []

        def runner():
            loop = self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self._open())
            except BaseException as exc:  # bind failure, most likely
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                # stop() nulled self._loop; use the local handle to tear
                # down the server and connection tasks cleanly.
                loop.run_until_complete(self._close())
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(
            target=runner, daemon=True, name="repro-coordinator"
        )
        self._thread.start()
        ready.wait(timeout=10)
        if failure:
            raise failure[0]
        return self

    def stop(self) -> None:
        """Stop a :meth:`start`-ed coordinator and join its thread."""
        loop, self._loop = self._loop, None
        if loop is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def wait_for_workers(self, count: int, timeout: float = 10.0) -> bool:
        """Block (off-loop) until ``count`` workers are registered."""
        import time as _time

        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            if len(self._workers) >= count:
                return True
            _time.sleep(0.02)
        return len(self._workers) >= count

    async def serve_async(self) -> None:
        """Run on the current loop until SIGINT/SIGTERM (the CLI path)."""
        self._loop = asyncio.get_running_loop()
        await self._open()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover — non-POSIX
                pass
        print(
            f"repro-coordinator listening on {self.address_string} "
            f"(protocol v{PROTOCOL_VERSION}, cache v{CACHE_VERSION}, "
            f"lease {self.lease_seconds:g}s"
            + (", token required" if self.token else "")
            + ")",
            file=sys.stderr, flush=True,
        )
        await stop.wait()
        print("repro-coordinator: shutting down", file=sys.stderr, flush=True)
        await self._close()

    def _log(self, message: str) -> None:
        log.info("[repro-coordinator %s] %s", self.address_string, message)

    # -- connection routing ---------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            first = await reader.readline()
        except (OSError, ValueError):
            first = b""
        if not first:
            writer.close()
            return
        try:
            if first.lstrip().startswith(b"{"):
                await self._serve_worker(first, reader, writer)
            else:
                await self._serve_http(first, reader, writer)
        except (OSError, ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-conversation
        except Exception as exc:  # never let one connection kill the loop
            self._log(f"connection error: {exc!r}")
        finally:
            try:
                writer.close()
            except Exception:
                pass

    # -- worker plane ---------------------------------------------------

    async def _send_frame(self, writer, message: Dict) -> None:
        writer.write(encode_frame(message))
        await writer.drain()

    async def _serve_worker(self, first: bytes, reader, writer) -> None:
        try:
            frame = decode_frame(first)
        except ProtocolError as exc:
            await self._send_frame(writer, {"type": "error", "message": str(exc)})
            return
        if frame.get("type") != "register":
            await self._send_frame(writer, {
                "type": "error",
                "message": f"expected register, got {frame.get('type')!r}",
            })
            return
        if self.token and not hmac.compare_digest(
            str(frame.get("token") or ""), self.token
        ):
            await self._send_frame(writer, {
                "type": "error",
                "message": "unauthorized: bad or missing worker token",
            })
            return
        if (
            frame.get("protocol") != PROTOCOL_VERSION
            or frame.get("cache_version") != CACHE_VERSION
        ):
            await self._send_frame(writer, {
                "type": "error",
                "message": (
                    "registration rejected: coordinator speaks protocol "
                    f"{PROTOCOL_VERSION} / cache v{CACHE_VERSION}, worker "
                    f"sent {frame.get('protocol')!r} / "
                    f"{frame.get('cache_version')!r}"
                ),
            })
            return
        try:
            processes = max(1, int(frame.get("processes") or 1))
        except (TypeError, ValueError):
            processes = 1
        self._worker_seq += 1
        name = f"{frame.get('name') or 'worker'}-{self._worker_seq}"
        peer = writer.get_extra_info("peername") or ("?", 0)
        link = _WorkerLink(name, writer, processes, f"{peer[0]}:{peer[1]}")
        link.last_seen = self._loop.time()
        self._workers[name] = link
        await self._send_frame(writer, {
            "type": "registered",
            "worker": name,
            "lease_seconds": self.lease_seconds,
            "heartbeat_seconds": self.heartbeat_seconds,
        })
        self._log(
            f"worker {name} registered from {link.address} "
            f"(processes={processes})"
        )
        self._dispatch()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                try:
                    message = decode_frame(line)
                except ProtocolError as exc:
                    await self._send_frame(
                        writer, {"type": "error", "message": str(exc)}
                    )
                    return
                # Any frame renews this worker's leases.
                link.last_seen = self._loop.time()
                if link.suspended:
                    link.suspended = False
                    self._dispatch()
                kind = message["type"]
                if kind == "result":
                    self._worker_result(link, message)
                elif kind == "error":
                    self._worker_error(link, message)
                elif kind == "heartbeat":
                    pass
                elif kind == "ping":
                    await self._send_frame(writer, {"type": "pong"})
                elif kind == "draining":
                    link.draining = True
                    self._log(f"worker {name} draining")
                elif kind == "bye":
                    return
                else:
                    await self._send_frame(writer, {
                        "type": "error",
                        "message": f"unexpected frame type {kind!r}",
                    })
                    return
        finally:
            self._unregister(link)

    def _unregister(self, link: _WorkerLink) -> None:
        self._workers.pop(link.name, None)
        dropped = list(link.inflight.values())
        link.inflight.clear()
        if dropped:
            link.requeued += len(dropped)
            self._log(
                f"worker {link.name} disconnected with {len(dropped)} "
                "specs in flight; requeueing"
            )
            self._requeue(dropped, f"worker {link.name} disconnected")
        else:
            self._log(f"worker {link.name} disconnected")

    # -- scheduling -----------------------------------------------------

    def _pick_worker(self) -> Optional[_WorkerLink]:
        best = None
        best_load = 2.0
        for link in self._workers.values():
            if not link.available():
                continue
            load = len(link.inflight) / link.capacity
            if load < best_load:
                best, best_load = link, load
        return best

    def _dispatch(self) -> None:
        while self._pending:
            link = self._pick_worker()
            if link is None:
                return
            task = self._pending.popleft()
            if task.done:
                continue
            self._assign(link, task)

    def _assign(self, link: _WorkerLink, task: _Task) -> None:
        self._run_seq += 1
        run_id = self._run_seq
        link.inflight[run_id] = task
        # Run frames are small; the kernel buffer absorbs them without
        # an explicit drain (worker reads keep the window bounded).
        link.writer.write(encode_frame({
            "type": "run",
            "id": run_id,
            "spec": task.wire_spec,
            "digest": task.digest,
        }))

    def _requeue(self, tasks: List[_Task], reason: str) -> None:
        for task in tasks:
            if task.done:
                continue
            task.attempts += 1
            self.requeues += 1
            if task.attempts >= self.max_attempts:
                self._task_failed(task, reason)
            else:
                self._pending.append(task)
        self._dispatch()

    def _task_failed(self, task: _Task, reason: str) -> None:
        task.done = True
        self._active.pop(task.digest, None)
        for job, index in task.waiters:
            job.deliver({
                "index": index,
                "error": (
                    f"spec failed after {task.attempts} attempts; "
                    f"last error: {reason}"
                ),
            })

    def _worker_result(self, link: _WorkerLink, message: Dict) -> None:
        task = link.inflight.pop(message.get("id"), None)
        if task is None:
            return  # late result for a re-leased spec: already handled
        link.completed += 1
        if task.done:
            self._dispatch()
            return
        result_dict = message.get("result")
        try:
            result = RunResult.from_dict(result_dict)
        except Exception as exc:
            self._requeue(
                [task], f"malformed result from {link.name}: {exc!r}"
            )
            return
        cached = bool(message.get("cached"))
        if self.cache is not None and not cached:
            try:
                self.cache.put(task.digest, result)
            except OSError as exc:  # pragma: no cover — disk trouble
                self._log(f"cache write failed for {task.digest[:12]}: {exc}")
            else:
                self._enforce_cache_budget(task.digest)
        self._finish_task(task, result_dict, cached,
                          engine=message.get("engine"),
                          engine_hit=bool(message.get("engine_hit")))
        self._dispatch()

    def _finish_task(self, task: _Task, result_dict: Dict,
                     cached: bool, engine=None,
                     engine_hit: bool = False) -> None:
        task.done = True
        self._active.pop(task.digest, None)
        if cached:
            self.worker_cache_hits += 1
        else:
            self.simulated += 1
        for position, (job, index) in enumerate(task.waiters):
            if position == 0:  # the job that put the spec on a worker
                if cached:
                    job.worker_cache_hits += 1
                else:
                    job.simulated += 1
            entry = {"index": index, "result": result_dict, "cached": cached}
            if engine:
                entry["engine"] = engine
                entry["engine_hit"] = engine_hit
            job.deliver(entry)

    def _worker_error(self, link: _WorkerLink, message: Dict) -> None:
        run_id = message.get("id")
        reason = message.get("message", "unspecified worker error")
        if run_id is None:
            self._log(f"worker {link.name}: {reason}")
            return
        task = link.inflight.pop(run_id, None)
        if task is None:
            return
        link.requeued += 1
        self._requeue([task], f"{link.name}: {reason}")

    async def _expiry_loop(self) -> None:
        interval = max(0.05, self.lease_seconds / 4)
        while True:
            await asyncio.sleep(interval)
            now = self._loop.time()
            for link in list(self._workers.values()):
                if not link.inflight:
                    continue
                if now - link.last_seen <= self.lease_seconds:
                    continue
                expired = list(link.inflight.values())
                link.inflight.clear()
                link.suspended = True
                link.requeued += len(expired)
                self._log(
                    f"worker {link.name}: lease expired "
                    f"({len(expired)} specs requeued)"
                )
                self._requeue(expired, f"lease expired on {link.name}")

    # -- submissions ----------------------------------------------------

    def _parse_submission(self, payload) -> List[RunSpec]:
        if not isinstance(payload, dict):
            raise ValueError("body must be a JSON object")
        if ("specs" in payload) == ("sweep" in payload):
            raise ValueError('submit exactly one of "specs" or "sweep"')
        if "sweep" in payload:
            grid = payload["sweep"]
            if not isinstance(grid, dict):
                raise ValueError('"sweep" must be a JSON object')
            unknown = sorted(set(grid) - _SWEEP_FIELDS)
            if unknown:
                raise ValueError(
                    f"unknown sweep fields {unknown}; "
                    f"known: {sorted(_SWEEP_FIELDS)}"
                )
            try:
                specs = Sweep(**grid).specs()
            except Exception as exc:
                raise ValueError(f"bad sweep grid: {exc}") from None
        else:
            raw = payload["specs"]
            if not isinstance(raw, list) or not raw:
                raise ValueError('"specs" must be a non-empty array')
            specs = []
            for i, obj in enumerate(raw):
                try:
                    spec = RunSpec.from_dict(obj)
                except Exception as exc:
                    raise ValueError(
                        f"specs[{i}]: undecodable spec: {exc}"
                    ) from None
                if spec.trace_store is not None:
                    raise ValueError(
                        f"specs[{i}]: names trace store "
                        f"{spec.trace_store!r}; trace stores are local and "
                        "traces never cross the wire, so run trace-store "
                        "sweeps on a local executor"
                    )
                specs.append(spec)
        known = set(workload_names())
        for i, spec in enumerate(specs):
            if spec.workload not in known:
                raise ValueError(
                    f"specs[{i}]: unknown workload {spec.workload!r}; "
                    f"registered: {sorted(known)}"
                )
        if len(specs) > MAX_JOB_SPECS:
            raise ValueError(
                f"{len(specs)} specs exceed the {MAX_JOB_SPECS} per-job limit"
            )
        return specs

    def _submit(self, specs: List[RunSpec]) -> _Job:
        self._job_seq += 1
        job = _Job(f"j{self._job_seq}", len(specs))
        self._jobs[job.id] = job
        self.jobs_submitted += 1
        self.specs_received += len(specs)
        for index, spec in enumerate(specs):
            digest = spec.digest()
            if self.cache is not None:
                hit = self.cache.get(digest)
                if hit is not None:
                    job.cache_hits += 1
                    self.cache_hits += 1
                    job.deliver({
                        "index": index,
                        "result": hit.to_dict(),
                        "cached": True,
                    })
                    continue
            task = self._active.get(digest)
            if task is not None and not task.done:
                task.waiters.append((job, index))
                job.deduped += 1
                self.deduped += 1
                continue
            task = _Task(digest, spec)
            task.waiters.append((job, index))
            self._active[digest] = task
            self._pending.append(task)
        self._prune_jobs()
        self._dispatch()
        self._log(f"job {job.id}: {job.specs} specs submitted "
                  f"({job.cache_hits} cached, {job.deduped} deduped)")
        return job

    def _prune_jobs(self) -> None:
        while len(self._jobs) > MAX_RETAINED_JOBS:
            oldest = next(iter(self._jobs))
            if not self._jobs[oldest].done:
                return  # never drop a live job
            del self._jobs[oldest]

    def _enforce_cache_budget(self, digest: str) -> None:
        if self.cache_max_bytes is None or self.cache is None:
            return
        if self._cache_bytes is None:
            self._cache_bytes = sum(
                self._entry_size(d) for d in self.cache.digests()
            )
        else:
            self._cache_bytes += self._entry_size(digest)
        if self._cache_bytes <= self.cache_max_bytes:
            return
        # Evict in manifest (insertion) order — oldest entries first.
        for victim in self.cache.digests():
            if self._cache_bytes <= self.cache_max_bytes:
                break
            if victim == digest:
                continue  # never evict the entry that triggered the gc
            size = self._entry_size(victim)
            if self.cache.remove(victim):
                self._cache_bytes -= size
                self._log(f"cache over budget: evicted {victim[:12]}")

    def _entry_size(self, digest: str) -> int:
        try:
            return self.cache.path(digest).stat().st_size
        except OSError:
            return 0

    def stats_payload(self) -> Dict:
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_retained": len(self._jobs),
            "specs_received": self.specs_received,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "worker_cache_hits": self.worker_cache_hits,
            "deduped": self.deduped,
            "requeues": self.requeues,
            "pending": len(self._pending),
            "active": len(self._active),
            "workers": len(self._workers),
        }

    # -- HTTP plane -----------------------------------------------------

    async def _serve_http(self, first: bytes, reader, writer) -> None:
        parts = first.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            await self._http_json(writer, 400, {"error": "malformed request line"})
            return
        method, target = parts[0], parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            await self._http_json(writer, 400, {"error": "bad Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            await self._http_json(writer, 413, {
                "error": (
                    f"body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES} limit"
                ),
            })
            return
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        if self.token and path != "/v1/healthz":
            supplied = headers.get("authorization", "")
            if not hmac.compare_digest(supplied, f"Bearer {self.token}"):
                await self._http_json(writer, 401, {
                    "error": "unauthorized: bad or missing bearer token",
                })
                return
        await self._route(writer, method, path, query, body)

    async def _route(self, writer, method: str, path: str,
                     query: str, body: bytes) -> None:
        if path == "/v1/healthz":
            await self._http_json(writer, 200 if method == "GET" else 405, {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "cache_version": CACHE_VERSION,
                "workers": len(self._workers),
                "jobs": len(self._jobs),
            } if method == "GET" else {"error": "GET only"})
            return
        if path == "/v1/workers":
            if method != "GET":
                await self._http_json(writer, 405, {"error": "GET only"})
                return
            await self._http_json(writer, 200, {
                "workers": [
                    link.describe() for link in self._workers.values()
                ],
            })
            return
        if path == "/v1/stats":
            if method != "GET":
                await self._http_json(writer, 405, {"error": "GET only"})
                return
            await self._http_json(writer, 200, self.stats_payload())
            return
        if path == "/v1/sweeps":
            if method != "POST":
                await self._http_json(writer, 405, {"error": "POST only"})
                return
            try:
                payload = json.loads(body) if body else None
            except ValueError as exc:
                await self._http_json(writer, 400, {
                    "error": f"request body is not JSON: {exc}",
                })
                return
            try:
                specs = self._parse_submission(payload)
            except ValueError as exc:
                await self._http_json(writer, 400, {"error": str(exc)})
                return
            job = self._submit(specs)
            await self._http_json(writer, 200, {
                "job": job.id, "specs": job.specs,
            })
            return
        if path.startswith("/v1/sweeps/"):
            rest = path[len("/v1/sweeps/"):]
            streaming = rest.endswith("/results")
            job_id = rest[: -len("/results")] if streaming else rest
            job = self._jobs.get(job_id)
            if job is None or "/" in job_id:
                await self._http_json(writer, 404, {
                    "error": f"no such job {job_id!r}",
                })
                return
            if method != "GET":
                await self._http_json(writer, 405, {"error": "GET only"})
                return
            if not streaming:
                await self._http_json(writer, 200, job.stats())
                return
            if "poll" in parse_qs(query):
                await self._http_json(writer, 200, {
                    "entries": job.log, **job.stats(),
                })
                return
            await self._stream_results(writer, job)
            return
        await self._http_json(writer, 404, {
            "error": f"no such endpoint {method} {path}",
        })

    async def _http_json(self, writer, status: int, payload: Dict) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        reason = _REASONS.get(status, "?")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1") + body
        )
        await writer.drain()

    async def _write_chunk(self, writer, text: str) -> None:
        data = text.encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await writer.drain()

    async def _stream_results(self, writer, job: _Job) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        position = 0
        while True:
            while position < len(job.log):
                entry = job.log[position]
                position += 1
                await self._write_chunk(
                    writer,
                    json.dumps(entry, separators=(",", ":")) + "\n",
                )
            if job.done and position >= len(job.log):
                break
            job.event.clear()
            if position < len(job.log):
                continue  # a delivery raced the clear; consume it first
            await job.event.wait()
        await self._write_chunk(
            writer, json.dumps({"done": True, **job.stats()}) + "\n"
        )
        writer.write(b"0\r\n\r\n")
        await writer.drain()


def coordinator_main(argv=None) -> int:
    """Entry point of the ``repro-coordinator`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-coordinator",
        description=(
            "Sweep-as-a-service daemon: accepts jobs over an HTTP/JSON "
            "API and fans them out to auto-registered repro-worker "
            "daemons under lease-based ownership"
        ),
    )
    parser.add_argument(
        "--listen", default=f"127.0.0.1:{DEFAULT_PORT}", metavar="HOST:PORT",
        help=(
            f"address to bind (default 127.0.0.1:{DEFAULT_PORT}; "
            "port 0 = ephemeral)"
        ),
    )
    parser.add_argument(
        "--token", default=None,
        help=(
            "shared secret gating both planes "
            f"(default: ${TOKEN_ENV}; unset = open access)"
        ),
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="server-side sharded result cache; warm specs never hit a worker",
    )
    parser.add_argument(
        "--cache-max-bytes", default=None, metavar="SIZE",
        help=(
            "byte budget for --cache-dir (e.g. 512M, 2G): oldest entries "
            "are evicted when a result write pushes the cache past it"
        ),
    )
    parser.add_argument(
        "--lease-seconds", type=float, default=DEFAULT_LEASE_SECONDS,
        metavar="S",
        help=(
            "worker lease: a worker silent this long has its in-flight "
            f"specs rescheduled (default {DEFAULT_LEASE_SECONDS:g})"
        ),
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="reschedules before a spec is reported failed (default 3)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="log scheduling decisions to stderr",
    )
    args = parser.parse_args(argv)
    host, port = parse_coordinator_address(args.listen)
    cache_max_bytes = None
    if args.cache_max_bytes is not None:
        from ..storage import parse_size

        if args.cache_dir is None:
            parser.error("--cache-max-bytes requires --cache-dir")
        try:
            cache_max_bytes = parse_size(args.cache_max_bytes)
        except ValueError as exc:
            parser.error(str(exc))
    if args.lease_seconds <= 0:
        parser.error("--lease-seconds must be positive")
    coordinator = Coordinator(
        host=host, port=port,
        token=args.token if args.token is not None
        else os.environ.get(TOKEN_ENV) or None,
        cache_dir=args.cache_dir,
        cache_max_bytes=cache_max_bytes,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
    )
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        asyncio.run(coordinator.serve_async())
    except KeyboardInterrupt:  # pragma: no cover — belt and braces
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(coordinator_main())
