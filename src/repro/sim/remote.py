"""The worker half of distributed sweeps: wire protocol and worker daemon.

This module holds what a simulation worker needs to serve a
``repro-coordinator`` (:mod:`repro.serve.coordinator`), the scheduler
that fans :class:`~repro.sim.sweep.Sweep` grids out across machines:

* **Wire protocol** — newline-delimited JSON frames (one message object
  per line, ``\\n``-terminated) over a plain TCP socket.  Every frame is
  a dict with a ``"type"`` key; :func:`encode_frame` / :func:`decode_frame`
  are the only codec.  A worker opens with a ``register`` frame that
  carries the protocol version *and* the cache/digest version, so a
  worker that would compute different spec digests is refused instead
  of silently polluting the fleet's caches.

* **Worker daemon** — :class:`CoordinatorWorker`, exposed on the command
  line as ``repro-worker --coordinator host:port --processes N
  --cache-dir ...``.  It dials the coordinator, simulates each leased
  spec with the existing Session machinery (inline for ``--processes
  1``, on a :class:`~repro.sim.executors.WorkerPoolExecutor`
  otherwise), answers warm requests
  straight from its sharded :class:`~repro.sim.cache.ResultCache`, and
  streams ``result`` frames back as they complete.

Message frames
--------------

====================  =====================================================
``register``          worker -> coordinator: ``protocol``,
                      ``cache_version``, ``processes`` and optional
                      ``token``/``name``; answered with ``registered``
                      (``worker``, ``lease_seconds``,
                      ``heartbeat_seconds``) or ``error``
``run``               ``{"id": n, "spec": RunSpec.to_dict(), "digest":
                      sha256}``
``result``            ``{"id": n, "result": RunResult.to_dict(),
                      "cached": bool}`` plus ``"engine"``/
                      ``"engine_hit"``/``"sink_batches"``: which
                      execution tier ran the spec, whether it reused
                      generated code, and how many event batches its
                      sinks received (absent on a cache hit)
``error``             ``{"message": str}`` plus ``"id"`` when tied to
                      one spec
``heartbeat``         worker -> coordinator: renews the worker's leases
``draining``          worker -> coordinator: assign no new work
``ping``              liveness probe; answered with ``pong``
``bye``               clean shutdown
====================  =====================================================

Traces never cross the wire: a spec that names a trace store is
refused at submission, and a worker interprets every spec it runs.
"""

from __future__ import annotations

import argparse
import json
import logging
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
from collections import deque
from typing import Dict, Optional, Sequence, Tuple, Union

from .cache import CACHE_VERSION, ResultCache
from .executors import WorkerPoolExecutor, _execute_spec
from .results import RunResult
from .sweep import RunSpec

log = logging.getLogger(__name__)

#: Bump on incompatible frame/handshake changes.
#: v3: no trace directive, trace frames or ``register.trace_store``.
PROTOCOL_VERSION = 3

#: Hard ceiling on one frame; anything larger is treated as corrupt.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(Exception):
    """A malformed, truncated or protocol-violating frame."""


class _FatalWorkerError(Exception):
    """The coordinator refused this worker (bad token, version
    mismatch): reconnecting cannot help."""


# ----------------------------------------------------------------------
# Framing.
# ----------------------------------------------------------------------

def encode_frame(message: Dict) -> bytes:
    """One message -> one ``\\n``-terminated JSON line.

    ``ensure_ascii`` keeps every byte printable, so a frame can never
    contain an embedded newline and the framing stays unambiguous.
    """
    raw = json.dumps(message, separators=(",", ":")).encode("ascii") + b"\n"
    if len(raw) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(raw)} bytes exceeds the {MAX_FRAME_BYTES} limit"
        )
    return raw


def decode_frame(raw: bytes) -> Dict:
    """The inverse of :func:`encode_frame`, rejecting anything dubious."""
    if len(raw) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(raw)} bytes exceeds the {MAX_FRAME_BYTES} limit"
        )
    if not raw.endswith(b"\n"):
        raise ProtocolError("truncated frame: missing newline terminator")
    try:
        message = json.loads(raw)
    except ValueError as exc:
        raise ProtocolError(f"corrupt frame: {exc}") from None
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("frame is not a message object with a 'type'")
    return message


def _read_frame(rfile) -> Optional[Dict]:
    """Next frame from a buffered reader; ``None`` on clean EOF."""
    line = rfile.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    return decode_frame(line)


# ----------------------------------------------------------------------
# The worker daemon.
# ----------------------------------------------------------------------

class CoordinatorWorker:
    """A ``repro-worker`` that dials into a ``repro-coordinator``:
    ``repro-worker --coordinator host:port``.

    The worker opens one TCP connection, sends a ``register`` frame
    (token, protocol and cache version, process count), and then serves
    ``run`` frames the coordinator pushes under its lease.  A heartbeat
    frame every ``heartbeat_seconds`` (announced by the coordinator at
    registration) keeps the lease alive while long specs simulate; if
    the connection drops, the worker reconnects and re-registers with
    backoff while the coordinator reschedules whatever it was leasing.

    ``processes <= 1`` simulates inline on the connection thread;
    larger values run specs on a
    :class:`~repro.sim.executors.WorkerPoolExecutor` of that width,
    served by its own thread.  A simulation process that dies turns
    into an ``error`` frame for its run id, so the coordinator's retry
    policy decides what happens to the spec.  With ``cache_dir``
    set, the worker answers warm specs from its sharded
    :class:`ResultCache` without re-simulating.  ``fail_after=N`` is
    a test hook: the worker severs its connection after its N-th
    ``run`` frame, simulating a worker killed mid-grid.
    """

    def __init__(
        self,
        coordinator: Union[str, Tuple[str, int]],
        processes: int = 1,
        cache_dir: Optional[str] = None,
        token: Optional[str] = None,
        name: Optional[str] = None,
        fail_after: Optional[int] = None,
        timeout: float = 300.0,
        reconnect_attempts: int = 5,
        reconnect_delay: float = 0.2,
        protocol_version: int = PROTOCOL_VERSION,
        cache_version: int = CACHE_VERSION,
    ):
        # Lazy: repro.serve.client imports this package's executors.
        from ..serve.client import TOKEN_ENV, parse_coordinator_address

        self.coordinator = parse_coordinator_address(coordinator)
        if token is None:
            token = os.environ.get(TOKEN_ENV) or None
        self.processes = processes
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.token = token
        self.name = name
        self.fail_after = fail_after
        self.timeout = timeout
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_delay = reconnect_delay
        self.protocol_version = protocol_version
        self.cache_version = cache_version
        self.requests = 0
        self.completed = 0
        self.worker_id: Optional[str] = None
        self.heartbeat_seconds = 5.0
        #: Set when the worker gives up — stopped, failed, or drained.
        self.stopped = threading.Event()
        #: ``processes > 1``: specs queued for the pool, the pipe that
        #: wakes its thread, and the thread (started by the first spec).
        self._jobs: deque = deque()
        self._wake = None
        self._pool_thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._draining = False
        self._inflight = 0
        self._drain_cond = threading.Condition(self._lock)
        self._write_lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._wfile = None
        self._thread: Optional[threading.Thread] = None
        self._heartbeat: Optional[threading.Thread] = None

    def _log(self, message: str) -> None:
        label = self.worker_id or f"@{self.coordinator[0]}:{self.coordinator[1]}"
        log.info("[repro-worker %s] %s", label, message)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "CoordinatorWorker":
        """Register, then serve on daemon threads; returns self.

        Registration happens synchronously so a bad token or a version
        mismatch raises here instead of dying silently in a thread.
        """
        self._connect()
        label = f"{self.coordinator[0]}:{self.coordinator[1]}"
        self._thread = threading.Thread(
            target=self._serve_loop, daemon=True,
            name=f"repro-worker@{label}",
        )
        self._thread.start()
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, daemon=True,
            name=f"repro-worker-heartbeat@{label}",
        )
        self._heartbeat.start()
        return self

    def _connect(self) -> None:
        sock = socket.create_connection(self.coordinator, timeout=self.timeout)
        sock.settimeout(None)  # blocking reads; stop() severs the socket
        # The protocol writes one small framed message at a time and
        # always flushes; with Nagle on, a frame written while the
        # previous one is still unacknowledged sits behind the peer's
        # delayed-ACK timer (~40ms on Linux) — a latency cliff, even on
        # loopback.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        frame = {
            "type": "register",
            "protocol": self.protocol_version,
            "cache_version": self.cache_version,
            "processes": self.processes,
        }
        if self.token:
            frame["token"] = self.token
        if self.name:
            frame["name"] = self.name
        try:
            wfile.write(encode_frame(frame))
            wfile.flush()
            reply = _read_frame(rfile)
        except OSError:
            sock.close()
            raise
        if reply is None:
            sock.close()
            raise ProtocolError(
                "coordinator closed the connection during registration"
            )
        if reply.get("type") == "error":
            sock.close()
            raise _FatalWorkerError(
                reply.get("message", "registration refused")
            )
        if reply.get("type") != "registered":
            sock.close()
            raise ProtocolError(
                f"expected registered, got {reply.get('type')!r}"
            )
        self.worker_id = reply.get("worker")
        try:
            self.heartbeat_seconds = float(
                reply.get("heartbeat_seconds") or 5.0
            )
        except (TypeError, ValueError):
            self.heartbeat_seconds = 5.0
        self._sock, self._rfile, self._wfile = sock, rfile, wfile
        self._log(f"registered as {self.worker_id}")

    def _serve_loop(self) -> None:
        attempts_left = self.reconnect_attempts
        try:
            while not self.stopped.is_set():
                try:
                    self._serve_connection()
                    return  # clean bye from the coordinator
                except (OSError, ProtocolError, ValueError) as exc:
                    if self.stopped.is_set() or self._draining:
                        return
                    self._log(f"coordinator connection lost: {exc}")
                while not self.stopped.is_set():
                    if attempts_left <= 0:
                        self._log("giving up on the coordinator")
                        return
                    attempts_left -= 1
                    time.sleep(self.reconnect_delay)
                    try:
                        self._connect()
                        attempts_left = self.reconnect_attempts
                        break
                    except (OSError, ProtocolError, _FatalWorkerError) as exc:
                        self._log(f"re-registration failed: {exc}")
        finally:
            self.stopped.set()

    def _serve_connection(self) -> None:
        while True:
            message = _read_frame(self._rfile)
            if message is None or message["type"] == "bye":
                return
            kind = message["type"]
            if kind == "run":
                self._handle_run(message)
            elif kind == "ping":
                self._send_quietly({"type": "pong"})
            elif kind == "error":
                self._log(f"coordinator error: {message.get('message')}")
            # pong / anything else: ignore

    def stop(self, send_bye: bool = True) -> None:
        already = self.stopped.is_set()
        self.stopped.set()
        if send_bye and not already:
            self._send_quietly({"type": "bye"})
        self._sever()
        current = threading.current_thread()
        for thread in (self._thread, self._heartbeat):
            if thread is not None and thread is not current:
                thread.join(timeout=5)
        self._thread = self._heartbeat = None
        thread, self._pool_thread = self._pool_thread, None
        if thread is not None:
            self._wake.send(None)  # ends the pool's run, then closes it
            thread.join(timeout=5)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: announce the drain (the coordinator stops
        leasing to us), finish and flush in-flight specs, then leave.
        Returns ``True`` when everything drained before ``timeout``."""
        with self._drain_cond:
            self._draining = True
        self._send_quietly({"type": "draining"})
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._drain_cond:
            while self._inflight > 0:
                remaining = 0.5
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._drain_cond.wait(min(remaining, 0.5))
            drained = self._inflight == 0
        self.stop()
        return drained

    def _sever(self) -> None:
        sock, self._sock = self._sock, None
        if sock is None:
            return
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    # -- serving --------------------------------------------------------

    def _send(self, message: Dict) -> None:
        with self._write_lock:
            self._wfile.write(encode_frame(message))
            self._wfile.flush()

    def _send_quietly(self, message: Dict) -> None:
        try:
            self._send(message)
        except (OSError, ValueError, AttributeError):
            pass  # connection gone; the coordinator's lease recovers

    def _end_run(self) -> None:
        with self._drain_cond:
            self._inflight -= 1
            self._drain_cond.notify_all()

    def _heartbeat_loop(self) -> None:
        # Heartbeats keep flowing during a drain: they renew the lease
        # on the in-flight specs we are still finishing.
        while not self.stopped.wait(self.heartbeat_seconds):
            self._send_quietly({"type": "heartbeat"})

    def _handle_run(self, message: Dict) -> None:
        run_id = message.get("id")
        self.requests += 1
        if self.fail_after is not None and self.requests > self.fail_after:
            # Test hook: a worker killed mid-grid.  Sever without bye or
            # drain; the coordinator's lease machinery must recover.
            self.stopped.set()
            self._sever()
            raise OSError("fail_after test hook tripped")
        if self._draining:
            self._send_quietly({
                "type": "error", "id": run_id,
                "message": "worker is draining; resubmit elsewhere",
            })
            return
        try:
            spec = RunSpec.from_dict(message["spec"])
        except Exception as exc:
            self._send_quietly({
                "type": "error", "id": run_id,
                "message": f"undecodable spec: {exc}",
            })
            return
        digest = spec.digest()
        claimed = message.get("digest")
        if claimed is not None and claimed != digest:
            self._send_quietly({
                "type": "error", "id": run_id,
                "message": (
                    f"digest mismatch: coordinator says {claimed}, worker "
                    f"computes {digest} — incompatible spec encodings"
                ),
            })
            return
        if self.cache is not None:
            hit = self.cache.get(digest)
            if hit is not None:
                self._log(
                    f"cache hit {spec.workload} seed={spec.seed} {spec.mode}"
                )
                self._send_quietly({
                    "type": "result", "id": run_id,
                    "result": hit.to_dict(), "cached": True,
                })
                return
        self._execute_run(run_id, spec, digest)

    def _execute_run(self, run_id, spec: RunSpec, digest: str) -> None:
        with self._lock:
            self._inflight += 1

        def deliver(result: RunResult) -> None:
            try:
                if self.cache is not None:
                    self.cache.put(digest, result)
                self.completed += 1
                self._log(
                    f"ran {spec.workload} scale={spec.scale:g} "
                    f"seed={spec.seed} {spec.mode} in {result.wall_time:.2f}s"
                )
                self._send_quietly({
                    "type": "result", "id": run_id,
                    "result": result.to_dict(), "cached": False,
                    "engine": result.engine_used,
                    "engine_hit": result.compiled_hit,
                    "sink_batches": result.sink_batches,
                })
            finally:
                self._end_run()

        def failed(exc: BaseException) -> None:
            try:
                self._send_quietly({
                    "type": "error", "id": run_id,
                    "message": f"simulation failed: {exc!r}",
                })
            finally:
                self._end_run()

        if self.processes <= 1:
            try:
                result = _execute_spec(spec)
            except Exception as exc:
                failed(exc)
                return
            deliver(result)
            return
        with self._lock:
            if self._pool_thread is None:
                wake, self._wake = multiprocessing.Pipe(duplex=False)
                self._pool_thread = threading.Thread(
                    target=self._serve_pool, args=(wake,), daemon=True,
                    name=f"repro-worker-pool@{self.worker_id}",
                )
                self._pool_thread.start()
        self._jobs.append(((deliver, failed), [spec]))
        self._wake.send(True)

    def _serve_pool(self, wake) -> None:
        """The pool thread: run queued specs, each a group of one, until
        ``stop`` sends ``None``.  A spec that raises or whose process
        dies answers ``error``."""
        with WorkerPoolExecutor(self.processes) as pool:
            for (deliver, failed), ok, value in pool._run(self._jobs, wake):
                if ok:
                    (result,) = value
                    deliver(result)
                else:
                    failed(value)


def worker_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-worker`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Simulation worker daemon: registers with a repro-coordinator, "
            "simulates the RunSpecs it leases and streams RunResults back"
        ),
    )
    parser.add_argument(
        "--coordinator", required=True, metavar="HOST:PORT",
        help="the repro-coordinator to register with and serve",
    )
    parser.add_argument(
        "--processes", type=int, default=1, metavar="N",
        help="concurrent simulations (1 = inline in the connection thread)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="sharded result cache; warm specs are answered from disk",
    )
    parser.add_argument(
        "--token", default=None, metavar="SECRET",
        help="shared secret for --coordinator (default: $REPRO_TOKEN)",
    )
    parser.add_argument(
        "--name", default=None, metavar="NAME",
        help="name prefix this worker registers under with the coordinator",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help=(
            "on SIGTERM/SIGINT, wait this long for in-flight specs to "
            "finish and flush before exiting (default 30)"
        ),
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="log one line per served request to stderr",
    )
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(message)s")

    # Signals set an event instead of raising: the serving threads keep
    # running while the main thread drains in-flight specs gracefully.
    stop_signal = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 — signal handler shape
        stop_signal.set()

    try:
        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
    except ValueError:
        pass  # not the main thread (embedded); rely on KeyboardInterrupt

    try:
        worker = CoordinatorWorker(
            args.coordinator, processes=args.processes,
            cache_dir=args.cache_dir, token=args.token, name=args.name,
        ).start()
    except (OSError, ProtocolError, _FatalWorkerError) as exc:
        print(f"repro-worker: cannot register with {args.coordinator}: {exc}",
              file=sys.stderr, flush=True)
        return 1
    print(
        f"repro-worker registered with {args.coordinator} as "
        f"{worker.worker_id} (protocol v{PROTOCOL_VERSION}, "
        f"cache v{CACHE_VERSION}, processes={args.processes})",
        file=sys.stderr, flush=True,
    )
    try:
        while not stop_signal.wait(0.2):
            if worker.stopped.is_set():
                print("repro-worker: lost the coordinator, exiting",
                      file=sys.stderr, flush=True)
                return 1
    except KeyboardInterrupt:
        pass
    print("repro-worker: draining before shutdown",
          file=sys.stderr, flush=True)
    worker.drain(timeout=args.drain_timeout)
    return 0


if __name__ == "__main__":  # pragma: no cover — `python -m repro.sim.remote`
    sys.exit(worker_main())
