"""Pluggable execution backends for :class:`~repro.sim.sweep.Sweep`.

An :class:`Executor` turns a batch of picklable ``RunSpec`` descriptions
into :class:`~repro.sim.results.RunResult` objects.  Two strategies
ship with the package:

* :class:`SerialExecutor` — run every spec in-process, in order;
* :class:`WorkerPoolExecutor` — the local process pool and the
  default: workers that outlive a batch, one spec at a time each, and
  are replaced when they die.

A third, the distributed :class:`~repro.serve.client.HttpExecutor`
(``"http"``), lives in :mod:`repro.serve.client`: it submits the batch
to a ``repro-coordinator``, which fans it out to registered
``repro-worker`` daemons (:mod:`repro.sim.remote`).

All executors honour the same contract: ``map(specs, on_result=None)``
returns results **in spec order**, regardless of completion order, and
``on_result(index, spec, result)`` fires once per spec as its result
becomes available — in completion order on the parallel backends.
Because every spec carries its own seed, results are bit-identical
across executors and worker counts.

Third-party backends plug in through :func:`register_executor`::

    from repro.sim import Executor, register_executor

    @register_executor("my-cluster")
    class ClusterExecutor(Executor):
        def map(self, specs, on_result=None): ...
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from contextlib import closing
from multiprocessing.connection import wait
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Type, Union

from .registry import Registry, validate_options
from .results import RunResult

#: ``on_result(index, spec, result)`` — fired once per completed spec.
ProgressCallback = Callable[[int, object, RunResult], None]

#: Attempts per spec on :class:`WorkerPoolExecutor` (the coordinator's
#: ``max_attempts`` default).
MAX_ATTEMPTS = 3


class WorkerDiedError(RuntimeError):
    """A pool worker process died while it ran a spec."""


def _execute_spec(spec) -> RunResult:
    """Worker entry point: run one spec (module-level for pickling)."""
    return spec.session().run()


def _worker_main(conn) -> None:
    """One pool worker: run each spec received on ``conn`` and reply
    ``(True, result)`` or ``(False, exception)``, until the pipe closes."""
    while True:
        try:
            spec = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, _execute_spec(spec))
        except Exception as exc:
            reply = (False, exc)
        conn.send(reply)


class Executor:
    """Strategy interface: execute a batch of ``RunSpec`` objects.

    Subclasses implement :meth:`map`; :meth:`close` releases any
    persistent resources (pools, connections).  Executors are context
    managers, so ``with WorkerPoolExecutor(4) as pool: ...`` cleans up.
    """

    #: Registry name (set by :func:`register_executor`).
    name: str = "?"

    def map(
        self,
        specs: Sequence,
        on_result: Optional[ProgressCallback] = None,
    ) -> List[RunResult]:
        """Execute ``specs``, returning results in spec order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release persistent resources.  Idempotent; default is a no-op."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: name -> Executor subclass (see :func:`register_executor`).
EXECUTORS = Registry("executor", catalog="registered backends")


def register_executor(name: str, *, replace: bool = False):
    """Class decorator registering an :class:`Executor` under ``name``.

    Duplicate names raise ``ValueError``; pass ``replace=True`` to
    deliberately override a built-in backend.
    """

    def decorator(cls: Type[Executor]) -> Type[Executor]:
        cls.name = name
        EXECUTORS.register(name, cls, replace=replace)
        return cls

    return decorator


def executor_names() -> List[str]:
    """Registered backend names, in registration order."""
    return list(EXECUTORS)


def get_executor(name: str) -> Type[Executor]:
    """The registered :class:`Executor` subclass for ``name``."""
    return EXECUTORS.get(name)


def list_executors() -> List[str]:
    """Uniform ``list_*`` alias for :func:`executor_names`."""
    return executor_names()


def create_executor(
    executor: Union[str, Executor, None],
    processes: int = 1,
    **options,
) -> Executor:
    """Resolve a ``Sweep.run`` executor argument to an instance.

    ``None`` selects the ``pool`` backend, serial when ``processes <= 1``.
    A string is looked up in the registry; an :class:`Executor` instance
    passes through untouched (the caller keeps ownership and must
    ``close()`` it).  Extra keyword ``options``
    are forwarded to the backend constructor (e.g. ``coordinator=...``
    for the ``http`` backend); options the backend does not accept raise
    ``TypeError`` naming the valid ones.
    """
    if isinstance(executor, Executor):
        return executor
    if executor is None:
        executor = "pool"
    cls = EXECUTORS.get(executor)
    validate_options("executor", executor, cls, options, reserved=("processes",))
    return cls(processes=processes, **options)


@register_executor("serial")
class SerialExecutor(Executor):
    """Run every spec in the calling process, in spec order."""

    def __init__(self, processes: int = 1):
        # ``processes`` is accepted (and ignored) so the factory can
        # construct any backend uniformly.
        del processes

    def map(self, specs, on_result=None):
        results = []
        for index, spec in enumerate(specs):
            result = _execute_spec(spec)
            if on_result is not None:
                on_result(index, spec, result)
            results.append(result)
        return results


def _stop(process, conn) -> None:
    conn.close()
    process.terminate()
    process.join()


@register_executor("pool")
class WorkerPoolExecutor(Executor):
    """The local process pool, reused across ``map()`` calls.

    Up to ``processes`` workers start as work arrives and live until
    :meth:`close`.  Each owns one pipe and runs one spec at a time, so
    an idle worker takes the next spec; ``on_result`` fires in
    **completion** order, results return in spec order.
    ``processes <= 1`` runs specs in-process.

    A worker that dies without replying (SIGKILL, OOM kill) is replaced
    and its spec requeued; after :data:`MAX_ATTEMPTS` deaths the spec
    raises :class:`WorkerDiedError`.  If a spec or ``on_result`` raises,
    the batch's busy workers are stopped.  Counters (:attr:`batches`,
    :attr:`dispatched`, :attr:`completed`, :attr:`requeued`) accumulate
    across batches.
    """

    def __init__(self, processes: Optional[int] = None):
        self.processes = (os.cpu_count() or 1) if processes is None else processes
        #: ``(process, conn)`` of each live worker not running a spec.
        self._idle: List[Tuple] = []
        self.batches = 0
        self.dispatched = 0
        self.completed = 0
        self.requeued = 0

    def map(self, specs, on_result=None):
        specs = list(specs)
        if not specs:
            return []
        self.batches += 1
        self.dispatched += len(specs)
        if self.processes <= 1:
            results = SerialExecutor().map(specs, on_result)
            self.completed += len(results)
            return results
        results: List[Optional[RunResult]] = [None] * len(specs)
        deaths = [0] * len(specs)
        jobs = deque(enumerate(specs))
        # closing(): an exception below stops this batch's busy workers
        # now, not whenever its traceback lets the generator go.
        with closing(self._run(jobs)) as finished:
            for index, ok, value in finished:
                if ok:
                    results[index] = value
                    self.completed += 1
                    if on_result is not None:
                        on_result(index, specs[index], value)
                    continue
                if not isinstance(value, WorkerDiedError):
                    raise value
                deaths[index] += 1
                if deaths[index] == MAX_ATTEMPTS:
                    raise WorkerDiedError(
                        f"{specs[index]!r} lost its worker on all "
                        f"{MAX_ATTEMPTS} attempts; last: {value}"
                    )
                self.requeued += 1
                jobs.append((index, specs[index]))
        return results

    def _run(self, jobs: deque, wake=None) -> Iterator[Tuple]:
        """Run the ``(key, spec)`` jobs queued on ``jobs``, yielding
        ``(key, True, result)`` or ``(key, False, exception)`` as each
        finishes; the exception is a :class:`WorkerDiedError` when the
        spec's worker died.  Jobs may be appended at any time.  Without
        ``wake`` the run ends once ``jobs`` is empty and no worker is
        busy; with it (a pipe end) the run waits for more, reading one
        message per append, and ends on a ``None`` message.  However the
        run ends, the workers still busy in it are stopped.
        """
        busy = {}  # conn -> (process, key)
        try:
            while True:
                while jobs and (self._idle or len(busy) < self.processes):
                    process, conn = (
                        self._idle.pop() if self._idle else self._spawn()
                    )
                    key, spec = jobs.popleft()
                    busy[conn] = process, key
                    try:
                        conn.send(spec)
                    except OSError:
                        pass  # it died idle: its sentinel fires below
                if not busy and wake is None:
                    return
                ready = wait(
                    [*busy, *(process.sentinel for process, _ in busy.values())]
                    + ([wake] if wake is not None else [])
                )
                for conn, (process, key) in list(busy.items()):
                    if conn not in ready and process.sentinel not in ready:
                        continue
                    del busy[conn]
                    try:
                        ok, value = conn.recv()
                    except (EOFError, OSError):  # it died without replying
                        _stop(process, conn)
                        yield key, False, WorkerDiedError(
                            f"worker process {process.pid} died "
                            f"(exit code {process.exitcode})"
                        )
                        continue
                    except Exception as exc:  # a reply that fails to unpickle
                        ok, value = False, exc
                    self._idle.append((process, conn))
                    yield key, ok, value
                if wake in ready and wake.recv() is None:
                    return
        finally:
            for conn, (process, _) in busy.items():
                _stop(process, conn)

    def _spawn(self):
        # Prefer fork: workers inherit the interpreter state (registries,
        # sys.path) without re-importing __main__, and start instantly.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        conn, child = context.Pipe()
        process = context.Process(target=_worker_main, args=(child,), daemon=True)
        process.start()
        child.close()  # the worker holds the only copy, so its death is EOF
        return process, conn

    def close(self):
        idle, self._idle = self._idle, []
        for process, conn in idle:
            _stop(process, conn)

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
