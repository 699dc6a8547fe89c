"""Pluggable execution backends for :class:`~repro.sim.sweep.Sweep`.

An :class:`Executor` turns a batch of picklable ``RunSpec`` descriptions
into :class:`~repro.sim.results.RunResult` objects.  Two strategies
ship with the package, and both run a batch as **trace groups**
(:func:`trace_groups`): the specs that share a committed path run as
one job, one engine run feeding all of their consumers
(:func:`~repro.sim.session.run_group`):

* :class:`SerialExecutor` — run every group in-process, in order;
* :class:`WorkerPoolExecutor` — the local process pool and the
  default: workers that outlive a batch, one group at a time each,
  largest groups first, and replaced when they die.

A third, the distributed :class:`~repro.serve.client.HttpExecutor`
(``"http"``), lives in :mod:`repro.serve.client`: it submits the batch
to a ``repro-coordinator``, which fans it out to registered
``repro-worker`` daemons (:mod:`repro.sim.remote`).

All executors honour the same contract: ``map(specs, on_result=None)``
returns results **in spec order**, regardless of completion order, and
``on_result(index, spec, result)`` fires once per spec as its result
becomes available — on the local backends, group by group (in spec
order within a group), groups in order of their first spec on
``serial`` and in completion order on the parallel backends.
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
import weakref
from collections import deque
from contextlib import closing
from multiprocessing.connection import wait
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Type, Union

from .registry import Registry, validate_options
from .results import RunResult
from .session import run_group

#: ``on_result(index, spec, result)`` — fired once per completed spec.
ProgressCallback = Callable[[int, object, RunResult], None]

#: Attempts per job on :class:`WorkerPoolExecutor` (the coordinator's
#: ``max_attempts`` default).
MAX_ATTEMPTS = 3


#: The parent-side pipe end of every pool worker this process started.
#: A forked worker inherits copies of them all; it closes those first
#: (:func:`_worker_main`), so a worker sees EOF once its parent dies.
_PARENT_ENDS: "weakref.WeakSet" = weakref.WeakSet()


class WorkerDiedError(RuntimeError):
    """A pool worker process died while it ran a job."""


def _execute_spec(spec) -> RunResult:
    """Run one spec: the per-spec entry point every local execution
    passes through once per spec (module-level, so it can be wrapped)."""
    return spec.session().run()


def _execute_group(specs) -> List[RunResult]:
    """Run one trace group as one run, returning a result per spec.

    Each spec still passes through :func:`_execute_spec` once: the
    group's run happens inside the first call, and the later calls
    hand out their share of it.  A group of one runs as a plain spec.
    """
    if len(specs) == 1:
        return [_execute_spec(specs[0])]
    shared: List[RunResult] = []
    return [
        _execute_spec(_GroupMember(specs, shared, index))
        for index in range(len(specs))
    ]


class _GroupMember:
    """One spec of a trace group, shaped like a spec for
    :func:`_execute_spec`: ``session().run()`` is its result, and the
    first member to run runs the whole group into ``shared``."""

    def __init__(self, specs, shared: List[RunResult], index: int):
        self.specs = specs
        self.shared = shared
        self.index = index

    def session(self) -> "_GroupMember":
        return self

    def run(self) -> RunResult:
        if not self.shared:
            self.shared.extend(run_group([spec.session() for spec in self.specs]))
        return self.shared[self.index]


def trace_groups(specs: Sequence) -> List[List[int]]:
    """Indices of ``specs`` grouped by ``RunSpec.group_key()``: the
    specs that share one committed path, engine directive and trace
    store, and so one engine run.  Groups are in order of their first
    spec, and indices in spec order within a group."""
    groups: dict = {}
    for index, spec in enumerate(specs):
        groups.setdefault(spec.group_key(), []).append(index)
    return list(groups.values())


def _worker_main(conn) -> None:
    """One pool worker: run each trace group received on ``conn`` and
    reply ``(True, results)`` or ``(False, exception)``, until the pipe
    closes."""
    for end in list(_PARENT_ENDS):
        end.close()
    while True:
        try:
            specs = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, _execute_group(specs))
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
    """Run every trace group in the calling process, in order of its
    first spec."""

    def __init__(self, processes: int = 1):
        # ``processes`` is accepted (and ignored) so the factory can
        # construct any backend uniformly.
        del processes

    def map(self, specs, on_result=None):
        specs = list(specs)
        results: List[Optional[RunResult]] = [None] * len(specs)
        for group in trace_groups(specs):
            _deliver(specs, group, _execute_group([specs[i] for i in group]),
                     results, on_result)
        return results


def _deliver(specs, group, values, results, on_result) -> None:
    """Place a finished group's results, firing ``on_result`` for each."""
    for index, result in zip(group, values):
        results[index] = result
        if on_result is not None:
            on_result(index, specs[index], result)


def _stop(process, conn) -> None:
    conn.close()
    # SIGKILL, not SIGTERM: a worker forked from a process that handles
    # SIGTERM (a draining repro-worker) inherits the handler and would
    # ignore terminate(), leaving join() to wait forever.
    process.kill()
    process.join()


@register_executor("pool")
class WorkerPoolExecutor(Executor):
    """The local process pool, reused across ``map()`` calls.

    Up to ``processes`` workers start as work arrives and live until
    :meth:`close`.  Each owns one pipe and runs one trace group at a
    time, so an idle worker takes the next group, the largest first;
    ``on_result`` fires in **completion** order, results return in spec
    order.  ``processes <= 1`` runs the groups in-process, as
    :class:`SerialExecutor` does.

    A worker that dies without replying (SIGKILL, OOM kill) is replaced
    and its whole group requeued; after :data:`MAX_ATTEMPTS` deaths the
    group raises :class:`WorkerDiedError`.  If a spec or ``on_result``
    raises, the batch's busy workers are stopped.  Counters
    (:attr:`batches`, :attr:`dispatched`, :attr:`completed`,
    :attr:`requeued`) accumulate across batches; all but
    :attr:`requeued`, which counts groups, count specs.
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
        # Largest groups first, so no long group starts last.
        groups = sorted(trace_groups(specs), key=len, reverse=True)
        payloads = [[specs[i] for i in group] for group in groups]
        deaths = [0] * len(groups)
        jobs = deque(enumerate(payloads))
        # closing(): an exception below stops this batch's busy workers
        # now, not whenever its traceback lets the generator go.
        with closing(self._run(jobs)) as finished:
            for key, ok, value in finished:
                group = groups[key]
                if ok:
                    self.completed += len(group)
                    _deliver(specs, group, value, results, on_result)
                    continue
                if not isinstance(value, WorkerDiedError):
                    raise value
                deaths[key] += 1
                if deaths[key] == MAX_ATTEMPTS:
                    raise WorkerDiedError(
                        f"the trace group of {len(group)} spec(s) led by "
                        f"{specs[group[0]]!r} lost its worker on all "
                        f"{MAX_ATTEMPTS} attempts; last: {value}"
                    )
                self.requeued += 1
                jobs.append((key, payloads[key]))
        return results

    def _run(self, jobs: deque, wake=None) -> Iterator[Tuple]:
        """Run the ``(key, specs)`` jobs queued on ``jobs``, each a trace
        group, yielding ``(key, True, results)`` or ``(key, False,
        exception)`` as each finishes; the exception is a
        :class:`WorkerDiedError` when the group's worker died.  Jobs may
        be appended at any time.  Without ``wake`` the run ends once
        ``jobs`` is empty and no worker is busy; with it (a pipe end)
        the run waits for more, reading one message per append, and
        ends on a ``None`` message.  However the run ends, the workers
        still busy in it are stopped.
        """
        busy = {}  # conn -> (process, key)
        try:
            while True:
                while jobs and (self._idle or len(busy) < self.processes):
                    process, conn = (
                        self._idle.pop() if self._idle else self._spawn()
                    )
                    key, job = jobs.popleft()
                    busy[conn] = process, key
                    try:
                        conn.send(job)
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
        _PARENT_ENDS.add(conn)
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
