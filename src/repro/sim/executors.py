"""Pluggable execution backends for :class:`~repro.sim.sweep.Sweep`.

An :class:`Executor` turns a batch of picklable ``RunSpec`` descriptions
into :class:`~repro.sim.results.RunResult` objects.  Three strategies
ship with the package:

* :class:`SerialExecutor` — run every spec in-process, in order;
* :class:`ProcessPoolExecutor` — a throwaway ``multiprocessing.Pool``
  per batch (the historical ``Sweep.run(processes=N)`` behaviour);
* :class:`WorkerPoolExecutor` — a persistent pool that stays alive
  across batches, dispatches work via ``imap_unordered`` so idle
  workers steal the next spec, and reports per-spec completion through
  an optional callback.

A fourth, the distributed :class:`~repro.serve.client.HttpExecutor`
(``"http"``), lives in :mod:`repro.serve.client`: it submits the batch
to a ``repro-coordinator``, which fans it out to registered
``repro-worker`` daemons (:mod:`repro.sim.remote`).

All executors honour the same contract: ``map(specs, on_result=None)``
returns results **in spec order**, regardless of completion order, and
``on_result(index, spec, result)`` fires once per spec as its result
becomes available.  Because every spec carries its own seed, results
are bit-identical across executors and worker counts.

Third-party backends plug in through :func:`register_executor`::

    from repro.sim import Executor, register_executor

    @register_executor("my-cluster")
    class ClusterExecutor(Executor):
        def map(self, specs, on_result=None): ...
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Optional, Sequence, Type, Union

from .registry import Registry, validate_options
from .results import RunResult

#: ``on_result(index, spec, result)`` — fired once per completed spec.
ProgressCallback = Callable[[int, object, RunResult], None]


def _execute_spec(spec) -> RunResult:
    """Worker entry point: run one spec (module-level for pickling)."""
    return spec.session().run()


def _execute_indexed(item):
    """``(index, spec) -> (index, result)`` — lets unordered dispatch
    reassemble results into spec order in the parent process."""
    index, spec = item
    return index, _execute_spec(spec)


def _pool_context():
    # Prefer fork: workers inherit the interpreter state (registries,
    # sys.path) without re-importing __main__, and start instantly.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


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

    ``None`` selects the historical default — a throwaway process pool
    that degrades to serial execution when ``processes <= 1`` or the
    batch has a single spec.  A string is looked up in the registry; an
    :class:`Executor` instance passes through untouched (the caller
    keeps ownership and must ``close()`` it).  Extra keyword ``options``
    are forwarded to the backend constructor (e.g. ``coordinator=...``
    for the ``http`` backend); options the backend does not accept raise
    ``TypeError`` naming the valid ones.
    """
    if isinstance(executor, Executor):
        return executor
    if executor is None:
        executor = "process"
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


@register_executor("process")
class ProcessPoolExecutor(Executor):
    """A throwaway ``multiprocessing.Pool`` per batch.

    This is ``Sweep.run(processes=N)``'s historical behaviour,
    extracted: a pool spawned for the batch and torn down when it
    completes.  Single-spec batches and ``processes <= 1`` run
    serially, exactly as before.  Dispatch streams through ``imap`` so
    ``on_result`` fires (in spec order) as results arrive rather than
    after the whole batch.
    """

    def __init__(self, processes: Optional[int] = None):
        # Only None means "pick for me": 0 and negative values stay
        # put, landing in the serial path below — the historical
        # meaning of Sweep.run(processes=0).
        self.processes = (os.cpu_count() or 1) if processes is None else processes

    def map(self, specs, on_result=None):
        specs = list(specs)
        if self.processes <= 1 or len(specs) <= 1:
            return SerialExecutor().map(specs, on_result)
        results = []
        with _pool_context().Pool(min(self.processes, len(specs))) as pool:
            for index, result in enumerate(pool.imap(_execute_spec, specs)):
                results.append(result)
                if on_result is not None:
                    on_result(index, specs[index], result)
        return results


@register_executor("pool")
class WorkerPoolExecutor(Executor):
    """A persistent worker pool reused across ``map()`` calls.

    The pool is spawned lazily on first use and stays alive until
    :meth:`close`, so repeated ``Sweep.run()`` calls skip worker
    startup.  Specs are dispatched through ``imap_unordered`` with a
    small chunksize: workers steal the next spec the moment they go
    idle, which keeps long and short runs balanced, and ``on_result``
    fires in **completion** order while the returned list stays in spec
    order.  Telemetry counters (:attr:`batches`, :attr:`dispatched`,
    :attr:`completed`) accumulate across batches.
    """

    def __init__(self, processes: Optional[int] = None, chunksize: int = 1):
        self.processes = (os.cpu_count() or 1) if processes is None else processes
        self.chunksize = chunksize
        self._pool = None
        self.batches = 0
        self.dispatched = 0
        self.completed = 0

    @property
    def pool(self):
        """The live pool, spawned on first access."""
        if self._pool is None:
            self._pool = _pool_context().Pool(self.processes)
        return self._pool

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
        unordered = self.pool.imap_unordered(
            _execute_indexed, list(enumerate(specs)),
            chunksize=self.chunksize,
        )
        while True:
            try:
                index, result = next(unordered)
            except StopIteration:
                break
            except Exception:
                # A worker raised: the pool may be wedged, so tear it
                # down rather than reuse it.  The next map() respawns.
                # (Parent-side on_result errors propagate below
                # *without* killing the healthy pool.  A worker killed
                # outright — OOM, SIGKILL — hangs here instead: a
                # multiprocessing.Pool limitation, same as the
                # historical pool.map path.)
                self.close()
                raise
            results[index] = result
            self.completed += 1
            if on_result is not None:
                on_result(index, specs[index], result)
        return results

    def close(self):
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
