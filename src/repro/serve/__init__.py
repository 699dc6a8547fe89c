"""repro.serve — sweep-as-a-service: the coordinator daemon and its clients.

The package is the repo's one distributed stack:

* :class:`Coordinator` (``repro-coordinator``) — a stdlib-only asyncio
  daemon exposing an HTTP/JSON API over the existing ``RunSpec`` /
  ``RunResult`` wire schema, plus a worker-registration plane where
  ``repro-worker --coordinator host:port`` daemons dial in and receive
  specs under lease-based ownership;
* :class:`CoordinatorClient` — a thin synchronous HTTP client (submit
  specs, read status, stream results);
* :class:`HttpExecutor` — the ``"http"`` entry in the executor
  registry, so ``Sweep.run(executor="http")`` and
  ``pbs-experiments sweep --executor http --coordinator host:port``
  drive the service through the ordinary
  :class:`~repro.sim.executors.Executor` interface.

See ``docs/service.md`` for the API reference and lease semantics.

Exports resolve lazily (PEP 562) so that ``repro.sim`` can register the
``http`` executor by importing :mod:`repro.serve.client` without
creating an import cycle through this package's public surface.
"""

_EXPORTS = {
    "Coordinator": "coordinator",
    "coordinator_main": "coordinator",
    "CoordinatorClient": "client",
    "CoordinatorError": "client",
    "HttpExecutor": "client",
    "COORDINATOR_ENV": "client",
    "TOKEN_ENV": "client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
