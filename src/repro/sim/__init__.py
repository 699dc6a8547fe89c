"""repro.sim — the unified public API for running simulations.

One import gives everything a scenario needs:

* :class:`Session` — a fluent builder for a single run (one benchmark
  interpretation fanned out to any number of predictors, timing cores
  and the PBS engine), returning a structured :class:`RunResult`;
* :class:`Sweep` — parameter-grid execution over pluggable
  :class:`Executor` backends (serial, the local process pool
  :class:`WorkerPoolExecutor` that survives a killed worker, or the
  distributed :class:`HttpExecutor` driving a ``repro-coordinator``)
  with deterministic per-run seeding and an on-disk sharded
  :class:`ResultCache`; :func:`run_specs` runs any :class:`RunSpec`
  list the same way;
* :func:`register_workload` / :func:`register_predictor` — decorator
  registries through which benchmarks and predictors plug themselves in.

Quickstart::

    from repro.sim import Session, Sweep

    one = Session("pi").scale(0.5).seed(1).predictors("tournament").pbs().run()
    grid = Sweep(workloads=["pi", "dop"], seeds=range(4)).run(processes=4)

See ``docs/api.md`` for the full tour.
"""

from .cache import CACHE_VERSION, ResultCache, spec_digest
from .executors import (
    EXECUTORS,
    Executor,
    SerialExecutor,
    WorkerDiedError,
    WorkerPoolExecutor,
    create_executor,
    executor_names,
    register_executor,
)
from .remote import (
    PROTOCOL_VERSION,
    CoordinatorWorker,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from .registry import (
    all_workloads,
    baseline_predictors,
    create_predictor,
    get_workload,
    predictor_factory,
    predictor_names,
    register_predictor,
    paper_workload_names,
    register_workload,
    workload_class,
    workload_names,
)
from .results import CoreMetrics, PBSMetrics, PredictorMetrics, RunResult
from .session import DEFAULT_SCALE, DEFAULT_SEED, FanOut, Session
from .sweep import MODES, RunSpec, Sweep, SweepResult, run_specs

# Execution tiers (interp / compiled) re-exported lazily:
# repro.engines itself imports this package for the shared Registry
# helper, so an eager import here would be circular whenever
# ``repro.engines`` is imported first.  PEP 562 resolves the names on
# first access, by which point both packages are fully initialized —
# and importing repro.engines registers the built-in tiers, mirroring
# the executor registry above.
_ENGINE_EXPORTS = (
    "ENGINES",
    "Engine",
    "create_engine",
    "engine_names",
    "get_engine",
    "register_engine",
)


def __getattr__(name):
    if name in _ENGINE_EXPORTS:
        from .. import engines

        return getattr(engines, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

# Imported last: repro.serve.client needs .executors and .results, both
# already bound above, and registers the "http" executor as a side effect.
from ..serve.client import (  # noqa: E402
    COORDINATOR_ENV,
    TOKEN_ENV,
    CoordinatorClient,
    CoordinatorError,
    HttpExecutor,
)

__all__ = [
    "CACHE_VERSION",
    "ResultCache",
    "spec_digest",
    "EXECUTORS",
    "Executor",
    "SerialExecutor",
    "WorkerDiedError",
    "WorkerPoolExecutor",
    "create_executor",
    "executor_names",
    "register_executor",
    "PROTOCOL_VERSION",
    "CoordinatorWorker",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "COORDINATOR_ENV",
    "TOKEN_ENV",
    "CoordinatorClient",
    "CoordinatorError",
    "HttpExecutor",
    "all_workloads",
    "baseline_predictors",
    "create_predictor",
    "get_workload",
    "predictor_factory",
    "predictor_names",
    "register_predictor",
    "register_workload",
    "workload_class",
    "paper_workload_names",
    "workload_names",
    "CoreMetrics",
    "PBSMetrics",
    "PredictorMetrics",
    "RunResult",
    "DEFAULT_SCALE",
    "DEFAULT_SEED",
    "FanOut",
    "Session",
    "MODES",
    "RunSpec",
    "Sweep",
    "SweepResult",
    "run_specs",
    "ENGINES",
    "Engine",
    "create_engine",
    "engine_names",
    "get_engine",
    "register_engine",
]
