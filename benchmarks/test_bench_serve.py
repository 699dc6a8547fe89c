"""Benchmark for the sweep-as-a-service round trip.

Times the submit -> stream -> reassemble overhead of the ``http``
executor on a warm-cache batch: the coordinator holds a pre-warmed
result cache, so the measured cost is pure coordination (HTTP parsing,
job bookkeeping, cache lookups, NDJSON streaming) rather than
simulation.  Non-gating via compare.py, like every other benchmark here.
"""

from conftest import run_once

from repro.serve import Coordinator
from repro.sim import CoordinatorWorker, HttpExecutor, Sweep

GRID = dict(workloads=["pi"], seeds=(0, 1, 2, 3), modes=("base",))


def test_serve_http_round_trip_warm(benchmark, bench_scale, tmp_path):
    coordinator = Coordinator(port=0, cache_dir=str(tmp_path)).start()
    worker = CoordinatorWorker(coordinator.address, processes=1).start()
    assert coordinator.wait_for_workers(1, timeout=10)
    executor = HttpExecutor(coordinator=coordinator.address)
    sweep = Sweep(scales=(bench_scale,), **GRID)
    try:
        sweep.run(executor=executor)  # warm the coordinator cache untimed
        result = run_once(benchmark, lambda: sweep.run(executor=executor))
    finally:
        worker.stop()
        coordinator.stop()
    assert result.cache_hits + result.simulated == 4
    (telemetry,) = executor.telemetry.values()
    assert telemetry["cache_hits"] == 4
