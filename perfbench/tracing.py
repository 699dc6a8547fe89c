"""Per-layer spans around ``repro``'s public entry points, from outside.

:meth:`LayerTrace.install` replaces each entry point listed in
:meth:`LayerTrace.entry_points` with a timing wrapper and
:meth:`LayerTrace.restore` puts every original object back, so untraced
runs execute unmodified code.  An entry point missing at the measured
commit is skipped, and its layer reads zero.

A span's *self time* is its duration minus the spans nested inside it,
so an engine run that feeds a predictor harness is charged only for the
interpreter's own work.  Counts (branches, instructions, events) come
from the returned ``RunResult``s, which are exact and cost nothing to
read; only cache lookups and executor batches are counted at the span.

Pool workers are forked with the wrappers in place.  Each worker ships
its own layer totals back on the ``RunResult`` it returns, and the
parent merges them, so ``trace-pool`` reports worker-side branch,
engine and trace time next to the parent-side cache and executor time.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Union

#: Attribute a forked pool worker sets on each ``RunResult`` it returns.
SHIPPED = "_perfbench_layers"

#: Labels ``branch.<label>.*`` metrics are reported for.
BRANCH_LABELS = (
    "tournament", "tage-sc-l", "tournament-filtered", "tage-sc-l-filtered",
    "gshare",
)

#: Every per-layer metric, with its unit, in report order.
METRICS: Dict[str, str] = {}
for _label in BRANCH_LABELS:
    METRICS[f"branch.{_label}.consume_s"] = "s"
    METRICS[f"branch.{_label}.branches"] = "count"
    METRICS[f"branch.{_label}.ns_per_branch"] = "ns"
METRICS.update({
    "pipeline.feed_s": "s",
    "pipeline.feed_calls": "count",
    "pipeline.ns_per_inst": "ns",
    "sim.fanout_s": "s",
    "sim.fallback_batches": "count",
    "engines.run_s": "s",
    "engines.instructions": "count",
    "engines.ns_per_inst": "ns",
    "engines.executor_s": "s",
    "workloads.build_s": "s",
    "core.transact_s": "s",
    "core.transact_calls": "count",
    "core.hit_ratio": "ratio",
    "trace.capture_s": "s",
    "trace.capture_bytes": "bytes",
    "trace.replay_s": "s",
    "trace.replay_events": "count",
    "cache.get_s": "s",
    "cache.get_calls": "count",
    "cache.hit_ratio": "ratio",
    "cache.put_s": "s",
    "executors.map_s": "s",
    "executors.specs": "count",
    "executors.overhead_s": "s",
    "traced.overhead_pct": "%",
    "traced.unaccounted_s": "s",
})

Layer = Union[str, Callable[[tuple], str]]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerTrace:
    """Self time and call counts per layer, for one process."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Layer self time merged from pool workers (summed over workers).
        self.worker_s: Dict[str, float] = defaultdict(float)
        self.worker_calls: Dict[str, int] = defaultdict(int)
        #: Worker time divided by the pool width: its share of wall time.
        self.worker_share_s = 0.0
        #: Σ RunResult.wall_time ÷ pool width over executor batches.
        self.busy_share_s = 0.0
        self.specs = 0
        self.cache_hits = 0
        self._stack: List[float] = [0.0]
        self._patches: List[tuple] = []
        self._pid = os.getpid()
        self._labels: Dict[type, str] = {}

    # -- wrapping ---------------------------------------------------------

    def entry_points(self) -> List[tuple]:
        """``(owner, attribute, layer)`` for every wrapped entry point."""
        from repro.branch.harness import PredictorHarness
        from repro.core.engine import PBSEngine
        from repro.engines import ENGINES
        from repro.engines import compiled
        from repro.functional.executor import Executor
        from repro.pipeline.model import OoOCore
        from repro.sim import executors, workload_class, workload_names
        from repro.sim.cache import ResultCache
        from repro.sim.session import FanOut
        from repro.trace.format import TraceReader, TraceWriter
        from repro.trace.store import TraceCapture, TraceStore

        points = [
            (cls, "build", "workloads.build")
            for cls in {_definer(workload_class(n), "build")
                        for n in workload_names()}
        ]
        points += [
            (Executor, "run", "engines.run"),
            (compiled.CompiledExecutor, "run", "engines.run"),
            (compiled, "compiled_function", "engines.executor"),
            (PBSEngine, "transact", "core.transact"),
            (PredictorHarness, "consume_batch", self._branch_layer),
            (PredictorHarness, "__call__", self._branch_layer),
            (OoOCore, "feed", "pipeline.feed"),
            (OoOCore, "consume_batch", "pipeline.feed"),
            (FanOut, "_consume_batch", "sim.fanout"),
            (FanOut, "__call__", "sim.fanout"),
            (TraceStore, "writer", "trace.capture"),
            (TraceWriter, "consume_batch", "trace.capture"),
            (TraceWriter, "__call__", "trace.capture"),
            (TraceCapture, "commit", "trace.capture"),
            (TraceStore, "open", "trace.replay"),
            (TraceReader, "replay", "trace.replay"),
            (ResultCache, "get", "cache.get"),
            (ResultCache, "put", "cache.put"),
        ]
        points += [
            (ENGINES.get(name), "executor", "engines.executor")
            for name in ENGINES
        ]
        # The serial executor is the caller's own loop: its time belongs
        # to the layers it calls.  Executors that leave the process are
        # their own layer.
        points += [
            (cls, "map", "executors.map")
            for cls in map(executors.EXECUTORS.get, executors.EXECUTORS)
            if cls is not executors.SerialExecutor
        ]
        return points

    def install(self) -> "LayerTrace":
        from repro.sim import create_predictor, executors, predictor_names

        self._labels = {
            type(create_predictor(name)): name for name in predictor_names()
        }
        after = {"executors.map": self._after_map, "cache.get": self._after_get}
        for owner, name, layer in self.entry_points():
            if name in vars(owner):
                self._patch(owner, name, self._timed(
                    vars(owner)[name], layer, after.get(layer)
                ))
        self._patch(executors, "_execute_spec",
                    self._shipping(executors._execute_spec))
        return self

    def restore(self) -> None:
        """Put every wrapped attribute back to its original object."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _timed(self, original, layer: Layer, after=None):
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = time.perf_counter
        dynamic = callable(layer)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                stack[-1] += elapsed
                key = layer(args) if dynamic else layer
                self_s[key] += elapsed - nested
                total_s[key] += elapsed
                calls[key] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _branch_layer(self, args: tuple) -> str:
        harness = args[0]
        predictor = type(harness.predictor)
        label = self._labels.get(predictor, predictor.__name__)
        if harness.filter_probabilistic:
            label += "-filtered"
        return f"branch.{label}"

    def _shipping(self, original):
        """Wrap the worker entry point: inside a forked worker, time each
        spec from a clean slate and attach the totals to its result."""

        @functools.wraps(original)
        def wrapper(spec):
            if os.getpid() == self._pid:
                return original(spec)
            self._clear()
            result = original(spec)
            setattr(result, SHIPPED, (dict(self.self_s), dict(self.calls)))
            return result

        return wrapper

    def _after_map(self, args: tuple, results) -> None:
        executor, specs = args[0], args[1]
        workers = max(1, getattr(executor, "processes", 1) or 1)
        self.specs += len(specs)
        self.busy_share_s += sum(r.wall_time for r in results) / workers
        for result in results:
            self_s, calls = getattr(result, SHIPPED, ({}, {}))
            for key, seconds in self_s.items():
                self.worker_s[key] += seconds
            for key, count in calls.items():
                self.worker_calls[key] += count
            self.worker_share_s += sum(self_s.values()) / workers

    def _after_get(self, args: tuple, result) -> None:
        if result is not None:
            self.cache_hits += 1

    def _clear(self) -> None:
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self._stack[:] = [0.0]

    # -- reporting --------------------------------------------------------

    def report(self, wall: float, results, extras: Dict) -> Dict[str, float]:
        """Per-layer metrics for one traced pass.

        ``results`` are the pass's simulated (not cache-served)
        ``RunResult``s; ``extras`` holds what the pass measured itself
        (``trace_bytes``).
        """
        def seconds(layer: str) -> float:
            return self.self_s.get(layer, 0.0) + self.worker_s.get(layer, 0.0)

        def calls(layer: str) -> int:
            return self.calls.get(layer, 0) + self.worker_calls.get(layer, 0)

        metrics: Dict[str, float] = {}
        for label in BRANCH_LABELS:
            consume = seconds(f"branch.{label}")
            branches = sum(
                r.predictors[label].branches for r in results
                if label in r.predictors
            )
            metrics[f"branch.{label}.consume_s"] = consume
            metrics[f"branch.{label}.branches"] = branches
            metrics[f"branch.{label}.ns_per_branch"] = 1e9 * _ratio(consume, branches)

        fed = sum(core.instructions for r in results for core in r.cores.values())
        metrics["pipeline.feed_s"] = seconds("pipeline.feed")
        metrics["pipeline.feed_calls"] = calls("pipeline.feed")
        metrics["pipeline.ns_per_inst"] = 1e9 * _ratio(metrics["pipeline.feed_s"], fed)
        metrics["sim.fanout_s"] = seconds("sim.fanout")
        metrics["sim.fallback_batches"] = sum(r.sink_fallbacks for r in results)

        interpreted = sum(r.instructions for r in results if r.trace_origin != "replay")
        metrics["engines.run_s"] = seconds("engines.run")
        metrics["engines.instructions"] = interpreted
        metrics["engines.ns_per_inst"] = 1e9 * _ratio(metrics["engines.run_s"], interpreted)
        metrics["engines.executor_s"] = seconds("engines.executor")
        metrics["workloads.build_s"] = seconds("workloads.build")

        pbs = [r.pbs_stats for r in results if r.pbs_stats is not None]
        metrics["core.transact_s"] = seconds("core.transact")
        metrics["core.transact_calls"] = calls("core.transact")
        metrics["core.hit_ratio"] = _ratio(
            sum(s.hits for s in pbs), sum(s.instances for s in pbs)
        )

        metrics["trace.capture_s"] = seconds("trace.capture")
        metrics["trace.capture_bytes"] = extras.get("trace_bytes", 0)
        metrics["trace.replay_s"] = seconds("trace.replay")
        metrics["trace.replay_events"] = sum(
            r.instructions for r in results if r.trace_origin == "replay"
        )

        gets = calls("cache.get")
        metrics["cache.get_s"] = seconds("cache.get")
        metrics["cache.get_calls"] = gets
        metrics["cache.hit_ratio"] = _ratio(self.cache_hits, gets)
        metrics["cache.put_s"] = seconds("cache.put")

        map_self = self.self_s.get("executors.map", 0.0)
        overhead = map_self - self.busy_share_s if self.specs else 0.0
        metrics["executors.map_s"] = self.total_s.get("executors.map", 0.0)
        metrics["executors.specs"] = self.specs
        metrics["executors.overhead_s"] = overhead

        # Parent self time, with the executor's wait on its workers
        # replaced by the workers' own layers at their share of the wall.
        accounted = (
            sum(self.self_s.values()) - map_self + overhead + self.worker_share_s
        )
        metrics["traced.unaccounted_s"] = wall - accounted
        return metrics


def _definer(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose own namespace defines ``name``."""
    return next(klass for klass in cls.__mro__ if name in vars(klass))
