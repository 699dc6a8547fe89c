"""Autopilot sweeps: deterministic adaptive grid refinement.

:class:`Sweep` executes a static grid; production users want *answers*
— "at which scale does PBS stop winning?" — not grids.
:class:`AdaptiveSweep` layers an adaptive driver on the existing
executor API: a coarse pass over the scale axis, per-cell confidence
intervals (:mod:`repro.stats.confidence`) that stop a cell early once
its interval already decides the registered objective, and a seeded
UCB-style bandit allocator that spends the remaining simulation budget
refining cells nearest the decision boundary.

The whole loop is deterministic given ``(budget, seed)``:

* the allocator RNG is a ``random.Random(seed)`` consulted only at
  round barriers (after ``executor.map`` has returned results in spec
  order), never by wall-clock or arrival order;
* every simulation seed is a pure function of the pull index;
* refinement midpoints are arithmetic, rounded to a fixed precision.

So the emitted :class:`RefinementReport` — rounds, per-cell spend,
frontier estimate — is **byte-identical** across ``serial`` /
``process`` / ``pool`` / ``http`` executors and joins
``tests/golden/`` rather than routing around it.  See
``docs/adaptive.md`` for the objective contract and budget semantics.

Objectives register like workloads and predictors::

    from repro.sim import AdaptiveSweep, Objective, register_objective

    @register_objective("my-threshold")
    class MyObjective(Objective):
        modes = ("base",)
        def sample(self, results):
            return results["base"].outputs["reward"]

    report = AdaptiveSweep("bandit", objective="pbs-win",
                           budget=96, seed=1).run(executor="serial")
    print(report.frontier[0].estimate)
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..stats.confidence import Interval, mean_interval
from .cache import ResultCache
from .executors import Executor, create_executor
from .registry import Registry, validate_options
from .results import RunResult
from .session import DEFAULT_SEED
from .sweep import RunSpec

#: Decision labels.  ``None`` (undecided) never appears in these.
WIN, LOSS = "win", "loss"

#: Midpoint scales are rounded to this many decimals — purely cosmetic
#: (fixtures stay readable), and deterministic.
SCALE_DECIMALS = 9


# ----------------------------------------------------------------------
# Objectives: what a cell is scored on, registered like workloads.
# ----------------------------------------------------------------------
OBJECTIVES = Registry("objective", catalog="registered objectives")


class Objective:
    """The contract an adaptive sweep optimizes against.

    One *sample* is a scalar drawn from the runs of a single
    ``(workload, scale, seed)`` grid point — one run per mode in
    :attr:`modes`, delivered to :meth:`sample` keyed by mode.  A cell's
    samples across seeds feed a Student-t interval
    (:func:`repro.stats.confidence.mean_interval`); the cell is
    **decided** once that interval excludes :attr:`threshold`:

    * ``direction == "above"``: *win* when ``low > threshold``,
      *loss* when ``high < threshold``;
    * ``direction == "below"``: the polarity flips (*win* when
      ``high < threshold``).

    Subclasses set :attr:`modes`, :attr:`predictors` (attached to every
    spec), and implement :meth:`sample`.  Constructor keyword options
    are validated by :func:`create_objective` exactly like executor and
    engine options.
    """

    #: Registry name (set by :func:`register_objective`).
    name: str = "?"
    #: Modes each sample needs, in spec order.
    modes: Tuple[str, ...] = ("base", "pbs")
    #: Predictor names attached to every spec this objective scores.
    predictors: Tuple[str, ...] = ()
    #: Which side of ``threshold`` counts as a win.
    direction: str = "above"
    threshold: float = 0.0
    confidence: float = 0.95

    def sample(self, results: Dict[str, RunResult]) -> float:
        """One scalar from the mode-keyed runs of a single grid point."""
        raise NotImplementedError

    def decide(self, interval: Interval) -> Optional[str]:
        """``"win"`` / ``"loss"`` when ``interval`` excludes the
        threshold, ``None`` while it still straddles it."""
        if self.direction == "above":
            if interval.low > self.threshold:
                return WIN
            if interval.high < self.threshold:
                return LOSS
        else:
            if interval.high < self.threshold:
                return WIN
            if interval.low > self.threshold:
                return LOSS
        return None

    def lean(self, mean: float) -> str:
        """The point-estimate side of the threshold — the best guess
        for a cell whose interval never excluded it."""
        above = mean > self.threshold
        if self.direction == "above":
            return WIN if above else LOSS
        return LOSS if above else WIN


def register_objective(name: str, *, replace: bool = False):
    """Class decorator registering an :class:`Objective` under ``name``."""

    def decorator(cls):
        cls.name = name
        OBJECTIVES.register(name, cls, replace=replace)
        return cls

    return decorator


def objective_names() -> List[str]:
    """Registered objective names, in registration order."""
    return list(OBJECTIVES)


def get_objective(name: str):
    """The registered :class:`Objective` subclass for ``name``."""
    return OBJECTIVES.get(name)


def create_objective(
    objective: Union[str, Objective], **options
) -> Objective:
    """Resolve a name (plus constructor ``options``) to an instance.

    Unknown options raise ``TypeError`` naming the valid ones, exactly
    like ``create_executor``/``create_engine``.  An :class:`Objective`
    instance passes through untouched.
    """
    if isinstance(objective, Objective):
        return objective
    cls = OBJECTIVES.get(objective)
    validate_options("objective", objective, cls, options)
    instance = cls(**options)
    instance.options = dict(options)
    return instance


@register_objective("pbs-win")
class PBSWinObjective(Objective):
    """Does PBS cut a predictor's MPKI by more than ``threshold``?

    The sample is ``base MPKI - pbs MPKI`` for ``predictor`` at one
    ``(scale, seed)`` point: positive when PBS helps.  With the default
    ``threshold=0.0`` the frontier separates plain win from loss; a
    positive threshold asks where PBS stops being worth at least that
    many mispredicts per kilo-instruction.
    """

    direction = "above"

    def __init__(
        self,
        predictor: str = "tournament",
        threshold: float = 0.0,
        confidence: float = 0.95,
    ):
        self.predictor = predictor
        self.threshold = float(threshold)
        self.confidence = float(confidence)
        self.predictors = (predictor,)

    def sample(self, results: Dict[str, RunResult]) -> float:
        base = results["base"].predictor(self.predictor).mpki
        pbs = results["pbs"].predictor(self.predictor).mpki
        return base - pbs


@register_objective("pbs-accuracy")
class PBSAccuracyObjective(Objective):
    """Is the PBS run's output deviation from base below ``threshold``?

    The sample is the workload's own ``accuracy_error`` between the
    base and pbs outputs of one ``(scale, seed)`` point (PBS permutes
    random-value consumption, so outputs drift at small scales and
    converge as the law of large numbers takes over).  ``win`` means
    the deviation is *below* the tolerance.
    """

    direction = "below"

    def __init__(self, threshold: float = 0.002, confidence: float = 0.95):
        self.threshold = float(threshold)
        self.confidence = float(confidence)

    def sample(self, results: Dict[str, RunResult]) -> float:
        from .registry import get_workload

        base, pbs = results["base"], results["pbs"]
        workload = get_workload(base.workload)
        return workload.accuracy_error(base.outputs, pbs.outputs)


@register_objective("pbs-output")
class PBSOutputObjective(Objective):
    """Does a numeric workload output of the PBS run clear ``threshold``?

    The sample is ``outputs[key]`` of a single pbs-mode run — no base
    run is needed, so one pull costs one spec.  Useful whenever the
    workload itself exposes the quantity of interest (e.g. the bandit
    workload's ``average_reward``, which climbs with scale as PBS trades
    per-decision noise for throughput).
    """

    modes = ("pbs",)

    def __init__(
        self,
        key: str = "average_reward",
        threshold: float = 0.0,
        direction: str = "above",
        confidence: float = 0.95,
    ):
        if direction not in ("above", "below"):
            raise ValueError(
                f"direction must be 'above' or 'below', got {direction!r}"
            )
        self.key = key
        self.threshold = float(threshold)
        self.direction = direction
        self.confidence = float(confidence)

    def sample(self, results: Dict[str, RunResult]) -> float:
        return float(results["pbs"].outputs[self.key])


# ----------------------------------------------------------------------
# The structured report.
# ----------------------------------------------------------------------
@dataclass
class CellReport:
    """One grid cell's full accounting: where its budget went and what
    the interval says."""

    scale: float
    #: ``0`` for coarse-pass cells, else the round that inserted it.
    round_added: int = 0
    #: Samples in pull order (pull ``k`` used simulation seed
    #: ``seed + k``, so ``seeds`` is implied but recorded explicitly).
    samples: List[float] = field(default_factory=list)
    seeds: List[int] = field(default_factory=list)
    #: Specs consumed by this cell (``pulls * len(modes)``).
    spend: int = 0
    mean: Optional[float] = None
    low: Optional[float] = None
    high: Optional[float] = None
    #: ``"win"`` / ``"loss"`` once the interval excluded the threshold.
    decision: Optional[str] = None
    decided_round: Optional[int] = None
    #: Point-estimate side for undecided-but-sampled cells.
    lean: Optional[str] = None

    @property
    def pulls(self) -> int:
        return len(self.samples)

    def classification(self) -> Optional[str]:
        """Decision when decided, lean otherwise, ``None`` unsampled."""
        return self.decision or self.lean


@dataclass
class RoundReport:
    """One allocation round: which cells were pulled, what it cost."""

    index: int
    #: ``[scale, seed]`` pairs, in dispatch order.
    pulls: List[List[float]] = field(default_factory=list)
    #: Midpoint scales refinement inserted at the top of this round.
    added_scales: List[float] = field(default_factory=list)
    #: Cells whose interval first excluded the threshold this round.
    decided_scales: List[float] = field(default_factory=list)
    spend: int = 0


@dataclass
class FrontierSegment:
    """Two adjacent cells classified to opposite sides, and the
    threshold crossing linearly interpolated between their means."""

    low_scale: float
    high_scale: float
    low_classification: str
    high_classification: str
    estimate: float


@dataclass
class RefinementReport:
    """Everything one :meth:`AdaptiveSweep.run` produced.

    JSON round-trips through :meth:`to_dict`/:meth:`from_dict` exactly
    like :class:`RunResult`, and is byte-identical for a fixed
    ``(budget, seed)`` regardless of executor — which is what the
    golden fixtures pin.  Wall time and executor telemetry are
    transient (:meth:`stats`), never serialized.
    """

    workload: str
    objective: str
    objective_options: Dict = field(default_factory=dict)
    modes: Tuple[str, ...] = ("base", "pbs")
    direction: str = "above"
    threshold: float = 0.0
    confidence: float = 0.95
    budget: int = 0
    seed: int = DEFAULT_SEED
    budget_spent: int = 0
    #: Allocation rounds executed after the coarse pass.
    refine_rounds: int = 0
    #: Cells whose interval decided the objective before the budget ran
    #: out — each stopped consuming budget the moment it decided.
    early_stopped: int = 0
    cells: List[CellReport] = field(default_factory=list)
    rounds: List[RoundReport] = field(default_factory=list)
    frontier: List[FrontierSegment] = field(default_factory=list)

    # -- transient bookkeeping (like RunResult.cached): never serialized.
    wall_time: float = 0.0
    executor: Optional[str] = None
    simulated: int = 0
    cache_hits: int = 0
    workers: Optional[Dict] = None

    _TRANSIENTS = ("wall_time", "executor", "simulated", "cache_hits",
                   "workers")

    def cell(self, scale: float) -> CellReport:
        for cell in self.cells:
            if cell.scale == scale:
                return cell
        raise LookupError(f"no cell at scale {scale!r}")

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict:
        data = asdict(self)
        for transient in self._TRANSIENTS:
            data.pop(transient)
        data["modes"] = list(self.modes)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RefinementReport":
        data = dict(data)
        for transient in cls._TRANSIENTS:
            data.pop(transient, None)
        data["modes"] = tuple(data.get("modes") or ())
        data["cells"] = [CellReport(**cell) for cell in data.get("cells") or []]
        data["rounds"] = [
            RoundReport(**entry) for entry in data.get("rounds") or []
        ]
        data["frontier"] = [
            FrontierSegment(**segment) for segment in data.get("frontier") or []
        ]
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        # No key sorting: field order round-trips unchanged (the same
        # convention as RunResult.to_json).
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RefinementReport":
        return cls.from_dict(json.loads(text))

    def stats(self) -> Dict:
        """The ``autopilot --stats-json`` contract (documented in
        ``docs/api.md``): the deterministic counters of the report plus
        the transient execution telemetry."""
        return {
            "workload": self.workload,
            "objective": self.objective,
            "budget": self.budget,
            "budget_spent": self.budget_spent,
            "refine_rounds": self.refine_rounds,
            "early_stopped": self.early_stopped,
            "cells": len(self.cells),
            "frontier": [segment.estimate for segment in self.frontier],
            "specs": self.budget_spent,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "wall_time": self.wall_time,
            "executor": self.executor,
            "workers": self.workers,
        }

    def render(self) -> str:
        """Human-readable summary (the CLI's default output)."""
        lines = [
            f"autopilot {self.workload} · objective {self.objective} "
            f"(threshold {self.threshold:g}, {self.direction}) · "
            f"budget {self.budget_spent}/{self.budget} · "
            f"{self.refine_rounds} refine rounds · "
            f"{self.early_stopped} cells decided early"
        ]
        for cell in self.cells:
            if not cell.samples:
                status = "unsampled"
            elif cell.decision:
                status = (f"{cell.decision:4s} (decided round "
                          f"{cell.decided_round})")
            else:
                status = f"lean {cell.lean}"
            interval = ""
            if cell.mean is not None:
                interval = (f"  mean {cell.mean: .4f} "
                            f"[{cell.low: .4f}, {cell.high: .4f}]")
            lines.append(
                f"  scale {cell.scale:<11g} pulls {cell.pulls:<3d} "
                f"spend {cell.spend:<4d}{interval}  {status}"
            )
        if self.frontier:
            for segment in self.frontier:
                lines.append(
                    f"  frontier: {segment.low_classification} -> "
                    f"{segment.high_classification} between "
                    f"{segment.low_scale:g} and {segment.high_scale:g}, "
                    f"estimate scale ~ {segment.estimate:g}"
                )
        else:
            lines.append("  frontier: not located (objective never flips)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The driver.
# ----------------------------------------------------------------------
class _Cell:
    """Mutable in-flight state behind one :class:`CellReport`."""

    __slots__ = ("scale", "round_added", "samples", "seeds", "spend",
                 "decision", "decided_round")

    def __init__(self, scale: float, round_added: int = 0):
        self.scale = scale
        self.round_added = round_added
        self.samples: List[float] = []
        self.seeds: List[int] = []
        self.spend = 0
        self.decision: Optional[str] = None
        self.decided_round: Optional[int] = None

    def interval(self, confidence: float) -> Optional[Interval]:
        if not self.samples:
            return None
        return mean_interval(self.samples, confidence)


class AdaptiveSweep:
    """Budget-driven adaptive refinement over the scale axis.

    The driver runs in rounds.  Round 0 is the **coarse pass**:
    ``init_pulls`` samples for every cell of ``scales``.  Each later
    round then (1) re-scores every cell and freezes the ones whose
    confidence interval already excludes the objective threshold
    (**early stop** — they receive no further budget), (2) inserts a
    midpoint cell between adjacent cells classified to opposite sides
    (**refinement**, down to ``min_gap``), and (3) spends
    ``batch_pulls`` more pulls chosen by a seeded UCB-style bandit:
    cells whose intervals straddle the threshold most tightly score
    highest, with a ``sqrt(log N / n)`` exploration bonus and one slot
    per round drawn uniformly by the allocator RNG.

    One *pull* costs ``len(objective.modes)`` specs (one simulation per
    mode).  Pulls are only dispatched while they fit: ``budget_spent <=
    budget`` always holds, cache hits included.  All specs of a round
    form a single executor batch — ``map()`` returns them in spec
    order, which is the barrier that keeps the loop deterministic on
    parallel and distributed backends.
    """

    def __init__(
        self,
        workload: str,
        objective: Union[str, Objective] = "pbs-win",
        objective_options: Optional[Dict] = None,
        scales: Sequence[float] = (0.01, 0.02, 0.04, 0.08),
        budget: int = 96,
        seed: int = DEFAULT_SEED,
        init_pulls: int = 2,
        min_pulls: int = 2,
        max_pulls: int = 12,
        batch_pulls: int = 4,
        max_rounds: int = 16,
        min_gap: float = 1e-3,
        max_cells: int = 32,
        explore: float = 0.5,
        harness_options: Optional[Dict] = None,
        pbs_config=None,
        cache_dir: Optional[str] = None,
        engine: Optional[str] = None,
        engine_options: Optional[Dict] = None,
    ):
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        if not scales:
            raise ValueError("need at least one coarse scale")
        if init_pulls < 1 or batch_pulls < 1:
            raise ValueError("init_pulls and batch_pulls must be >= 1")
        if min_pulls < 2:
            # A single sample yields a degenerate [mean, mean] interval
            # that "excludes" any threshold it does not equal — deciding
            # a cell on it would make early stop a coin flip.
            raise ValueError("min_pulls must be >= 2")
        self.workload = workload
        self.objective = create_objective(
            objective, **(objective_options or {})
        )
        self.scales = tuple(sorted(set(float(s) for s in scales)))
        self.budget = int(budget)
        self.seed = int(seed)
        self.init_pulls = init_pulls
        self.min_pulls = min_pulls
        self.max_pulls = max(max_pulls, min_pulls)
        self.batch_pulls = batch_pulls
        self.max_rounds = max_rounds
        self.min_gap = float(min_gap)
        self.max_cells = max_cells
        self.explore = float(explore)
        self.harness_options = dict(harness_options or {})
        if pbs_config is not None and not isinstance(pbs_config, dict):
            from dataclasses import asdict as dataclass_asdict

            pbs_config = dataclass_asdict(pbs_config)
        self.pbs_config = pbs_config
        self.cache_dir = cache_dir
        self.engine = engine
        self.engine_options = dict(engine_options or {})

    # -- spec plumbing -------------------------------------------------
    def _pull_specs(self, cell: _Cell, pull_index: int) -> List[RunSpec]:
        sim_seed = self.seed + pull_index
        return [
            RunSpec(
                workload=self.workload,
                scale=cell.scale,
                seed=sim_seed,
                mode=mode,
                predictors=tuple(self.objective.predictors),
                harness_options=dict(self.harness_options),
                pbs_config=self.pbs_config if mode == "pbs" else None,
                engine=self.engine,
                engine_options=dict(self.engine_options),
            )
            for mode in self.objective.modes
        ]

    def _dispatch(
        self,
        pulls: List[Tuple[_Cell, int]],
        backend: Executor,
        cache: Optional[ResultCache],
        report: RefinementReport,
    ) -> None:
        """Run one round's pulls as a single executor batch and feed the
        samples back into their cells, in pull order."""
        specs: List[RunSpec] = []
        owners: List[Tuple[_Cell, int]] = []
        for cell, pull_index in pulls:
            specs.extend(self._pull_specs(cell, pull_index))
            owners.append((cell, pull_index))
        results: List[Optional[RunResult]] = [None] * len(specs)
        missing: List[int] = []
        if cache is not None:
            for index, spec in enumerate(specs):
                hit = cache.get(spec.digest())
                if hit is not None:
                    results[index] = hit
                else:
                    missing.append(index)
        else:
            missing = list(range(len(specs)))
        if missing:
            fresh = backend.map([specs[index] for index in missing])
            if len(fresh) != len(missing):
                raise RuntimeError(
                    f"executor {backend.name!r} returned {len(fresh)} "
                    f"results for {len(missing)} specs"
                )
            for index, result in zip(missing, fresh):
                results[index] = result
                if cache is not None:
                    cache.put(specs[index].digest(), result)
            telemetry = getattr(backend, "telemetry", None)
            if telemetry:
                report.workers = report.workers or {}
                for address, counters in telemetry.items():
                    slot = report.workers.setdefault(address, {})
                    for key, value in counters.items():
                        slot[key] = slot.get(key, 0) + value
        report.simulated += len(missing)
        report.cache_hits += len(specs) - len(missing)
        width = len(self.objective.modes)
        for slot, (cell, pull_index) in enumerate(owners):
            by_mode = {
                mode: results[slot * width + offset]
                for offset, mode in enumerate(self.objective.modes)
            }
            cell.samples.append(float(self.objective.sample(by_mode)))
            cell.seeds.append(self.seed + pull_index)
            cell.spend += width
        report.budget_spent += len(specs)

    # -- the adaptive loop ---------------------------------------------
    def run(
        self,
        executor: Union[str, Executor, None] = None,
        processes: int = 1,
        on_round: Optional[Callable[[RoundReport], None]] = None,
    ) -> RefinementReport:
        """Execute the adaptive loop and return its structured report.

        ``executor``/``processes`` mean exactly what they mean on
        :meth:`Sweep.run`; an :class:`Executor` instance is kept open
        (the caller owns it), a name is instantiated and closed here.
        ``on_round(round_report)`` fires at each completed round
        barrier.
        """
        objective = self.objective
        started = time.perf_counter()
        rng = random.Random(self.seed)
        cells = [_Cell(scale) for scale in self.scales]
        cache = ResultCache(self.cache_dir) if self.cache_dir else None
        report = RefinementReport(
            workload=self.workload,
            objective=objective.name,
            objective_options=dict(getattr(objective, "options", {})),
            modes=tuple(objective.modes),
            direction=objective.direction,
            threshold=objective.threshold,
            confidence=objective.confidence,
            budget=self.budget,
            seed=self.seed,
        )
        width = len(objective.modes)
        backend = create_executor(executor, processes)
        report.executor = backend.name
        try:
            # Round 0: the coarse pass, clipped to whatever fits.
            pulls: List[Tuple[_Cell, int]] = []
            for pull_index in range(self.init_pulls):
                for cell in cells:
                    if (report.budget_spent + (len(pulls) + 1) * width
                            > self.budget):
                        break
                    pulls.append((cell, pull_index))
            coarse = RoundReport(index=0)
            if pulls:
                self._dispatch(pulls, backend, cache, report)
                coarse.pulls = [
                    [cell.scale, self.seed + k] for cell, k in pulls
                ]
                coarse.spend = len(pulls) * width
            report.rounds.append(coarse)
            self._settle(cells, 0, coarse)
            if on_round is not None:
                on_round(coarse)

            for round_index in range(1, self.max_rounds + 1):
                if report.budget_spent + width > self.budget:
                    break  # not even one pull fits
                round_report = RoundReport(index=round_index)
                self._refine(cells, round_index, round_report)
                chosen = self._allocate(cells, rng)
                if not chosen:
                    break  # every cell decided, capped, or unsampled
                budget_room = (self.budget - report.budget_spent) // width
                chosen = chosen[:budget_room]
                if not chosen:
                    break
                pulls = [(cell, len(cell.samples)) for cell in chosen]
                self._dispatch(pulls, backend, cache, report)
                round_report.pulls = [
                    [cell.scale, self.seed + k] for cell, k in pulls
                ]
                round_report.spend = len(pulls) * width
                report.rounds.append(round_report)
                report.refine_rounds += 1
                self._settle(cells, round_index, round_report)
                if on_round is not None:
                    on_round(round_report)
        finally:
            if not isinstance(executor, Executor):
                backend.close()

        report.early_stopped = sum(
            1 for cell in cells if cell.decision is not None
        )
        report.cells = [self._cell_report(cell) for cell in cells]
        report.frontier = self._frontier(report.cells)
        report.wall_time = time.perf_counter() - started
        return report

    # -- round phases --------------------------------------------------
    def _settle(
        self, cells: List[_Cell], round_index: int, round_report: RoundReport
    ) -> None:
        """Freeze every cell whose interval now excludes the threshold.

        Decisions are only taken at round barriers, from ``min_pulls``
        samples or more; a decided cell never receives another pull.
        """
        for cell in cells:
            if cell.decision is not None or len(cell.samples) < self.min_pulls:
                continue
            interval = cell.interval(self.objective.confidence)
            decision = self.objective.decide(interval)
            if decision is not None:
                cell.decision = decision
                cell.decided_round = round_index
                round_report.decided_scales.append(cell.scale)

    def _classify(self, cell: _Cell) -> Optional[str]:
        if cell.decision is not None:
            return cell.decision
        if not cell.samples:
            return None
        return self.objective.lean(
            sum(cell.samples) / len(cell.samples)
        )

    def _refine(
        self, cells: List[_Cell], round_index: int, round_report: RoundReport
    ) -> None:
        """Insert a midpoint cell inside every adjacent win/loss pair
        wider than ``min_gap`` — the grid grows only where the decision
        boundary actually is."""
        insertions: List[Tuple[int, _Cell]] = []
        for index in range(len(cells) - 1):
            if len(cells) + len(insertions) >= self.max_cells:
                break
            low, high = cells[index], cells[index + 1]
            side_low, side_high = self._classify(low), self._classify(high)
            if side_low is None or side_high is None or side_low == side_high:
                continue
            if high.scale - low.scale <= self.min_gap:
                continue
            midpoint = round(
                (low.scale + high.scale) / 2.0, SCALE_DECIMALS
            )
            if midpoint <= low.scale or midpoint >= high.scale:
                continue
            insertions.append((index + 1, _Cell(midpoint, round_index)))
        for offset, (index, cell) in enumerate(insertions):
            cells.insert(index + offset, cell)
            round_report.added_scales.append(cell.scale)

    def _allocate(
        self, cells: List[_Cell], rng: random.Random
    ) -> List[_Cell]:
        """The seeded UCB allocator: pick up to ``batch_pulls`` cells
        for one more pull each.

        Candidates are the undecided cells below the per-cell pull cap.
        Unsampled and under-``min_pulls`` cells outrank everything
        (they cannot decide yet); the rest score ``urgency + explore *
        sqrt(log(N+1)/n)`` where urgency measures how deeply the
        interval still straddles the threshold.  The last slot of every
        round is an exploration pull drawn uniformly by the allocator
        RNG — the only randomness in the loop, consumed in a fixed
        order at the round barrier.
        """
        candidates = [
            cell for cell in cells
            if cell.decision is None and len(cell.samples) < self.max_pulls
        ]
        if not candidates:
            return []
        total = sum(len(cell.samples) for cell in cells)
        scored: List[Tuple[float, float, _Cell]] = []
        for cell in candidates:
            pull_count = len(cell.samples)
            if pull_count < self.min_pulls:
                score = math.inf
            else:
                interval = cell.interval(self.objective.confidence)
                width = interval.high - interval.low
                distance = abs(interval.mean - self.objective.threshold)
                urgency = (
                    width / (width + distance) if width + distance > 0 else 1.0
                )
                score = urgency + self.explore * math.sqrt(
                    math.log(total + 1) / pull_count
                )
            scored.append((score, cell.scale, cell))
        # Descending score, ascending scale on exact ties: deterministic.
        scored.sort(key=lambda entry: (-entry[0], entry[1]))
        chosen = [cell for _, _, cell in scored[: self.batch_pulls]]
        rest = [cell for _, _, cell in scored[self.batch_pulls:]]
        if rest and len(chosen) == self.batch_pulls:
            # One exploration slot: swap the weakest pick for a uniform
            # draw over the leftovers, so a cell the UCB score starves
            # still gets occasional budget.
            chosen[-1] = rng.choice(rest)
        return chosen

    # -- report assembly -----------------------------------------------
    def _cell_report(self, cell: _Cell) -> CellReport:
        interval = cell.interval(self.objective.confidence)
        lean = None
        if cell.decision is None and cell.samples:
            lean = self.objective.lean(interval.mean)
        return CellReport(
            scale=cell.scale,
            round_added=cell.round_added,
            samples=list(cell.samples),
            seeds=list(cell.seeds),
            spend=cell.spend,
            mean=interval.mean if interval else None,
            low=interval.low if interval else None,
            high=interval.high if interval else None,
            decision=cell.decision,
            decided_round=cell.decided_round,
            lean=lean,
        )

    def _frontier(self, cells: List[CellReport]) -> List[FrontierSegment]:
        """Adjacent opposite-side pairs, with the threshold crossing
        linearly interpolated between their means."""
        segments: List[FrontierSegment] = []
        sampled = [cell for cell in cells if cell.samples]
        for low, high in zip(sampled, sampled[1:]):
            side_low, side_high = low.classification(), high.classification()
            if side_low == side_high or side_low is None or side_high is None:
                continue
            threshold = self.objective.threshold
            if high.mean == low.mean:
                estimate = (low.scale + high.scale) / 2.0
            else:
                fraction = (threshold - low.mean) / (high.mean - low.mean)
                fraction = min(1.0, max(0.0, fraction))
                estimate = low.scale + fraction * (high.scale - low.scale)
            segments.append(FrontierSegment(
                low_scale=low.scale,
                high_scale=high.scale,
                low_classification=side_low,
                high_classification=side_high,
                estimate=round(estimate, SCALE_DECIMALS),
            ))
        return segments
