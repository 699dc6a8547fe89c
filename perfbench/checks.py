"""The output check: every spec of every pass must come out exactly right.

A spec fails when its pass crashed or when any of these does not hold:

* a base-mode spec's ``outputs`` equal ``Workload.reference(scale, seed)``;
* its statistics digest (``grids.stats_digest``) equals the digest pinned
  in ``pins.json``, when the run uses the pinned base seed and grid sizes;
* in ``trace-pool``, every result, whether interpreted and captured,
  replayed from a trace or served from the cache, equals a plain
  in-process interpretation of the same spec, and came from the path its
  phase implies;
* its digest equals the one the run's first pass produced for it.

``failed_frac`` is failed specs over attempted specs, across all passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

import grids

PINS = Path(__file__).with_name("pins.json")


def load_pins() -> Dict:
    return json.loads(PINS.read_text())


def pin_key(key: str) -> str:
    """Pins are per spec; both ``trace-pool`` phases share one pin."""
    return key.rsplit("|", 1)[0] if key.endswith(("|cold", "|warm")) else key


def _same(a: float, b: float) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


class Expectations:
    """What one run's passes must produce, computed once before them."""

    def __init__(self, grid: grids.Grid, base_seed: int, pins: Optional[Dict]):
        from repro.sim import get_workload

        self.grid = grid
        self.keys = grids.expected_keys(grid, base_seed)
        self.references = {}
        for key in self.keys:
            workload, mode, seed = key.split("|")[:3]
            if mode == "base":
                self.references.setdefault(
                    (workload, int(seed)),
                    get_workload(workload).reference(grid.scale, int(seed)),
                )
        self.pinned, self.pin_status = self._pins(pins, base_seed)
        self.interpreted = (
            _interpreted_digests(grid, base_seed)
            if grid.name == "trace-pool" else {}
        )
        self.first: Dict[str, str] = {}

    def _pins(self, pins: Optional[Dict], base_seed: int):
        if pins is None:
            return None, "skipped (no pins loaded)"
        entry = pins["grids"].get(self.grid.name)
        if base_seed != pins["seed"]:
            return None, f"skipped (seed {base_seed} is not the pinned seed {pins['seed']})"
        if entry is None or (entry["scale"], entry["seeds_per_pass"]) != (
            self.grid.scale, self.grid.seeds_per_pass
        ):
            return None, "skipped (grid size differs from the pinned one)"
        return entry["digests"], "checked"

    def check(self, record: Dict) -> List[str]:
        """One line per failed spec of a pass record."""
        failures = []
        results = record["results"]
        for key in self.keys:
            got = results.get(key)
            problem = "missing" if got is None else self._problem(key, got)
            if problem:
                failures.append(f"{self.grid.name} {key}: {problem}")
        return failures

    def _problem(self, key: str, got: Dict) -> Optional[str]:
        workload, mode, seed = key.split("|")[:3]
        digest = got["digest"]
        if mode == "base":
            reference = self.references[(workload, int(seed))]
            outputs = got["outputs"] or {}
            if outputs.keys() != reference.keys() or not all(
                _same(outputs[name], reference[name]) for name in reference
            ):
                return "outputs differ from Workload.reference"
        if self.pinned is not None and self.pinned.get(pin_key(key)) != digest:
            return "statistics differ from the pinned digest"
        if self.interpreted:
            if self.interpreted[pin_key(key)] != digest:
                return f"{got['origin']} result differs from the interpreted one"
            allowed = ("cache",) if key.endswith("|warm") else ("capture", "replay")
            if got["origin"] not in allowed:
                return f"served by {got['origin']}, expected one of {allowed}"
        if self.first.setdefault(key, digest) != digest:
            return "statistics differ from the run's first pass"
        return None


def _interpreted_digests(grid: grids.Grid, base_seed: int) -> Dict[str, str]:
    """``trace-pool``'s expected digests: one plain interpretation per
    trace group, feeding all predictors, split into per-predictor results."""
    from repro.sim import RunResult, Session, paper_workload_names

    digests = {}
    for workload in paper_workload_names():
        for seed in grids.sim_seeds(grid, base_seed):
            for mode in grids.MODES:
                session = Session(workload, scale=grid.scale, seed=seed)
                session.predictors(*grids.TRACE_POOL_PREDICTORS)
                if mode == "pbs":
                    session.pbs()
                combined = session.run()
                for predictor in grids.TRACE_POOL_PREDICTORS:
                    one = RunResult.from_dict(combined.to_dict())
                    one.predictors = {predictor: one.predictors[predictor]}
                    key = grids.spec_key(workload, mode, seed, predictor)
                    digests[key] = grids.stats_digest(one)
    return digests
