#!/usr/bin/env python3
"""The repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload mpki-grid --seed 1 --seconds 15 --trace 0

It times the set-up of a few fresh interpreters, then runs passes over
the workload's grid (``passes.py``) until ``--seconds`` have passed (at
least three passes), checks every spec of every pass (``checks.py``),
and prints a readable table followed, as the
last line, by one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones (``tracing.py``).  ``--write-pins`` re-records the
pinned digests in ``pins.json`` instead.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "wall_s": "s",
    "sim_minst_per_s": "Minst/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PINNED_SEED = 1
#: Fresh interpreters timed per untraced run: set-up-only ones plus the
#: one that then runs the passes.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 30
#: A run ends within this many seconds, hung passes included.
DEADLINE_S = 170


def host_record(seed: int) -> Dict:
    """Where and with what the numbers were taken."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": cpu,
        "seed": seed,
    }


def launch(args: List[str], timeout: float) -> Optional[Dict]:
    """Run ``passes.py`` in a fresh interpreter; ``None`` when it failed.

    It runs in its own process group, which is killed afterwards, so no
    pass process or pool worker outlives it, even after a timeout.
    """
    command = [sys.executable, str(HERE / "passes.py"), *args,
               "--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print(f"passes.py still running after {timeout:.0f} s", file=sys.stderr)
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        print(f"passes.py exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path, expect, deadline: float) -> Dict:
    """Set-up samples (untraced runs only), then the passes, all checked;
    every process is gone by ``deadline`` (a ``time.monotonic()``)."""
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    setups = [
        launch(common + ["--seconds", "0", "--setup-only"],
               min(SETUP_TIMEOUT_S, deadline - time.monotonic()))
        for _ in range(0 if trace else SETUP_SAMPLES - 1)
    ]
    served = launch(common + ["--seconds", str(seconds), "--trace", str(int(trace))],
                    deadline - time.monotonic())
    passes = served["passes"] if served else [{"error": "no passes ran"}]
    failures: List[str] = []
    for record in passes:
        if "error" in record:
            print(record["error"], file=sys.stderr)
            failures += [f"{workload} {key}: pass crashed" for key in expect.keys]
        else:
            failures += expect.check(record)
    return {
        "setups": [s for s in setups + [served] if s],
        "records": {
            kind: [r for r in passes if "error" not in r and r["traced"] == kind]
            for kind in ((False, True) if trace else (False,))
        },
        "failures": failures,
        "attempted": len(passes) * len(expect.keys),
    }


def scaled(seconds: float, record: Dict) -> float:
    """A host time scaled to the reference host's speed (``passes.py``)."""
    return seconds / record["host_factor"]


def end_to_end(records: List[Dict], setups: List[Dict]) -> Dict[str, float]:
    median = statistics.median
    return {
        "wall_s": median(scaled(r["wall_s"], r) for r in records),
        "sim_minst_per_s": median(r["instructions"] / scaled(r["wall_s"], r) / 1e6
                                  for r in records),
        "setup_s": median(scaled(s["setup_s"], s) for s in setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in records),
    }


def per_layer(untraced: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    import tracing

    metrics = {}
    for name, unit in tracing.METRICS.items():
        if name != "traced.overhead_pct":
            metrics[name] = statistics.median(
                r["layers"][name] / (r["host_factor"] if unit in ("s", "ns") else 1)
                for r in traced
            )
    plain = statistics.median(scaled(r["wall_s"], r) for r in untraced)
    with_spans = statistics.median(scaled(r["wall_s"], r) for r in traced)
    metrics["traced.overhead_pct"] = 100.0 * (with_spans - plain) / plain
    return metrics


def write_pins(workdir: Path) -> None:
    """Record every workload's digests at the pinned seed."""
    import checks
    import grids

    pins = {"seed": PINNED_SEED, "grids": {}}
    for grid in grids.GRIDS.values():
        expect = checks.Expectations(grid, PINNED_SEED, pins=None)
        served = launch(["--workload", grid.name, "--seed", str(PINNED_SEED),
                         "--workdir", str(workdir), "--seconds", "0"], DEADLINE_S)
        passes = served["passes"] if served else [{"error": "no passes ran"}]
        problems = [
            problem for record in passes
            for problem in (["pass crashed"] if "error" in record
                            else expect.check(record))
        ]
        if problems:
            sys.exit("refusing to pin a failing pass:\n" + "\n".join(problems[:10]))
        pins["grids"][grid.name] = {
            "scale": grid.scale,
            "seeds_per_pass": grid.seeds_per_pass,
            "digests": {
                checks.pin_key(key): entry["digest"]
                for key, entry in sorted(passes[0]["results"].items())
            },
        }
    checks.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.PINS}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="mpki-grid",
                        choices=("mpki-grid", "ipc-timing", "functional", "trace-pool"))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.write_pins:
            write_pins(workdir)
            return 0
        import checks
        import grids

        print("host " + json.dumps(host_record(args.seed)))
        expect = checks.Expectations(
            grids.GRIDS[args.workload], args.seed, checks.load_pins()
        )
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      workdir, expect, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    records = run["records"]
    failed = len(run["failures"])
    attempted = run["attempted"]
    for failure in run["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    metrics: Dict[str, float] = {}
    units = END_TO_END
    if all(records.values()):
        if args.trace:
            import tracing

            units = tracing.METRICS
            metrics = per_layer(records[False], records[True])
        else:
            metrics = end_to_end(records[False], run["setups"])

    print(f"workload {args.workload}  passes {sum(map(len, records.values()))}  "
          f"pins {expect.pin_status}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':<36} {failed / attempted:>16.6g} ratio")
    if records[False]:
        for name, key, unit in (("unscaled wall_s", "wall_s", "s"),
                                ("host_factor", "host_factor", "x")):
            value = statistics.median(r[key] for r in records[False])
            print(f"  {name:<36} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
