"""Compare a pytest-benchmark JSON run against the checked-in baseline.

Usage::

    python benchmarks/compare.py BENCH_baseline.json BENCH_ci.json \
        [--threshold 1.25] [--gate]

Prints one line per benchmark with the baseline mean, the current mean
and their ratio, and emits a warning (a ``::warning::`` annotation when
running under GitHub Actions) for every benchmark whose mean regressed
beyond ``--threshold``.  The comparison is **non-gating** by default —
CI runners and developer machines differ, so the numbers inform rather
than block; pass ``--gate`` to turn regressions into a non-zero exit.

After the full table, a **hot-path trajectory** section restates the
sink-fed benchmarks (with-sink executors, harness feed, trace capture
and replay) as baseline-over-current speedups — the rows the columnar
event pipeline is meant to move, surfaced so they are not lost in the
alphabetical listing.

New benchmarks (present in the current run, absent from the baseline)
and retired ones are reported but never warned about.
"""

from __future__ import annotations

import argparse
import json
import sys


#: Substrings selecting the sink-fed hot-path rows for the trajectory
#: section: every benchmark whose event stream crosses a sink.
TRAJECTORY_MARKERS = ("with_sink", "with_harness", "trace_capture",
                      "trace_replay")


def load_means(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    return {
        bench["name"]: bench["stats"]["mean"]
        for bench in data.get("benchmarks", [])
    }


def print_trajectory(baseline: dict, current: dict) -> None:
    """The with-sink rows as speedups (baseline mean / current mean)."""
    rows = sorted(
        name for name in baseline | current
        if any(marker in name for marker in TRAJECTORY_MARKERS)
    )
    if not rows:
        return
    width = max(len(name) for name in rows)
    print()
    print("hot-path trajectory (sink-fed benchmarks, baseline/current):")
    for name in rows:
        base = baseline.get(name)
        now = current.get(name)
        if base is None or now is None or not now:
            status = "(new)" if base is None else "(retired)"
            print(f"  {name:{width}s}  {status}")
            continue
        print(
            f"  {name:{width}s}  {base:12.6f} -> {now:12.6f}"
            f"  {base / now:5.2f}x"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in BENCH_baseline.json")
    parser.add_argument("current", help="freshly produced benchmark JSON")
    parser.add_argument(
        "--threshold", type=float, default=1.25,
        help="warn when current/baseline mean exceeds this (default 1.25)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="exit non-zero when any benchmark regresses past the threshold",
    )
    args = parser.parse_args(argv)

    baseline = load_means(args.baseline)
    current = load_means(args.current)
    regressions = []

    width = max((len(name) for name in baseline | current), default=4)
    print(f"{'benchmark':{width}s}  {'baseline':>12s}  {'current':>12s}  ratio")
    for name in sorted(baseline | current):
        base = baseline.get(name)
        now = current.get(name)
        if base is None:
            print(f"{name:{width}s}  {'(new)':>12s}  {now:12.6f}      -")
            continue
        if now is None:
            print(f"{name:{width}s}  {base:12.6f}  {'(retired)':>12s}      -")
            continue
        ratio = now / base if base else float("inf")
        marker = ""
        if ratio > args.threshold:
            marker = "  <-- REGRESSION"
            regressions.append((name, ratio))
        print(f"{name:{width}s}  {base:12.6f}  {now:12.6f}  {ratio:5.2f}{marker}")

    print_trajectory(baseline, current)

    for name, ratio in regressions:
        print(
            f"::warning title=benchmark regression::{name} is {ratio:.2f}x "
            f"the baseline mean (threshold {args.threshold:.2f}x)"
        )
    if regressions:
        print(
            f"{len(regressions)} benchmark(s) regressed past "
            f"{args.threshold:.2f}x (non-gating unless --gate)",
            file=sys.stderr,
        )
        return 1 if args.gate else 0
    print("no regressions past the threshold", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
