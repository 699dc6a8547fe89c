#!/usr/bin/env python3
"""Quickstart: mark a probabilistic branch and watch PBS eliminate its
mispredictions — through the unified `repro.sim` API.

Builds the paper's motivating example — a Monte Carlo loop whose branch
direction depends on freshly drawn random values — registers it as a
workload plugin, and drives it with a `Session`: the benchmark is
interpreted once per configuration, fanning the trace out to the 8 KB
TAGE-SC-L timing core, with and without Probabilistic Branch Support.
It then captures the committed path into a trace store, replays it for
a different predictor with no re-interpretation, and runs a trace-native
analysis pass over the stored stream.

Run:  python examples/quickstart.py

Where to next: docs/index.md maps the documentation suite — the
Session/Sweep API reference (docs/api.md), the trace layer this script
captures into (docs/traces.md), the analysis toolkit it finishes with
(docs/analysis.md), and distributed execution (docs/service.md).
"""

import os

from repro.core import hardware_cost
from repro.isa import F, ProgramBuilder, R
from repro.sim import Session, register_workload
from repro.workloads import PaperFacts, Workload

ITERATIONS = 20_000

#: CI's docs-smoke job runs every example at a tiny scale; humans get
#: the full-size run by default.
SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))


@register_workload
class QuickstartWorkload(Workload):
    """Count how often rand() falls below a threshold (Category-1)."""

    name = "quickstart"
    description = "threshold counting loop from the paper's Section II"
    paper = PaperFacts(1, 3, 1, "n/a (tutorial kernel)")

    def build(self, scale: float = 1.0):
        iterations = max(1, int(ITERATIONS * scale))
        b = ProgramBuilder("quickstart")
        taken_count, i = R(1), R(2)
        value = F(1)

        b.li(taken_count, 0)
        b.li(i, 0)
        b.label("loop")
        b.rand(value)
        # The two instructions the paper adds to the ISA: a probabilistic
        # compare-and-jump pair.  On hardware without PBS they behave
        # exactly like cmp + jcc (backward compatible).
        b.prob_cmp("ge", value, 0.3)
        b.prob_jmp(None, "skip")
        b.add(taken_count, taken_count, 1)
        b.label("skip")
        b.add(i, i, 1)
        b.blt(i, iterations, "loop")
        b.out(taken_count)
        b.halt()
        return b.build()

    def reference(self, scale: float = 1.0, seed: int = 0):
        from repro.functional.rng import Drand48

        rng = Drand48(seed)
        iterations = max(1, int(ITERATIONS * scale))
        taken = sum(1 for _ in range(iterations) if not (rng.next() >= 0.3))
        return {"taken_count": float(taken)}

    def outputs(self, state):
        return {"taken_count": float(state.output()[0])}

    def accuracy_error(self, baseline, candidate):
        expected = baseline["taken_count"]
        if expected == 0:
            return abs(candidate["taken_count"])
        return abs(candidate["taken_count"] - expected) / expected


def main():
    iterations = max(1, int(ITERATIONS * SCALE))

    def timed(pbs: bool):
        session = Session("quickstart", scale=SCALE, seed=42)
        session.predictors("tage-sc-l").timing()
        if pbs:
            session.pbs()
        return session.run()

    baseline = timed(pbs=False)
    with_pbs = timed(pbs=True)
    base_core = baseline.core("tage-sc-l")
    pbs_core = with_pbs.core("tage-sc-l")

    print("=== Probabilistic Branch Support quickstart (repro.sim) ===\n")
    print(f"{'':22s}{'baseline':>12s}{'with PBS':>12s}")
    print(f"{'IPC':22s}{base_core.ipc:>12.3f}{pbs_core.ipc:>12.3f}")
    print(f"{'MPKI':22s}{base_core.mpki:>12.3f}{pbs_core.mpki:>12.3f}")
    print(f"{'branch mispredicts':22s}"
          f"{base_core.branches.mispredicts:>12d}"
          f"{pbs_core.branches.mispredicts:>12d}")
    print(f"{'PBS steady-state hits':22s}{'-':>12s}"
          f"{pbs_core.branches.pbs_hits:>12d}")
    speedup = base_core.cycles / pbs_core.cycles
    print(f"\nspeedup: {speedup:.2f}x "
          f"(mispredict penalty eliminated for the probabilistic branch)")
    base_count = int(baseline.outputs["taken_count"])
    pbs_count = int(with_pbs.outputs["taken_count"])
    print(f"algorithm output: {base_count} vs {pbs_count} "
          f"({abs(base_count - pbs_count)} off out of {iterations} — the "
          "bootstrap replay effect, Section IV of the paper)")
    print(f"\nPBS engine: {with_pbs.pbs_stats.hits} hits, "
          f"{with_pbs.pbs_stats.bootstraps} bootstrap executions")
    print("\nstructured result (RunResult.to_json):")
    print("  " + with_pbs.to_json()[:72] + "...")

    # --- capture once, replay everywhere (the repro.trace layer) -----
    # The committed path depends only on (workload, scale, seed, PBS
    # config).  Attaching a trace store records it on the first run;
    # every later run that differs only in predictors or core config
    # replays the stored events instead of re-interpreting — with a
    # bit-identical RunResult.  Full tour: docs/traces.md.
    import tempfile

    with tempfile.TemporaryDirectory() as trace_store:
        captured = (
            Session("quickstart", scale=SCALE, seed=42)
            .predictors("tage-sc-l")
            .trace(trace_store)
            .run()
        )
        replayed = (
            Session("quickstart", scale=SCALE, seed=42)
            .predictors("tournament")      # different predictor, same trace
            .trace(trace_store)
            .run()
        )
        print(f"\ntrace layer: first run {captured.trace_origin}d the "
              f"committed path ({captured.instructions} instructions), "
              f"second run {replayed.trace_origin}ed it "
              f"in {replayed.wall_time:.3f}s with no interpreter")

        # --- study the stored stream itself (repro.analysis) ---------
        # A stored trace is a corpus: analysis passes replay it with no
        # Session at all.  The entropy study shows why PBS works — the
        # probabilistic branch carries ~0.75 bits/execution that no
        # predictor can learn; the loop branch carries ~0.  On the
        # command line: `pbs-experiments analyze`.  Tour: docs/analysis.md.
        from repro.analysis import analyze_store

        report = analyze_store(trace_store, passes=["branch-entropy"])[0]
        print("\nbranch entropy from the stored trace (docs/analysis.md):")
        for row in report["analyses"]["branch-entropy"]["per_branch"]:
            kind = "probabilistic" if row["probabilistic"] else "regular"
            print(f"  pc={row['pc']:<4d} {kind:13s} p(taken)={row['taken_rate']:.3f}"
                  f"  {row['entropy_bits']:.3f} bits/execution")

    print("\nPBS hardware budget (paper Section V-C2):")
    print(hardware_cost().render())


if __name__ == "__main__":
    main()
