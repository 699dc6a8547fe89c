"""The benchmark's passes, forked one by one from a freshly set-up interpreter.

``run.py`` starts this script in a new interpreter.  It times its own
set-up (interpreter start until the ``repro.sim`` registries are ready)
against the monotonic clock reading ``run.py`` took just before starting
it.  Then, until ``--seconds`` have passed, it forks one child per pass:
every pass starts from the same just-set-up state, so first-run costs
users pay in every process (lazy imports, code generation) stay inside
``wall_s``.  It prints ``{"setup_s": ..., "passes": [...]}`` as one JSON
line; with ``--setup-only`` it stops after set-up.

Every timing comes with the host's speed at the time it was taken
(:class:`HostSpeed`), so ``run.py`` can scale it to the reference host.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
PASS_TIMEOUT_S = 100

#: Seconds one :func:`_calibration_loop` takes on the reference host
#: (2-vCPU Intel Xeon VM, CPython 3.11) when nothing else disturbs it.
CALIBRATION_REF_S = 0.0054


class _ToyCore:
    """A four-opcode register machine: the calibration loop's workload."""

    __slots__ = ("regs", "memory")

    def __init__(self):
        self.regs = [0] * 32
        self.memory = [0] * 65536

    def step(self, op: int, a: int, b: int, c: int) -> None:
        regs = self.regs
        if op == 0:
            regs[a] = (regs[b] + regs[c]) & 0xFFFFFFFF
        elif op == 1:
            regs[a] = self.memory[regs[b] & 0xFFFF]
        elif op == 2:
            self.memory[(regs[b] * 7) & 0xFFFF] = regs[a]
        else:
            regs[a] = (regs[b] ^ (regs[c] << 1)) & 0xFFFFFFFF


_TOY_PROGRAM = [((i * 7) % 4, i % 32, (i * 3) % 32, (i * 5) % 32) for i in range(997)]


def _calibration_loop(steps: int = 24000) -> None:
    """Fixed pure-Python work shaped like the simulator's: a decoded
    program stepped through method calls on a register file and a
    256 KiB memory.  It touches no ``repro`` code, so no change to the
    simulator moves it.  Of the loops tried, this one tracked the passes'
    slowdown under load best."""
    core = _ToyCore()
    step = core.step
    program = _TOY_PROGRAM
    regs = core.regs
    for i in range(steps):
        op, a, b, c = program[i % 997]
        step(op, a, b, c)
        regs[i & 31] += i


class HostSpeed:
    """How much slower than the reference host this one runs right now.

    The benchmark shares its cores with other machines' work, which
    slows everything by up to 2x for seconds at a time.  Timings divided
    by the factor sampled around and during them stay comparable.
    """

    def __init__(self):
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            started = time.perf_counter()
            _calibration_loop()
            self.samples.append(time.perf_counter() - started)

    def sample_cores(self, cores: int, count: int) -> None:
        """Sample ``cores`` cores at once, as a pool that busy sees them."""
        cpus = sorted(os.sched_getaffinity(0))[:cores]
        if len(cpus) < 2:
            self.sample(count)
            return
        context = multiprocessing.get_context("fork")
        helpers = []
        for cpu in cpus[1:]:
            receive, send = context.Pipe(duplex=False)
            helper = context.Process(target=_sample_pinned, args=(send, cpu, count))
            helper.start()
            send.close()
            helpers.append((helper, receive))
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpus[0]})
        try:
            self.sample(count)
        finally:
            os.sched_setaffinity(0, affinity)
        for helper, receive in helpers:
            with receive:
                self.samples += receive.recv()
            helper.join()

    def factor(self) -> float:
        return sum(self.samples) / len(self.samples) / CALIBRATION_REF_S


def _sample_pinned(conn, cpu: int, count: int) -> None:
    os.sched_setaffinity(0, {cpu})
    speed = HostSpeed()
    speed.sample(count)
    conn.send(speed.samples)
    conn.close()


def _pass_child(conn, grid, seed: int, workdir: Path, traced: bool) -> None:
    import grids
    import tracing

    try:
        trace = tracing.LayerTrace().install() if traced else None
        try:
            speed = HostSpeed()
            speed.sample_cores(grid.cores(), 5)
            between = speed.sample if grid.cores() == 1 else None
            record = grids.run_pass(grid, seed, workdir, trace, between)
            speed.sample_cores(grid.cores(), 5)
            record["host_factor"] = speed.factor()
        finally:
            if trace is not None:
                trace.restore()
        # ru_maxrss is in KiB on Linux; children are the pool workers, if any.
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024
    except Exception:
        record = {"error": traceback.format_exc()}
    conn.send(record)
    conn.close()


def forked_pass(grid, seed: int, workdir: Path, traced: bool) -> dict:
    """Run one pass in a forked child and return its record."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_pass_child,
                            args=(send, grid, seed, workdir, traced))
    child.start()
    send.close()
    try:
        if receive.poll(PASS_TIMEOUT_S):
            record = receive.recv()
        else:
            record = {"error": f"pass still running after {PASS_TIMEOUT_S} s"}
    except EOFError:
        record = {"error": "pass process died"}
    finally:
        receive.close()
        if child.is_alive():
            child.kill()
        child.join()
    record["traced"] = traced
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import repro.sim as sim

    sim.workload_names()
    sim.predictor_names()
    sim.executor_names()
    sim.engine_names()
    setup_s = time.monotonic() - args.spawned
    speed = HostSpeed()
    speed.sample(5)
    setup = {"setup_s": setup_s, "host_factor": speed.factor()}
    if args.setup_only:
        print(json.dumps(setup))
        return

    import grids

    grid = grids.GRIDS[args.workload]
    kinds = (False, True) if args.trace else (False,)
    passes = []
    started = time.monotonic()
    while (time.monotonic() - started < args.seconds
           or len(passes) < MIN_PASSES * len(kinds)):
        traced = kinds[len(passes) % len(kinds)]
        passes.append(forked_pass(grid, args.seed, Path(args.workdir), traced))
        if "error" in passes[-1]:
            break
    print(json.dumps({**setup, "passes": passes}))


if __name__ == "__main__":
    main()
