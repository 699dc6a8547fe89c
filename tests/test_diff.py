"""Tests for the single-step lockstep differential harness (repro.diff).

Covers the generator/shrinker pair, the stepper adapters, divergence
localization against deliberately broken tiers, the
``max_instructions`` parity boundary, NaN MIN/MAX agreement, lockstep
over the full workload corpus at small scale, and the
``pbs-experiments diff`` CLI contract.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.diff import (
    DIFF_MAX_INSTRUCTIONS,
    STEPPERS,
    CompiledStepper,
    GenProgram,
    InterpStepper,
    build_program,
    diff_tiers,
    generate,
    shrink,
)
from repro.functional import EventBatch, Executor
from repro.functional.executor import (
    ExecutionError,
    ExecutionLimitExceeded,
    nan_max,
    nan_min,
)
from repro.isa import ProgramBuilder, F, R
from repro.sim import FanOut
from repro.trace import TraceReader, TraceWriter
from repro.workloads import workload_names, get_workload

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Generator


class TestGenerator:
    def test_generate_is_deterministic(self):
        assert generate(7) == generate(7)
        assert generate(7) != generate(8)

    def test_build_is_deterministic(self):
        gen = generate(3)
        first, second = build_program(gen), build_program(gen)
        assert list(map(repr, first.instructions)) == list(
            map(repr, second.instructions)
        )
        assert diff_tiers(first, ("interp", "compiled"), seed=3) is None

    def test_descriptor_shape(self):
        gen = generate(5)
        assert isinstance(gen, GenProgram)
        assert gen.name == "gen-full-5"
        assert 6 <= len(gen.body) <= 20
        assert 2 <= gen.iters <= 6

    def test_generator_covers_memory_and_call_macros(self):
        # Memory / CALL / RANDN macros are drawn with the rest: over a
        # handful of seeds at least one program must use them.
        assert any(
            macro[0] in ("mem", "fmem", "call", "randn")
            for seed in range(10)
            for macro in generate(seed).body
        )


# ---------------------------------------------------------------------------
# Lockstep agreement (the healthy case)


class _Columns:
    """A batch sink that keeps every row it is fed, column by column."""

    def __init__(self):
        self.columns = {name: [] for name in EventBatch.__slots__}

    def consume_batch(self, batch):
        for name, column in self.columns.items():
            column.extend(getattr(batch, name))


class TestLockstepAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_interp_compiled_replay_agree(self, seed, tmp_path):
        program = build_program(generate(seed))
        assert diff_tiers(program, ("interp", "compiled"), seed=seed) is None
        # The interpreter's committed path survives a trace capture and
        # replay through the batch codec, row for row.
        live, replayed = _Columns(), _Columns()
        writer = TraceWriter(tmp_path / "t.trace", events_per_frame=64)
        Executor(program, seed=seed).run(sink=FanOut([live, writer]))
        writer.finalize({})
        TraceReader(tmp_path / "t.trace").replay(replayed)
        assert live.columns["pcs"]
        assert replayed.columns == live.columns

    def test_coarse_stride_agrees_too(self):
        program = build_program(generate(1))
        assert diff_tiers(
            program, ("interp", "compiled"), seed=1, stride=64
        ) is None

    def test_needs_two_tiers(self):
        program = build_program(generate(0))
        with pytest.raises(ValueError):
            diff_tiers(program, ("interp",))

    def test_unknown_tier_rejected(self):
        program = build_program(generate(0))
        with pytest.raises(ValueError):
            diff_tiers(program, ("interp", "quantum"))


# ---------------------------------------------------------------------------
# Known-divergence fixtures: deliberately broken tiers must be localized


class _BrokenRegStepper(InterpStepper):
    """Reports reg[3] off by one from the 5th retired instruction on —
    a seeded state divergence the harness must pin to retired == 5."""

    name = "broken-reg"
    BREAK_AT = 5

    def regs(self):
        regs = super().regs()
        if self.retired >= self.BREAK_AT:
            regs[3] ^= 1
        return regs


class _WrongPcStepper(InterpStepper):
    """Reports a wrong PC once live execution passes 3 instructions."""

    name = "broken-pc"

    @property
    def pc(self):
        real = super().pc
        return real + 1 if self.retired >= 3 and not self.halted else real


class _FaultingStepper(InterpStepper):
    """Raises a fault the reference does not, after 4 instructions."""

    name = "broken-fault"

    def step_to(self, target):
        super().step_to(target)
        if self.retired >= 4:
            raise ExecutionError("injected tier fault")


@pytest.fixture
def broken_tiers():
    fixtures = (_BrokenRegStepper, _WrongPcStepper, _FaultingStepper)
    for cls in fixtures:
        STEPPERS[cls.name] = cls
    try:
        yield
    finally:
        for cls in fixtures:
            STEPPERS.pop(cls.name, None)


class TestKnownDivergences:
    def test_state_divergence_localized_exactly(self, broken_tiers):
        program = build_program(generate(0))
        divergence = diff_tiers(program, ("interp", "broken-reg"), seed=0)
        assert divergence is not None
        assert divergence.kind == "state"
        assert divergence.retired == _BrokenRegStepper.BREAK_AT
        assert divergence.program == program.name
        delta = divergence.deltas[0]
        assert delta["field"] == "reg"
        assert delta["index"] == 3
        assert set(delta["values"]) == {"interp", "broken-reg"}
        # The diverging instruction is attributed and decoded.
        assert divergence.instruction is not None
        assert divergence.instruction_pc is not None
        assert divergence.summary().startswith(program.name)

    def test_coarse_stride_refines_to_step_exact(self, broken_tiers):
        program = build_program(generate(0))
        coarse = diff_tiers(
            program, ("interp", "broken-reg"), seed=0, stride=16
        )
        exact = diff_tiers(program, ("interp", "broken-reg"), seed=0)
        assert coarse is not None and exact is not None
        assert coarse.retired == exact.retired
        assert coarse.deltas == exact.deltas

    def test_control_divergence_reported(self, broken_tiers):
        program = build_program(generate(0))
        divergence = diff_tiers(program, ("interp", "broken-pc"), seed=0)
        assert divergence is not None
        assert divergence.kind == "control"
        assert divergence.pcs["broken-pc"] == divergence.pcs["interp"] + 1

    def test_exception_divergence_reported(self, broken_tiers):
        program = build_program(generate(0))
        divergence = diff_tiers(program, ("interp", "broken-fault"), seed=0)
        assert divergence is not None
        assert divergence.kind == "exception"
        assert divergence.errors["interp"] is None
        assert "injected tier fault" in divergence.errors["broken-fault"]
        assert "exception divergence" in divergence.summary()

    def test_divergence_round_trips_to_dict(self, broken_tiers):
        program = build_program(generate(0))
        divergence = diff_tiers(program, ("interp", "broken-reg"), seed=0)
        payload = json.loads(json.dumps(divergence.to_dict()))
        assert payload["kind"] == "state"
        assert payload["retired"] == _BrokenRegStepper.BREAK_AT

    def test_shrinker_minimizes_reproducer(self, broken_tiers):
        gen = generate(0)

        def diverges(candidate):
            return diff_tiers(
                build_program(candidate), ("interp", "broken-reg"), seed=0
            ) is not None

        small, attempts = shrink(gen, diverges)
        assert attempts > 0
        # The break fires unconditionally at retired 5, so the minimizer
        # should strip essentially the whole body and the loop count.
        assert len(small.body) < len(gen.body)
        assert small.iters <= gen.iters
        assert diverges(small)  # minimized case still reproduces


# ---------------------------------------------------------------------------
# max_instructions parity across tiers


def _counting_loop():
    b = ProgramBuilder("counting-loop")
    b.li(R(1), 0)
    b.label("loop")
    b.add(R(1), R(1), 1)
    b.jmp("loop")
    return b.build()


class TestLimitParity:
    LIMIT = 50

    @pytest.mark.parametrize(
        "stepper_class",
        [InterpStepper, CompiledStepper],
    )
    def test_every_tier_trips_at_exact_boundary(self, stepper_class):
        stepper = stepper_class(
            _counting_loop(), seed=0, max_instructions=self.LIMIT
        )
        with pytest.raises(ExecutionLimitExceeded):
            stepper.step_to(10 * self.LIMIT)
        assert stepper.retired == self.LIMIT

    def test_consistent_limit_fault_is_agreement(self):
        tiers = ("interp", "compiled")
        assert diff_tiers(
            _counting_loop(), tiers, seed=0, max_instructions=self.LIMIT
        ) is None


# ---------------------------------------------------------------------------
# NaN MIN/MAX semantics


def _nan_minmax_program():
    b = ProgramBuilder("nan-minmax")
    b.fli(F(1), 1e308)
    b.fadd(F(2), F(1), F(1))      # inf
    b.fsub(F(3), F(2), F(2))      # NaN, synthesized at runtime
    b.fmin(F(4), F(3), F(1))      # NaN propagates
    b.fmax(F(5), F(1), F(3))      # ... from either side
    b.fmin(F(6), F(1), F(2))
    for reg in (4, 5, 6):
        b.out(F(reg), channel=1)
    b.halt()
    return b.build()


class TestNaNMinMax:
    def test_nan_helpers_propagate_first_nan(self):
        nan = float("nan")
        assert math.isnan(nan_min(nan, 1.0))
        assert math.isnan(nan_min(1.0, nan))
        assert math.isnan(nan_max(nan, 1.0))
        assert math.isnan(nan_max(1.0, nan))
        # Ties keep the first operand (observable via signed zero).
        assert math.copysign(1.0, nan_min(-0.0, 0.0)) == -1.0
        assert math.copysign(1.0, nan_max(0.0, -0.0)) == 1.0

    def test_interp_and_compiled_agree_on_nan(self):
        assert diff_tiers(
            _nan_minmax_program(), ("interp", "compiled"), seed=0
        ) is None

    def test_nan_outputs_are_nan(self):
        stepper = InterpStepper(_nan_minmax_program(), seed=0)
        stepper.step_to(DIFF_MAX_INSTRUCTIONS)
        out = stepper.outputs()[1]
        assert math.isnan(out[0]) and math.isnan(out[1])
        assert out[2] == 1e308


# ---------------------------------------------------------------------------
# The whole workload corpus under lockstep at small scale


class TestCorpusLockstep:
    SCALE = 0.02

    @pytest.mark.parametrize("name", workload_names())
    def test_workload_lockstep(self, name):
        program = get_workload(name).build(self.SCALE)
        divergence = diff_tiers(
            program, ("interp", "compiled"), seed=1, max_instructions=2_000_000
        )
        assert divergence is None, divergence.summary()


# ---------------------------------------------------------------------------
# CLI contract


def _run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", "diff", *argv],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )


class TestCli:
    def test_json_contract(self):
        proc = _run_cli(
            "--tiers", "interp,compiled", "--programs", "3",
            "--seed", "0", "--json",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["ok"] is True
        assert report["programs"] == 3
        assert report["checked"] == 3
        assert report["tiers"] == ["interp", "compiled"]
        assert report["divergences"] == []

    def test_unknown_tier_is_usage_error(self):
        for tier in ("quantum", "vector", "replay"):
            proc = _run_cli("--tiers", f"interp,{tier}", "--programs", "1")
            assert proc.returncode == 2
            assert "unknown tier" in proc.stderr

    def test_workload_lockstep_via_cli(self):
        proc = _run_cli(
            "--tiers", "interp,compiled", "--programs", "0",
            "--workloads", "pi", "--scale", "0.02", "--json",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["ok"] is True
        names = [w["workload"] for w in report["workloads"]]
        assert names == ["pi"]
        assert report["workloads"][0]["divergence"] is None
