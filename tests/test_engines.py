"""The tiered execution engines (:mod:`repro.engines`).

Three suites:

* registry/API uniformity — the engine registry behaves exactly like
  the workload/predictor/executor/analysis registries, and every
  ``create_*`` entry point rejects unknown options with an error that
  names the valid ones;
* bit-identity — the compiled tier reproduces the interpreter exactly
  (registers, outputs, retired counts, stats), including a hypothesis
  differential test over random builder programs;
* plumbing — engine directives thread through Session, Sweep, RunSpec
  serialization and the stats counters.
"""

import ast

import pytest

from repro.engines import (
    ENGINES,
    Engine,
    create_engine,
    engine_names,
    get_engine,
    register_engine,
)
from repro.engines.compiled import (
    _MEMO,
    BATCH_FLUSH,
    SINK_BATCH,
    SINK_NONE,
    CompiledEngine,
    CompiledExecutor,
    compiled_function,
    generate_source,
    program_digest,
)
from repro.functional import EventBatch, Executor
from repro.isa import F, ProgramBuilder, R
from repro.sim import (
    EXECUTORS,
    RunSpec,
    Session,
    Sweep,
    create_executor,
    get_workload,
    workload_names,
)


def interp_state(program, seed=0):
    executor = Executor(program, seed=seed)
    state = executor.run()
    return state, executor.retired


def engine_state(name, program, seed=0, **options):
    engine = create_engine(name, **options)
    executor = engine.executor(program, seed=seed)
    state = executor.run()
    return state, executor.retired


def assert_states_match(reference, candidate, label):
    ref_state, ref_retired = reference
    cand_state, cand_retired = candidate
    assert cand_retired == ref_retired, (
        f"{label}: retired {cand_retired} != {ref_retired}"
    )
    for index, (a, b) in enumerate(zip(ref_state.regs, cand_state.regs)):
        assert a == b, f"{label}: register {index}: {b!r} != {a!r}"
    assert cand_state.output() == ref_state.output(), label


# ---------------------------------------------------------------------------
# Registry uniformity (the five registries share one helper).
# ---------------------------------------------------------------------------
class TestEngineRegistry:
    def test_builtin_tiers_registered(self):
        assert set(engine_names()) == {"interp", "compiled"}

    def test_get_unknown_engine_names_catalog(self):
        with pytest.raises(KeyError, match="registered engines"):
            get_engine("turbo")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="interp"):
            @register_engine("interp")
            class Clash(Engine):
                pass

    def test_replace_allows_override(self):
        original = get_engine("interp")
        try:
            @register_engine("interp", replace=True)
            class Override(Engine):
                pass
            assert get_engine("interp") is Override
        finally:
            ENGINES.register("interp", original, replace=True)

    def test_mapping_protocol(self):
        assert "compiled" in ENGINES
        assert ENGINES["compiled"] is get_engine("compiled")
        assert len(ENGINES) == len(engine_names())

    def test_all_five_registries_same_shape(self):
        from repro.analysis import ANALYSES
        from repro.sim.executors import EXECUTORS as EXEC
        from repro.sim.registry import PREDICTORS, WORKLOADS

        for registry in (ENGINES, EXEC, WORKLOADS, PREDICTORS, ANALYSES):
            assert list(registry) == list(registry.names())
            with pytest.raises(KeyError, match="registered"):
                registry.get("definitely-not-registered")


class TestOptionValidation:
    def test_create_engine_rejects_unknown_options(self):
        with pytest.raises(TypeError, match="cache_dir"):
            create_engine("compiled", cache_dirs="/tmp/x")

    def test_create_engine_without_options(self):
        with pytest.raises(TypeError, match="valid options: none"):
            create_engine("interp", threads=4)

    def test_create_engine_passthrough_instance(self):
        engine = CompiledEngine()
        assert create_engine(engine) is engine

    @pytest.mark.parametrize("name", sorted(EXECUTORS))
    def test_create_executor_rejects_unknown_options(self, name):
        with pytest.raises(TypeError) as excinfo:
            create_executor(name, bogus_option=1)
        assert "bogus_option" in str(excinfo.value)
        assert name in str(excinfo.value)



# ---------------------------------------------------------------------------
# Compiled tier: bit-identity and the codegen cache.
# ---------------------------------------------------------------------------
class TestCompiledTier:
    @pytest.mark.parametrize("name", sorted(workload_names()))
    def test_matches_interp_on_every_workload(self, name):
        program = get_workload(name).build(0.02)
        reference = interp_state(program, seed=3)
        candidate = engine_state("compiled", program, seed=3)
        assert_states_match(reference, candidate, f"compiled:{name}")

    @pytest.mark.parametrize("name", sorted(workload_names()))
    def test_matches_interp_with_pbs_on_every_workload(self, name):
        from repro.core import PBSEngine

        program = get_workload(name).build(0.02)
        for seed in (1, 3):
            reference, candidate = (
                _limit_outcome(tier(program, seed=seed, pbs=PBSEngine(),
                                    record_consumed=True), None)
                for tier in (Executor, CompiledExecutor))
            assert reference["error"] is None
            for key in reference:
                assert candidate[key] == reference[key], (
                    f"compiled:{name} seed={seed}: {key}")

    def test_generated_source_is_valid_python(self):
        program = get_workload("pi").build(0.02)
        decoded = Executor._decode(program.instructions)
        for sink, pbs in ((SINK_NONE, False), (SINK_BATCH, True)):
            source = generate_source(
                program, decoded, sink=sink, pbs=pbs, record_consumed=False
            )
            ast.parse(source)  # raises SyntaxError on malformed codegen

    def test_memo_reports_cache_hit(self):
        program = get_workload("pi").build(0.02)
        _MEMO.clear()
        _, first = compiled_function(
            program, sink=False, pbs=False, record_consumed=False
        )
        _, second = compiled_function(
            program, sink=False, pbs=False, record_consumed=False
        )
        assert (first, second) == (False, True)

    def test_program_digest_is_stable_and_content_addressed(self):
        pi = get_workload("pi")
        assert program_digest(pi.build(0.02)) == program_digest(pi.build(0.02))
        assert program_digest(pi.build(0.02)) != program_digest(pi.build(0.04))

    def test_session_reports_compiled_hits(self):
        result = Session("pi").scale(0.02).engine("compiled").run()
        assert result.engine_used == "compiled"
        again = Session("pi").scale(0.02).engine("compiled").run()
        assert again.compiled_hit is True
        assert again.outputs == result.outputs


# ---------------------------------------------------------------------------
# Limit parity: a straight (unbudgeted) compiled run that runs out of
# instructions, or faults, leaves exactly the interpreter's state.
# ---------------------------------------------------------------------------
class _Columns:
    """A sink keeping a copy of every event column it is handed, and
    the size of the largest batch."""

    def __init__(self):
        self.columns = None
        self.largest = 0

    def consume_batch(self, batch):
        self.largest = max(self.largest, len(batch))
        rows = [list(getattr(batch, name)) for name in EventBatch.__slots__]
        if self.columns is None:
            self.columns = rows
        else:
            for column, new in zip(self.columns, rows):
                column.extend(new)


def _faulting_program(kind):
    """A loop that faults mid-block in a later iteration, or a ``RET``
    on an empty call stack after it."""
    b = ProgramBuilder(f"faults-{kind}", data_size=8)
    b.li(R(1), 0)
    b.fli(F(1), 2.0)
    b.li(R(2), 3)
    b.fli(F(4), 2.0)
    b.label("loop")
    b.add(R(1), R(1), 3)
    b.rand(F(2))
    b.fadd(F(1), F(1), F(2))
    if kind == "load":
        b.load(R(3), R(1), 0)              # address 9 is out of range
    elif kind == "div":
        b.div(R(3), R(1), R(2))            # an explicit fault branch
    elif kind == "fdiv":
        b.fdiv(F(3), F(1), F(4))           # a Python-level ZeroDivisionError
    b.sub(R(2), R(2), 1)
    b.fmul(F(4), F(4), 0.0)
    b.out(R(1))
    b.blt(R(1), 100 if kind != "ret" else 6, "loop")
    if kind == "ret":
        b.add(R(3), R(1), 1)
        b.ret()                            # the call stack is empty
    b.halt()
    return b.build()


def _spinning_program():
    """A loop closed by a ``CALL`` and a ``JMP`` alone, with no
    conditional branch: only the limit stops it."""
    b = ProgramBuilder("spins")
    b.li(R(1), 0)
    b.label("loop")
    b.call("sub")
    b.jmp("loop")
    b.halt()
    b.label("sub")
    b.add(R(1), R(1), 1)
    b.ret()
    return b.build()


def _group_leader_program():
    """A PROB group with a block leader inside it: a never-taken
    backward branch targets its intermediate ``PROB_JMP``, so the
    compiled tier checks the budget, and may hand off to the
    interpreter, while the group is open."""
    b = ProgramBuilder("group-leader")
    b.li(R(1), 0)
    b.li(R(3), 0)
    b.fli(F(2), 0.25)
    b.label("outer")
    b.rand(F(1))
    b.prob_cmp("lt", F(1), 0.5)
    b.label("mid")
    b.prob_jmp(F(2), None)
    b.prob_jmp(F(1), "skip")
    b.add(R(3), R(3), 1)
    b.label("skip")
    b.add(R(1), R(1), 1)
    b.bge(R(1), 100, "mid")
    b.blt(R(1), 20, "outer")
    b.halt()
    return b.build()


def _limit_parity_cases():
    """``(program, limits)``: every limit up to a whole run for small
    programs, the first 120 and the last few around HALT (or the fault)
    for larger ones, and no limit at all; then a loop only the limit
    ends, long enough to fill several batches."""
    from repro.diff import build_program, generate

    programs = [get_workload(name).build(0.01)
                for name in ("bsearch", "dop", "swaptions")]
    programs += [build_program(generate(seed)) for seed in (0, 1, 3)]
    programs += [_faulting_program(kind) for kind in ("load", "div", "fdiv", "ret")]
    programs.append(_group_leader_program())
    for program in programs:
        reference = Executor(program, seed=5)
        try:
            reference.run()
        except Exception:
            pass
        total = reference.retired
        limits = set(range(min(total, 120) + 2))
        limits |= set(range(max(total - 4, 0), total + 2))
        limits.add(50_000_000)  # a run the limit never stops
        yield program, sorted(limits)
    yield _spinning_program(), list(range(40)) + [3000]


def _limit_outcome(executor, sink):
    try:
        executor.run(sink=sink)
        error = None
    except Exception as exc:  # the exact exception is part of the state
        error = (type(exc).__name__, str(exc))
    state = executor.state
    return {
        "error": error,
        "retired": executor.retired,
        "events": None if sink is None else sink.columns,
        # The interpreter's batches hold 1024 rows; the compiled tier's
        # may overshoot by at most one straight-line path.
        "largest batch within bound": sink is None or (
            sink.largest <= BATCH_FLUSH + len(executor.program.instructions)),
        "regs": repr(state.regs),       # repr: NaN registers compare
        "memory": repr(state.memory),
        "outputs": repr(state.output()),
        "consumed": repr(executor.consumed_values),
        **pbs_state(executor.pbs),
    }


def pbs_state(pbs):
    """The PBS engine's observable state, empty without one: its
    counters, the context table's loop counters and the Prob-BTB keys."""
    if pbs is None:
        return {}
    context = pbs.context
    return {
        "pbs stats": pbs.stats.as_dict(),
        "context counters": (context.loops_detected,
                             context.loops_terminated, context.evictions),
        "prob-btb keys": sorted(pbs.btb.keys()),
    }


class TestCompiledLimitParity:
    def test_straight_runs_stop_with_the_interpreters_state(self):
        from repro.core import PBSConfig, PBSEngine

        checked = 0
        for program, limits in _limit_parity_cases():
            for limit in limits:
                for with_sink in (False, True):
                    # The base variant (neither PBS nor consumed values)
                    # is the one MPKI and timing runs take.
                    for with_pbs, record in ((False, False), (False, True),
                                             (True, True)):
                        outcomes = []
                        for tier in (Executor, CompiledExecutor):
                            executor = tier(
                                program, seed=5, max_instructions=limit,
                                record_consumed=record,
                                pbs=PBSEngine(PBSConfig()) if with_pbs
                                else None,
                            )
                            outcomes.append(_limit_outcome(
                                executor, _Columns() if with_sink else None))
                        reference, candidate = outcomes
                        for key in reference:
                            assert candidate[key] == reference[key], (
                                f"{program.name} limit={limit} "
                                f"sink={with_sink} pbs={with_pbs} "
                                f"record_consumed={record}: {key}"
                            )
                        checked += 1
        assert checked > 3000


# ---------------------------------------------------------------------------
# Plumbing: Session/Sweep/RunSpec/stat counters.
# ---------------------------------------------------------------------------
class TestEngineThreading:
    def test_session_unknown_engine_fails_fast(self):
        for name in ("turbo", "vector"):
            with pytest.raises(KeyError, match="registered engines"):
                Session("pi").engine(name)

    def test_session_defaults_to_the_compiled_tier(self):
        result = Session("pi").scale(0.02).run()
        assert result.engine_used == "compiled"
        stats = Sweep(workloads=["pi"], scales=[0.02], modes=["base"],
                      predictors=()).run(executor="serial").to_stats()
        assert stats["engine_used"] == {"compiled": 1}
        workload = get_workload("pi")
        assert workload.run(scale=0.02).executor.__class__.__name__ == (
            "CompiledExecutor")
        # The reference tier is still one directive away, with the
        # same result.
        reference = Session("pi").scale(0.02).engine("interp").run()
        assert reference.engine_used == "interp"
        assert reference.outputs == result.outputs
        assert reference.instructions == result.instructions

    def test_engine_used_is_transient(self):
        result = Session("pi").scale(0.02).engine("compiled").run()
        data = result.to_dict()
        assert "engine_used" not in data and "compiled_hit" not in data
        from repro.sim import RunResult

        revived = RunResult.from_dict(data)
        assert revived.engine_used is None and revived.compiled_hit is False

    def test_runspec_round_trips_engine_but_not_in_digest(self):
        spec = RunSpec(workload="pi", scale=0.02, seed=1, engine="compiled",
                       engine_options={"cache_dir": "/tmp/codegen"})
        wire = RunSpec.from_dict(spec.to_dict())
        assert wire.engine == "compiled"
        assert wire.engine_options == {"cache_dir": "/tmp/codegen"}
        plain = RunSpec(workload="pi", scale=0.02, seed=1)
        assert spec.digest() == plain.digest()  # tiers never split the cache

    def test_sweep_unknown_engine_fails_fast(self):
        for name in ("turbo", "vector"):
            with pytest.raises(KeyError, match="registered engines"):
                Sweep(workloads=["pi"], engine=name)

    def test_cli_rejects_unregistered_engine(self, capsys):
        from repro.experiments.runner import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--engine", "vector"])
        assert exc.value.code == 2
        assert "invalid choice: 'vector'" in capsys.readouterr().err

    def test_sweep_compiled_counts_hits(self):
        grid = dict(workloads=["pi"], scales=[0.02], seeds=range(3),
                    modes=["base"])
        result = Sweep(**grid, engine="compiled").run(executor="serial")
        stats = result.to_stats()
        assert stats["engine_used"] == {"compiled": 3}
        assert stats["compiled_hits"] >= 2  # first point may compile
        assert len(result.select(engine="compiled")) == 3
        assert len(result.select(engine="interp")) == 0
        # Every tier runs every spec, so there is no fallback to count:
        # the stats hold exactly the documented keys.
        assert set(stats) == {
            "specs", "simulated", "cache_hits", "wall_time", "executor",
            "trace_captures", "trace_hits", "workers", "engine_used",
            "compiled_hits", "sink_batches",
        }


# ---------------------------------------------------------------------------
# Differential property test: random builder programs, interp vs compiled.
# ---------------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_int_ops = st.sampled_from(["add", "sub", "mul", "and_", "or_", "xor",
                            "slt", "imin", "imax"])
_float_ops = st.sampled_from(["fadd", "fsub", "fmul", "fmin", "fmax"])
# Transcendentals are exercised by the per-workload differential tests;
# here they would need domain guards (exp overflows, sin(inf) raises).
_unary_ops = st.sampled_from(["fabs_", "fneg"])
_cmp_ops = st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"])


@st.composite
def random_program(draw):
    builder = ProgramBuilder("generated")
    for index in range(1, 5):
        builder.li(R(index), draw(st.integers(-100, 100)))
        builder.fli(F(index), draw(st.floats(-10, 10, allow_nan=False)))
    for _ in range(draw(st.integers(1, 10))):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            getattr(builder, draw(_int_ops))(
                R(draw(st.integers(1, 6))),
                R(draw(st.integers(1, 4))),
                draw(st.one_of(
                    st.integers(1, 31),
                    st.builds(R, st.integers(1, 4)),
                )),
            )
        elif choice == 1:
            getattr(builder, draw(_float_ops))(
                F(draw(st.integers(1, 6))),
                F(draw(st.integers(1, 4))),
                F(draw(st.integers(1, 4))),
            )
        else:
            getattr(builder, draw(_unary_ops))(
                F(draw(st.integers(1, 6))),
                F(draw(st.integers(1, 4))),
            )
    iterations = draw(st.integers(1, 8))
    builder.li(R(10), 0)
    builder.li(R(11), 0)
    builder.label("loop")
    builder.rand(F(10))
    if draw(st.booleans()):
        builder.randn(F(11))
        builder.fadd(F(10), F(10), F(11))
    builder.prob_cmp(
        draw(_cmp_ops), F(10), draw(st.floats(0.1, 0.9, allow_nan=False))
    )
    builder.prob_jmp(None, "skip")
    builder.add(R(11), R(11), 1)
    builder.label("skip")
    builder.add(R(10), R(10), 1)
    builder.blt(R(10), iterations, "loop")
    for index in range(1, 7):
        builder.out(R(index))
        builder.out(F(index))
    builder.out(R(11))
    builder.halt()
    return builder.build()


class TestCompiledDifferentialProperty:
    @given(random_program(), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_compiled_matches_interp_on_random_programs(self, program, seed):
        ref_state, ref_retired = interp_state(program, seed=seed)
        cand_state, cand_retired = engine_state("compiled", program, seed=seed)
        divergences = [
            f"reg[{index}]: interp={a!r} compiled={b!r}"
            for index, (a, b) in enumerate(
                zip(ref_state.regs, cand_state.regs)
            )
            if a != b
        ]
        if ref_state.output() != cand_state.output():
            divergences.append(
                f"outputs: interp={ref_state.output()!r} "
                f"compiled={cand_state.output()!r}"
            )
        if ref_retired != cand_retired:
            divergences.append(
                f"retired: interp={ref_retired} compiled={cand_retired}"
            )
        assert not divergences, (
            "compiled tier diverged from the interpreter; first "
            f"divergence: {divergences[0]} ({len(divergences)} total)"
        )
