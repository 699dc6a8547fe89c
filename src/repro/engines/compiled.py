"""Tier 1: translate a decoded program into specialized Python.

The interpreter pays per *dynamic* instruction for work that only
depends on the *static* instruction: operand-kind tests, the opcode
dispatch chain, event-field assembly.  This module pays those costs
once, at build time, by generating a Python function specialized to one
program:

* every static instruction becomes straight-line code with its operands
  (`r5`, literal immediates) inlined — no dispatch, no decode tuples;
* registers live in Python locals for the whole run and are written
  back to ``MachineState.regs`` once, in a ``finally``;
* control flow becomes a ``while True`` dispatch over basic-block
  labels: fall-through is sequential execution, jumps set the label and
  ``continue``;
* instruction retirement is counted per basic block on the sink-free
  fast path (blocks are straight-line, so the block-granular budget
  check raises the same ``ExecutionLimitExceeded`` — same message, same
  ``retired`` — as the interpreter's per-instruction check);
* with a sink attached, the columnar variant emits events as
  :class:`EventBatch` column extends: runs of never-raising instructions
  cost one constant-tuple ``extend`` per column instead of one append
  per instruction.

The generated function runs against the same ``MachineState``, drand48
stream, PBS engine and trace-event protocol as the interpreter, so its
results are **bit-identical** — the differential property test in
``tests/test_engines.py`` and the golden corpus hold it to that.

Generated code is memoized in-process by program digest and execution
variant, and optionally persisted as ``.py`` entries in a
:class:`CodegenStore` (a :class:`~repro.storage.ShardedStore`) when the
engine is built with ``cache_dir=``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from ..functional.executor import (
    ExecutionError,
    ExecutionLimitExceeded,
    Executor,
    ProbGroup,
    nan_max,
    nan_min,
)
from ..functional.trace import EventBatch, as_batch_sink
from ..isa.opcodes import OP_CLASS, Op
from ..isa.registers import COND_REG_NUM
from ..storage import ShardedStore, canonical_digest
from .base import Engine, register_engine

#: Bumped when generated-code semantics change: old persisted codegen
#: entries stop matching and are regenerated instead of misbehaving.
#: v2: NaN-propagating MIN/MAX/FMIN/FMAX, halted flag, step variant.
#: v3: columnar sink variant (EventBatch extends per basic block).
CODEGEN_VERSION = 3

#: Sink modes for the generated-code variant key.  The values are part
#: of persisted codegen keys, so they never change.
SINK_NONE = 0      # no events: block-granular retire counting
SINK_BATCH = 2     # columnar: EventBatch extends, sink.consume_batch

#: Batch-mode flush threshold: the generated code delivers the pending
#: EventBatch at the next block entry once it holds this many events
#: (and unconditionally at pause/HALT/fault, in the ``finally``).
BATCH_FLUSH = 1024

_CMP_SYMBOL = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}

_COND_BRANCH = {Op.BLT, Op.BGE, Op.BEQ, Op.BNE, Op.BLE, Op.BGT, Op.JT, Op.JF}
#: Ops that end a basic block (control may not fall through untested).
_TERMINATORS = _COND_BRANCH | {Op.JMP, Op.CALL, Op.RET, Op.HALT}

_COMPARE_OPS = {
    Op.SLT: "<", Op.SLE: "<=", Op.SEQ: "==", Op.SNE: "!=",
    Op.FLT: "<", Op.FLE: "<=", Op.FEQ: "==", Op.FNE: "!=",
}
_BINARY_OPS = {
    Op.ADD: "+", Op.FADD: "+", Op.SUB: "-", Op.FSUB: "-",
    Op.MUL: "*", Op.FMUL: "*", Op.FDIV: "/",
    Op.AND: "&", Op.OR: "|", Op.XOR: "^", Op.SHL: "<<", Op.SHR: ">>",
}
_BRANCH_SYMBOL = {
    Op.BLT: "<", Op.BGE: ">=", Op.BEQ: "==",
    Op.BNE: "!=", Op.BLE: "<=", Op.BGT: ">",
}
_TRANSCENDENTAL = {
    Op.FEXP: "_exp", Op.FLOG: "_log", Op.FSIN: "_sin", Op.FCOS: "_cos",
}

#: Ops whose generated computation can never raise — no explicit fault
#: path and no Python-level error (no division, no shift-count or
#: float/int conversion errors, no math-domain functions).  Their trace
#: events are fully static, so the batch variant may execute a run of
#: them straight-line and emit all their event columns as one constant
#: extend per column, preserving the exact fault/event ordering of
#: instruction-by-instruction emission.
_NEVER_RAISES = {
    Op.ADD, Op.FADD, Op.SUB, Op.FSUB, Op.MUL, Op.FMUL,
    Op.AND, Op.OR, Op.XOR,
    Op.SLT, Op.SLE, Op.SEQ, Op.SNE, Op.FLT, Op.FLE, Op.FEQ, Op.FNE,
    Op.MOV, Op.FMOV, Op.RAND, Op.RANDN,
    Op.MIN, Op.MAX, Op.FMIN, Op.FMAX,
    Op.SELECT, Op.FSELECT, Op.CMP, Op.PROB_CMP,
    Op.FABS, Op.FNEG, Op.OUT, Op.NOP,
}


def _is_terminator(d: tuple) -> bool:
    op = d[0]
    if op in _TERMINATORS:
        return True
    return op is Op.PROB_JMP and d[8] is not None  # the jumping PROB_JMP


def _block_leaders(decoded: List[tuple]) -> List[int]:
    """PCs starting a basic block: entry, every jump target, and the
    instruction after every terminator."""
    n = len(decoded)
    leaders: Set[int] = {0}
    for pc, d in enumerate(decoded):
        if not _is_terminator(d):
            continue
        if pc + 1 < n:
            leaders.add(pc + 1)
        target = d[8]
        if isinstance(target, int) and 0 <= target < n:
            leaders.add(target)
    return sorted(leaders)


def program_digest(program, decoded: Optional[List[tuple]] = None) -> str:
    """Content digest of a program's decoded form.

    The name is part of the digest because runtime error messages embed
    it, so two programs differing only by name generate different code.
    """
    if decoded is None:
        decoded = Executor._decode(program.instructions)
    return canonical_digest({
        "version": CODEGEN_VERSION,
        "name": program.name,
        "data_size": program.data_size,
        "instructions": [
            [d[0].name, d[1], bool(d[2]), d[3], bool(d[4]), d[5],
             bool(d[6]), d[7], d[8], d[9], d[10], list(d[11])]
            for d in decoded
        ],
    })


class _Emitter:
    """Accumulates indented source lines."""

    def __init__(self):
        self.lines: List[str] = []

    def put(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _operand(flag, value) -> str:
    return f"r{value}" if flag else repr(value)


def generate_source(
    program,
    decoded: List[tuple],
    *,
    sink: int,
    pbs: bool,
    record_consumed: bool,
    step: bool = False,
) -> str:
    """The specialized ``_compiled_run(self, sink)`` source for one
    program under one execution variant.

    ``sink`` is :data:`SINK_NONE` or :data:`SINK_BATCH`.  The batch
    variant fills an :class:`~repro.functional.trace.EventBatch`: runs
    of never-raising instructions become one constant-tuple ``extend``
    per column, dynamic instructions append their twelve fields
    individually, and the batch is handed to ``sink.consume_batch`` at
    block boundaries (once it holds :data:`BATCH_FLUSH` events) and on
    every exit.

    ``step=True`` generates the resumable single-step variant used by
    the :mod:`repro.diff` lockstep harness: every PC becomes its own
    basic block whose entry checks the executor's ``_step_stop`` budget,
    and the resume label / pending PROB group / retired count live on
    the executor (``self._pc`` / ``self._pending_cmp`` /
    ``self.retired``) so a later call continues exactly where this one
    paused — the same contract as ``Executor.run(budget=...)``.
    """
    sink = int(sink)
    n = len(decoded)
    leaders = list(range(n)) if step else _block_leaders(decoded)

    # Registers the program touches become function locals.
    reg_numbers: Set[int] = set()
    swap_candidates: Set[int] = set()
    uses_cond = False
    for d in decoded:
        op, dest = d[0], d[1]
        if dest != -1:
            reg_numbers.add(dest)
        for flag, value in ((d[2], d[3]), (d[4], d[5]), (d[6], d[7])):
            if flag:
                reg_numbers.add(value)
        if op in (Op.CMP, Op.JT, Op.JF, Op.PROB_CMP, Op.PROB_JMP):
            uses_cond = True
        if op is Op.PROB_CMP:
            swap_candidates.add(d[3])
        elif op is Op.PROB_JMP and dest != -1:
            swap_candidates.add(dest)
    if uses_cond:
        reg_numbers.add(COND_REG_NUM)
    regs_sorted = sorted(reg_numbers)

    # The loop body is generated first (into its own emitter) so that
    # the batch variant can collect the per-run constant column tuples
    # it discovers along the way; those become prologue assignments.
    out = _Emitter()
    put = out.put
    body = _Emitter()
    bput = body.put
    consts: List[str] = []
    shared_lens: Set[int] = set()
    run_counter = [0]

    def limit_check(depth: int) -> None:
        bput(depth, "if retired >= limit:")
        bput(depth + 1,
             'raise _XL(f"{_N}: exceeded {limit} instructions")')

    def fault(depth: int, j: int, message: str) -> None:
        """Raise ExecutionError mid-block; ``j`` completed instructions
        retire first on the block-counted fast path."""
        if not sink and j:
            bput(depth, f"retired += {j}")
        bput(depth, f"raise _XE({message})")

    def emit_event(depth: int, pc: int, d: tuple, *, next_pc,
                   cond: bool = False, taken: str = "False",
                   target="None", addr: str = "None", store: bool = False,
                   prob: str = "0",
                   dest: Optional[int] = None,
                   srcs: Optional[tuple] = None) -> None:
        if not sink:
            return
        dest_code = d[1] if dest is None else dest
        srcs_code = repr(d[11] if srcs is None else srcs)
        bput(depth,
             f"_apc({pc}); _aop(_OPS[{pc}]); _acl(_CLS[{pc}]); "
             f"_ade({dest_code}); _asr({srcs_code})")
        bput(depth,
             f"_aco({cond}); _atk({taken}); _atg({target}); "
             f"_anx({next_pc})")
        bput(depth, f"_aad({addr}); _ast({store}); _apm({prob})")

    def retire(depth: int, count: int) -> None:
        bput(depth, f"retired += {1 if sink else count}")

    def goto(depth: int, j: int, target: int) -> None:
        """Transfer control to a static target (already retired)."""
        if 0 <= target < n:
            bput(depth, f"_L = {target}")
            bput(depth, "continue")
        else:
            bput(depth, f'raise _XE(_N + ": PC {0} out of range")'.format(target))

    def fall_to(depth: int, j: int, target: int) -> None:
        """Fall through to the next block (already retired)."""
        if 0 <= target < n:
            bput(depth, f"_L = {target}")
        else:
            bput(depth, f'raise _XE(_N + ": PC {0} out of range")'.format(target))

    def compute_lines(pc: int, d: tuple) -> List[str]:
        """Computation-only source for one never-raising op."""
        (op, dest, s0r, s0, s1r, s1, s2r, s2,
         target, offset, cmp_op, trace_srcs) = d
        A = _operand(s0r, s0)
        B = _operand(s1r, s1)
        C = _operand(s2r, s2)
        D = f"r{dest}"
        if op in _BINARY_OPS:
            return [f"{D} = {A} {_BINARY_OPS[op]} {B}"]
        if op in _COMPARE_OPS:
            return [f"{D} = 1 if {A} {_COMPARE_OPS[op]} {B} else 0"]
        if op is Op.MOV or op is Op.FMOV:
            return [f"{D} = {A}"]
        if op is Op.RAND:
            return [f"{D} = rng_uniform()"]
        if op is Op.RANDN:
            return [f"{D} = rng_normal()"]
        if op is Op.MIN or op is Op.FMIN:
            return [f"{D} = _min({A}, {B})"]
        if op is Op.MAX or op is Op.FMAX:
            return [f"{D} = _max({A}, {B})"]
        if op is Op.SELECT or op is Op.FSELECT:
            return [f"{D} = {B} if {A} else {C}"]
        if op is Op.CMP:
            return [
                f"r{COND_REG_NUM} = 1 if {A} {_CMP_SYMBOL[cmp_op]} {B} else 0"
            ]
        if op is Op.PROB_CMP:
            return [
                f"_v = r{s0}",
                f"_k = {B}",
                f"_c = _v {_CMP_SYMBOL[cmp_op]} _k",
                f"r{COND_REG_NUM} = 1 if _c else 0",
                f"_pend = ({cmp_op!r}, _c, _k, [{s0}], [_v])",
            ]
        if op is Op.FABS:
            return [f"{D} = _abs({A})"]
        if op is Op.FNEG:
            return [f"{D} = -({A})"]
        if op is Op.OUT:
            return [f"emit_output({offset}, {A})"]
        if op is Op.NOP:
            return []
        raise AssertionError(f"{op.name} is not a run op")

    def emit_run(depth: int, pcs: List[int]) -> None:
        """A maximal run of never-raising ops (batch variant): execute
        straight-line, then emit one constant extend per event column.

        Near the instruction limit the run falls back to per-instruction
        retirement, so the events delivered and the
        ``ExecutionLimitExceeded`` raise land at the exact retired count
        the interpreter produces (the fallback always raises: the
        remaining budget cannot cover the whole run).
        """
        L = len(pcs)
        i = run_counter[0]
        run_counter[0] += 1
        shared_lens.add(L)
        consts.append(f"_R{i}a = ({', '.join(str(p) for p in pcs)},)")
        consts.append(f"_R{i}b = ({', '.join(f'_OPS[{p}]' for p in pcs)},)")
        consts.append(f"_R{i}c = ({', '.join(f'_CLS[{p}]' for p in pcs)},)")
        consts.append(
            f"_R{i}d = ({', '.join(str(decoded[p][1]) for p in pcs)},)")
        consts.append(
            f"_R{i}e = ({', '.join(repr(decoded[p][11]) for p in pcs)},)")
        consts.append(f"_R{i}f = ({', '.join(str(p + 1) for p in pcs)},)")
        bput(depth, f"if retired + {L} > limit:")
        for p in pcs:
            limit_check(depth + 1)
            for line in compute_lines(p, decoded[p]):
                bput(depth + 1, line)
            emit_event(depth + 1, p, decoded[p], next_pc=p + 1)
            bput(depth + 1, "retired += 1")
        limit_check(depth + 1)
        for p in pcs:
            for line in compute_lines(p, decoded[p]):
                bput(depth, line)
        bput(depth, f"_xpc(_R{i}a); _xop(_R{i}b); _xcl(_R{i}c)")
        bput(depth, f"_xde(_R{i}d); _xsr(_R{i}e); _xnx(_R{i}f)")
        bput(depth, f"_xco(_F{L}); _xtk(_F{L}); _xtg(_O{L})")
        bput(depth, f"_xad(_O{L}); _xst(_F{L}); _xpm(_Z{L})")
        bput(depth, f"retired += {L}")

    for block_index, start in enumerate(leaders):
        end = leaders[block_index + 1] if block_index + 1 < len(leaders) else n
        block = list(range(start, end))
        K = len(block)
        bput(3, f"if _L == {start}:")
        depth = 4
        if sink:
            # Deliver the pending columns once they pass the threshold;
            # flush position never changes event order.
            bput(depth, f"if _len(_bpcs) >= {BATCH_FLUSH}:")
            bput(depth + 1, "_consume(_bt)")
            bput(depth + 1, "_bt.clear()")
        if step:
            # Budget barrier: raise the limit at the interpreter's exact
            # retired count, or pause resumably when only the per-call
            # step budget is spent.
            bput(depth, "if retired >= _stop:")
            bput(depth + 1, "if retired >= limit:")
            bput(depth + 2,
                 'raise _XL(f"{_N}: exceeded {limit} instructions")')
            bput(depth + 1, "break")
        elif not sink:
            # Block-granular budget: blocks are straight-line, so this
            # raises iff the interpreter's per-instruction check would
            # somewhere inside the block — with identical retired/message.
            bput(depth, f"if retired + {K} > limit:")
            bput(depth + 1, "retired = limit")
            bput(depth + 1,
                 'raise _XL(f"{_N}: exceeded {limit} instructions")')

        j = 0
        while j < K:
            pc = block[j]
            d = decoded[pc]
            if sink and not step:
                run_len = 0
                while (j + run_len < K
                       and decoded[block[j + run_len]][0] in _NEVER_RAISES):
                    run_len += 1
                if run_len >= 2:
                    run_pcs = block[j:j + run_len]
                    emit_run(depth, run_pcs)
                    if j + run_len == K and not _is_terminator(
                            decoded[run_pcs[-1]]):
                        fall_to(depth, j + run_len - 1, run_pcs[-1] + 1)
                    j += run_len
                    continue
            (op, dest, s0r, s0, s1r, s1, s2r, s2,
             target, offset, cmp_op, trace_srcs) = d
            A = _operand(s0r, s0)
            B = _operand(s1r, s1)
            C = _operand(s2r, s2)
            D = f"r{dest}"
            last = j == K - 1
            if sink and not step:
                limit_check(depth)

            if op in _BINARY_OPS:
                bput(depth, f"{D} = {A} {_BINARY_OPS[op]} {B}")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op in _COMPARE_OPS:
                bput(depth, f"{D} = 1 if {A} {_COMPARE_OPS[op]} {B} else 0")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.MOV or op is Op.FMOV:
                bput(depth, f"{D} = {A}")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.RAND:
                bput(depth, f"{D} = rng_uniform()")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.RANDN:
                bput(depth, f"{D} = rng_normal()")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.MIN or op is Op.FMIN:
                bput(depth, f"{D} = _min({A}, {B})")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.MAX or op is Op.FMAX:
                bput(depth, f"{D} = _max({A}, {B})")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.SELECT or op is Op.FSELECT:
                bput(depth, f"{D} = {B} if {A} else {C}")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.DIV or op is Op.MOD:
                kind = "div" if op is Op.DIV else "mod"
                bput(depth, f"_a = {A}; _b = {B}")
                bput(depth, "if _b == 0:")
                fault(depth + 1, j,
                      f'_N + "@{pc}: integer {kind} by 0"')
                bput(depth, "_q = _abs(_a) // _abs(_b)")
                if op is Op.DIV:
                    bput(depth, f"{D} = -_q if (_a < 0) != (_b < 0) else _q")
                else:
                    bput(depth, "_q = -_q if (_a < 0) != (_b < 0) else _q")
                    bput(depth, f"{D} = _a - _q * _b")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.FSQRT:
                bput(depth, f"{D} = {A} ** 0.5")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op in _TRANSCENDENTAL:
                bput(depth, f"{D} = {'_f' + _TRANSCENDENTAL[op][1:]}({A})")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.FABS:
                bput(depth, f"{D} = _abs({A})")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.FNEG:
                bput(depth, f"{D} = -({A})")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.ITOF:
                bput(depth, f"{D} = _float({A})")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.FTOI:
                bput(depth, f"{D} = _int({A})")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.FFLOOR:
                bput(depth, f"{D} = _float(_int({A} // 1))")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.CMP:
                bput(depth,
                     f"r{COND_REG_NUM} = 1 if {A} {_CMP_SYMBOL[cmp_op]} {B} else 0")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.LOAD or op is Op.FLOAD:
                bput(depth, f"_a = r{s0} + {offset}")
                bput(depth, "if not 0 <= _a < n_memory:")
                fault(depth + 1, j,
                      f'_N + "@{pc}: load from " + str(_a) + " out of range"')
                bput(depth, f"{D} = memory[_a]")
                emit_event(depth, pc, d, next_pc=pc + 1, addr="_a")
                sink and bput(depth, "retired += 1")
            elif op is Op.STORE or op is Op.FSTORE:
                bput(depth, f"_a = r{s1} + {offset}")
                bput(depth, "if not 0 <= _a < n_memory:")
                fault(depth + 1, j,
                      f'_N + "@{pc}: store to " + str(_a) + " out of range"')
                bput(depth, f"memory[_a] = {A}")
                emit_event(depth, pc, d, next_pc=pc + 1, addr="_a",
                           store=True)
                sink and bput(depth, "retired += 1")
            elif op is Op.OUT:
                bput(depth, f"emit_output({offset}, {A})")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.NOP:
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.PROB_CMP:
                bput(depth, f"_v = r{s0}")
                bput(depth, f"_k = {B}")
                bput(depth, f"_c = _v {_CMP_SYMBOL[cmp_op]} _k")
                bput(depth, f"r{COND_REG_NUM} = 1 if _c else 0")
                bput(depth, f"_pend = ({cmp_op!r}, _c, _k, [{s0}], [_v])")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.PROB_JMP and target is None:
                # Intermediate PROB_JMP: registers an extra swap value,
                # does not jump.
                bput(depth, "if _pend is None:")
                fault(depth + 1, j,
                      f'_N + "@{pc}: PROB_JMP without PROB_CMP"')
                if dest != -1:
                    bput(depth, f"_pend[3].append({dest})")
                    bput(depth, f"_pend[4].append(r{dest})")
                emit_event(depth, pc, d, next_pc=pc + 1)
                sink and bput(depth, "retired += 1")
            elif op is Op.PROB_JMP:
                assert last, "jumping PROB_JMP must terminate its block"
                bput(depth, "if _pend is None:")
                fault(depth + 1, j,
                      f'_N + "@{pc}: PROB_JMP without PROB_CMP"')
                bput(depth, "_gr = _pend[3]; _gv = _pend[4]")
                if dest != -1:
                    bput(depth, f"_gr.append({dest})")
                    bput(depth, f"_gv.append(r{dest})")
                if pbs:
                    bput(depth, f"_dec = pbs_transact(_PG({pc}, _pend[0], "
                                "_pend[1], _pend[2], _gr, _gv))")
                    bput(depth, "_t = _dec.taken")
                    bput(depth, 'if _dec.mode == "hit":')
                    if sink:
                        bput(depth + 1, "_pm = 2")
                    bput(depth + 1, "_sv = _dec.swap_values")
                    bput(depth + 1, "for _rn, _ov in _zip(_gr, _sv):")
                    chain = "if"
                    for candidate in sorted(swap_candidates):
                        bput(depth + 2, f"{chain} _rn == {candidate}:")
                        bput(depth + 3, f"r{candidate} = _ov")
                        chain = "elif"
                    bput(depth + 1, f"r{COND_REG_NUM} = 1 if _t else 0")
                    if record_consumed:
                        bput(depth + 1, "consumed_values.append(_sv[0])")
                    bput(depth, "else:")
                    if sink:
                        bput(depth + 1, "_pm = 1")
                    if record_consumed:
                        bput(depth + 1, "consumed_values.append(_gv[0])")
                    elif not sink:
                        bput(depth + 1, "pass")
                else:
                    bput(depth, "_t = _pend[1]")
                    if sink:
                        bput(depth, "_pm = 1")
                    if record_consumed:
                        bput(depth, "consumed_values.append(_gv[0])")
                emit_event(
                    depth, pc, d,
                    cond=True, taken="_t", target=target,
                    next_pc=f"{target} if _t else {pc + 1}", prob="_pm",
                )
                retire(depth, K)
                bput(depth, "_pend = None")
                bput(depth, "if _t:")
                goto(depth + 1, j, target)
                fall_to(depth, j, pc + 1)
            elif op in _BRANCH_SYMBOL or op is Op.JT or op is Op.JF:
                assert last, "branch must terminate its block"
                if op is Op.JT:
                    bput(depth, f"_t = _bool(r{COND_REG_NUM})")
                elif op is Op.JF:
                    bput(depth, f"_t = not r{COND_REG_NUM}")
                else:
                    bput(depth, f"_t = {A} {_BRANCH_SYMBOL[op]} {B}")
                if pbs:
                    bput(depth, f"pbs_observe({pc}, _t, {target})")
                emit_event(
                    depth, pc, d,
                    cond=True, taken="_t", target=target,
                    next_pc=f"{target} if _t else {pc + 1}",
                )
                retire(depth, K)
                bput(depth, "if _t:")
                goto(depth + 1, j, target)
                fall_to(depth, j, pc + 1)
            elif op is Op.JMP:
                assert last
                if pbs:
                    bput(depth, f"pbs_observe({pc}, True, {target})")
                emit_event(depth, pc, d, target=target, next_pc=target)
                retire(depth, K)
                goto(depth, j, target)
            elif op is Op.CALL:
                assert last
                bput(depth, f"call_stack.append({pc + 1})")
                if pbs:
                    bput(depth, f"pbs_observe_call({pc})")
                emit_event(depth, pc, d, target=target, next_pc=target)
                retire(depth, K)
                goto(depth, j, target)
            elif op is Op.RET:
                assert last
                bput(depth, "if not call_stack:")
                fault(depth + 1, j, f'_N + "@{pc}: RET on empty stack"')
                bput(depth, "_L = call_stack.pop()")
                if pbs:
                    bput(depth, f"pbs_observe_return({pc})")
                emit_event(depth, pc, d, target="_L", next_pc="_L")
                retire(depth, K)
                bput(depth, f"if 0 <= _L < {n}:")
                bput(depth + 1, "continue")
                bput(depth, 'raise _XE(f"{_N}: PC {_L} out of range")')
            elif op is Op.HALT:
                assert last
                retire(depth, K)
                bput(depth, "self._halted = True")
                # HALT retires before its event — the interpreter's one
                # ordering exception.
                emit_event(depth, pc, d, next_pc=pc + 1, dest=-1, srcs=())
                bput(depth, "break")
            else:  # pragma: no cover - all opcodes handled above
                raise ExecutionError(
                    f"{program.name}@{pc}: codegen cannot handle {op.name}"
                )

            if last and not _is_terminator(d):
                # Fall through into the next leader (a jump target) —
                # or off the end of the program.
                if not sink:
                    bput(depth, f"retired += {K}")
                fall_to(depth, j, pc + 1)
            j += 1

    # Shared all-constant columns, one set per distinct run length.
    for L in sorted(shared_lens):
        consts.append(f"_F{L} = (False,) * {L}")
        consts.append(f"_O{L} = (None,) * {L}")
        consts.append(f"_Z{L} = (0,) * {L}")

    put(0, "def _compiled_run(self, sink):")
    put(1, "state = self.state")
    put(1, "regs = state.regs")
    put(1, "memory = state.memory")
    put(1, "n_memory = len(memory)")
    put(1, "call_stack = state.call_stack")
    put(1, "emit_output = state.emit_output")
    put(1, "rng = self.rng")
    put(1, "rng_uniform = rng.uniform")
    put(1, "rng_normal = rng.normal")
    put(1, "limit = self.max_instructions")
    put(1, "consumed_values = self.consumed_values")
    put(1, "_abs = abs; _min = _nan_min; _max = _nan_max")
    put(1, "_float = float; _int = int; _bool = bool; _zip = zip")
    put(1, "_fexp = _exp; _flog = _log; _fsin = _sin; _fcos = _cos")
    if pbs:
        put(1, "pbs = self.pbs")
        put(1, "pbs_observe = pbs.observe_branch")
        put(1, "pbs_observe_call = pbs.observe_call")
        put(1, "pbs_observe_return = pbs.observe_return")
        put(1, "pbs_transact = pbs.transact")
    if sink:
        put(1, "_bt = _B()")
        put(1, "_bpcs = _bt.pcs")
        put(1, "_apc = _bpcs.append; _xpc = _bpcs.extend")
        put(1, "_aop = _bt.ops.append; _xop = _bt.ops.extend")
        put(1, "_acl = _bt.classes.append; _xcl = _bt.classes.extend")
        put(1, "_ade = _bt.dests.append; _xde = _bt.dests.extend")
        put(1, "_asr = _bt.srcs.append; _xsr = _bt.srcs.extend")
        put(1, "_aco = _bt.conds.append; _xco = _bt.conds.extend")
        put(1, "_atk = _bt.takens.append; _xtk = _bt.takens.extend")
        put(1, "_atg = _bt.targets.append; _xtg = _bt.targets.extend")
        put(1, "_anx = _bt.next_pcs.append; _xnx = _bt.next_pcs.extend")
        put(1, "_aad = _bt.addrs.append; _xad = _bt.addrs.extend")
        put(1, "_ast = _bt.stores.append; _xst = _bt.stores.extend")
        put(1, "_apm = _bt.prob_modes.append; _xpm = _bt.prob_modes.extend")
        put(1, "_consume = sink.consume_batch")
        put(1, "_len = len")
    for number in regs_sorted:
        put(1, f"r{number} = regs[{number}]")
    for line in consts:
        put(1, line)
    if step:
        put(1, "_pend = self._pending_cmp")
        put(1, "_L = self._pc")
        put(1, "retired = self.retired")
        put(1, "_stop = self._step_stop")
    else:
        put(1, "_pend = None")
        put(1, "_L = 0")
        put(1, "retired = 0")
    put(1, "try:")
    put(2, "while True:")
    out.lines.extend(body.lines)
    put(1, "finally:")
    for number in regs_sorted:
        put(2, f"regs[{number}] = r{number}")
    put(2, "self.retired = retired")
    if step:
        put(2, "self._pc = _L")
        put(2, "self._pending_cmp = _pend")
    if sink:
        # Deliver the buffered tail on every exit — pause, HALT, limit
        # or fault — so the sink has observed every retired instruction
        # by the time control returns.
        put(2, "if _bpcs:")
        put(3, "_consume(_bt)")
        put(3, "_bt.clear()")
    put(1, "return state")
    return out.source()


class CodegenStore(ShardedStore):
    """Persistent cache of generated ``.py`` sources, sharded by the
    (program digest, variant) key digest."""

    suffix = ".py"


#: (program digest, variant) -> bound function — shared process-wide so
#: every engine instance (and every Session in a sweep worker) reuses
#: one compilation per program.  The variant leads with the sink mode
#: (:data:`SINK_NONE` / :data:`SINK_BATCH`).
_MEMO: Dict[Tuple[str, Tuple[int, bool, bool, bool]], object] = {}


def _bind(source: str, program, decoded: List[tuple]):
    """Compile generated source and bind its support globals."""
    namespace = {
        "_XE": ExecutionError,
        "_XL": ExecutionLimitExceeded,
        "_B": EventBatch,
        "_PG": ProbGroup,
        "_N": program.name,
        "_OPS": tuple(d[0] for d in decoded),
        "_CLS": tuple(OP_CLASS[d[0]] for d in decoded),
        "_exp": math.exp,
        "_log": math.log,
        "_sin": math.sin,
        "_cos": math.cos,
        "_nan_min": nan_min,
        "_nan_max": nan_max,
    }
    exec(compile(source, f"<compiled {program.name}>", "exec"), namespace)
    return namespace["_compiled_run"]


def compiled_function(
    program,
    *,
    sink: int,
    pbs: bool,
    record_consumed: bool,
    step: bool = False,
    store: Optional[CodegenStore] = None,
):
    """The (memoized) compiled function for one program + variant.

    ``sink`` is a sink mode (:data:`SINK_NONE` or :data:`SINK_BATCH`).
    Returns ``(function, cache_hit)`` — ``cache_hit`` is
    True when no fresh code generation happened (in-process memo or a
    warm store).
    """
    decoded = Executor._decode(program.instructions)
    digest = program_digest(program, decoded)
    variant = (int(sink), bool(pbs), bool(record_consumed), bool(step))
    key = (digest, variant)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached, True

    source = None
    hit = False
    store_digest = None
    if store is not None:
        store_digest = canonical_digest(
            {"program": digest, "variant": list(variant)}
        )
        path = store.path(store_digest)
        if path.exists():
            source = path.read_text()
            hit = True
    if source is None:
        source = generate_source(
            program, decoded,
            sink=variant[0], pbs=variant[1], record_consumed=variant[2],
            step=variant[3],
        )
        if store is not None:
            store.write_entry(store_digest, source, meta={
                "program": program.name,
                "variant": list(variant),
                "codegen_version": CODEGEN_VERSION,
            })
    function = _bind(source, program, decoded)
    _MEMO[key] = function
    return function, hit


class _ClearOnRaise:
    """Empties the pending batch when the sink raises, so the generated
    code's tail flush never re-delivers rows the sink already saw."""

    __slots__ = ("_consume",)

    def __init__(self, sink):
        self._consume = sink.consume_batch

    def consume_batch(self, batch) -> None:
        try:
            self._consume(batch)
        except BaseException:
            batch.clear()
            raise


class CompiledExecutor(Executor):
    """Drop-in :class:`~repro.functional.Executor` that runs generated
    code instead of the interpreter loop."""

    def __init__(self, program, engine: Optional["CompiledEngine"] = None,
                 **kwargs):
        super().__init__(program, **kwargs)
        self._engine = engine
        self._step_stop = 0

    def run(self, sink=None, budget=None):
        # The execution variant (events? PBS? consumed-value
        # recording?) is only known here, so compilation is lazy per
        # run.  A budget — or any earlier partial progress —
        # routes to the resumable step variant; a fresh unbounded run
        # keeps the fast block-dispatch code.
        if self._halted:
            return self.state
        step = budget is not None or self._pc != 0 or self.retired != 0
        function, cache_hit = compiled_function(
            self.program,
            sink=SINK_NONE if sink is None else SINK_BATCH,
            pbs=self.pbs is not None,
            record_consumed=self.record_consumed,
            step=step,
            store=self._engine.store if self._engine is not None else None,
        )
        if self._engine is not None:
            self._engine.last_cache_hit = cache_hit
        if step:
            limit = self.max_instructions
            self._step_stop = (
                limit if budget is None else min(limit, self.retired + budget)
            )
        if sink is not None:
            sink = _ClearOnRaise(as_batch_sink(sink))
        return function(self, sink)


@register_engine("compiled")
class CompiledEngine(Engine):
    """Tier 1: specialized generated Python, cached by program digest.

    Supports every workload and attachment (the generated code speaks
    the full sink/PBS/consumed-values protocol).
    ``cache_dir=`` adds a persistent :class:`CodegenStore` under the
    in-process memo, so cold processes skip code generation for
    already-seen programs.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self.store = CodegenStore(cache_dir) if cache_dir else None
        self.last_cache_hit = False

    def executor(self, program, *, seed=0, pbs=None, record_consumed=False):
        return CompiledExecutor(
            program, engine=self,
            seed=seed, pbs=pbs, record_consumed=record_consumed,
        )
