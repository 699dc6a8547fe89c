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
* instruction retirement is counted per basic block, and the budget is
  checked only where a loop can close (see :func:`_budget_checks`):
  code that could cross it before the next check is not entered.  The
  generated code stops there, and :meth:`CompiledExecutor.run` hands
  the exact remainder to the interpreter, which raises
  ``ExecutionLimitExceeded`` (or pauses at a step budget) at its own
  count;
* with a sink attached, the generated code logs one integer *row key*
  per retired instruction — its pc, or for a conditional branch a key
  that also encodes the direction and PBS mode — and, on the side, the
  two fields no key can carry (load/store addresses, ``RET`` targets).
  A stretch of instructions costs one ``_xk(range(first_pc, end_pc))``;
  :func:`_row_writers` turns the keys into :class:`EventBatch` columns
  through a table of prebuilt rows when it delivers a batch.

The generated function runs against the same ``MachineState``, drand48
stream, PBS engine and trace-event protocol as the interpreter, so its
results are **bit-identical** — the differential tests in
``tests/test_engines.py`` and the golden corpus hold it to that,
including the state a run leaves behind when it faults or exceeds its
budget.

Generated code is memoized in-process by program digest and execution
variant.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import compress, count
from operator import itemgetter as pick
from typing import Dict, List, Optional, Set, Tuple

from ..functional.executor import ExecutionError, Executor, nan_max, nan_min
from ..functional.trace import EventBatch, as_batch_sink
from ..isa.opcodes import OP_CLASS, Op
from ..isa.registers import COND_REG_NUM
from ..storage import canonical_digest
from .base import Engine, register_engine

#: Part of every program digest; bumped when generated-code semantics
#: change.
#: v2: NaN-propagating MIN/MAX/FMIN/FMAX, halted flag, step variant.
#: v3: columnar sink variant (EventBatch extends per basic block).
#: v4: budget checks at loop headers with a hand-off to the
#: interpreter, event rows from row keys.
#: v5: PBS context-table calls only at backward transfers, calls and
#: returns (the context table ignores every forward transfer).
#: v6: ``PBSEngine.transact(pc, cond, const, values)`` returns the hit's
#: ``(taken, values)`` record or ``None``; the pending group drops its
#: comparison operator.
CODEGEN_VERSION = 6

#: Batch-mode flush threshold: the generated code delivers the pending
#: rows at the first control transfer after this many are logged (and
#: unconditionally at pause/HALT/fault, in the ``finally``).
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
    Op.FEXP: "_fexp", Op.FLOG: "_flog", Op.FSIN: "_fsin", Op.FCOS: "_fcos",
}
_UNARY = {Op.FABS: "_abs({})", Op.FNEG: "-({})", Op.FSQRT: "{} ** 0.5",
          Op.ITOF: "_float({})", Op.FTOI: "_int({})",
          Op.FFLOOR: "_float(_int({} // 1))"}

#: Ops whose generated Python can raise without an explicit fault test:
#: division, shift-count, math-domain and float/int conversion errors,
#: or a non-integer memory address.  ``retired`` and the event rows are
#: brought up to date before each one, so such a raise leaves exactly
#: the interpreter's state.  Every other op either never raises or
#: raises only through an explicit fault branch, which catches up first.
_RAISES_IN_PYTHON = {
    Op.DIV, Op.MOD, Op.FDIV, Op.SHL, Op.SHR, Op.FSQRT,
    Op.FEXP, Op.FLOG, Op.FSIN, Op.FCOS, Op.ITOF, Op.FTOI, Op.FFLOOR,
    Op.LOAD, Op.FLOAD, Op.STORE, Op.FSTORE,
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


def _budget_checks(decoded: List[tuple], leaders: List[int],
                   ends: List[int]) -> Dict[int, int]:
    """The blocks that check the instruction budget, each with the most
    instructions that can retire from its entry before control reaches
    the next such block (or leaves the program).

    The checking blocks are the entry, every target of a backward jump
    and every return site.  Every cycle of the control-flow graph
    passes through one of them: a cycle needs a backward edge, and only
    static jumps and ``RET`` (whose targets are return sites) can go
    backward.  So the other blocks, reached only by forward edges from
    the last check, form a DAG, and its longest paths bound how far
    execution can run unchecked.
    """
    checks = {0}
    for pc, d in enumerate(decoded):
        if d[0] is Op.CALL:
            checks.add(pc + 1)
        elif _is_terminator(d) and isinstance(d[8], int) and d[8] <= pc:
            checks.add(d[8])
    reach: Dict[int, int] = {}
    for start, end in reversed(list(zip(leaders, ends))):
        last = decoded[end - 1]
        op, target = last[0], last[8]
        if op is Op.RET or op is Op.HALT:
            successors = []
        elif op is Op.JMP or op is Op.CALL:
            successors = [target]
        elif _is_terminator(last):
            successors = [target, end]
        else:
            successors = [end]
        reach[start] = end - start + max(
            (reach[s] for s in successors if s in reach and s not in checks),
            default=0)
    return {start: reach[start] for start in leaders if start in checks}


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


def _operand(flag, value) -> str:
    return f"r{value}" if flag else repr(value)


class _Codegen:
    """Accumulates the loop body of one execution variant, block by
    block.

    Within a block two cursors keep a mid-block raise exact:
    ``retired_to`` is the first pc not yet counted in ``retired``, and
    ``rows_to`` the first pc whose row key is not yet logged (batch
    variant only).  Both catch up at block end, before every op in
    :data:`_RAISES_IN_PYTHON`, and in every explicit fault branch.
    Row keys are described at :func:`_row_table`.
    """

    def __init__(self, decoded, *, sink, pbs, record_consumed,
                 swap_candidates):
        self.decoded = decoded
        self.n = len(decoded)
        self.sink = sink
        self.pbs = pbs
        self.record_consumed = record_consumed
        self.swap_candidates = sorted(swap_candidates)
        self.lines: List[str] = []
        self.retired_to = self.rows_to = 0
        self.pending = False  # a PROB_CMP group is open at this point

    def put(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def static_rows(self, pc: int) -> List[str]:
        """Log the pending row keys ``rows_to..pc-1``: all of them are
        static, a load, store or ``RET`` included, whose dynamic field
        was logged on the side when it executed."""
        first = self.rows_to
        if not self.sink or pc <= first:
            return []
        if pc - first == 1:
            return [f"_ak({first})"]
        return [f"_xk(range({first}, {pc}))"]

    def catch_up(self, pc: int) -> List[str]:
        """Count instructions ``..pc-1`` and log their rows."""
        lines = self.static_rows(pc)
        if pc > self.retired_to:
            lines.insert(0, f"retired += {pc - self.retired_to}")
        return lines

    def sync(self, depth: int, pc: int) -> None:
        """:meth:`catch_up` on the straight-line path."""
        for line in self.catch_up(pc):
            self.put(depth, line)
        self.retired_to = max(self.retired_to, pc)
        self.rows_to = max(self.rows_to, pc)

    def row(self, depth: int, pc: int, key: str) -> None:
        """Pending static rows, then the row of the control transfer at
        ``pc`` under the key expression ``key``.  ``_tk`` also delivers
        the batch once it is full: every cycle of the control-flow graph
        passes through a control transfer, so a batch never outgrows
        :data:`BATCH_FLUSH` by more than one straight-line path."""
        for line in self.static_rows(pc):
            self.put(depth, line)
        self.put(depth, f"_tk({key})")
        self.rows_to = pc + 1

    def fault(self, depth: int, pc: int, test: str, error: str) -> None:
        """``if test: raise error``, catching up first (the cursors
        stay: this is a side exit)."""
        lines = self.catch_up(pc)
        if not lines:
            self.put(depth, f"if {test}: raise {error}")
            return
        self.put(depth, f"if {test}:")
        for line in lines + [f"raise {error}"]:
            self.put(depth + 1, line)

    def pending_check(self, depth: int, pc: int) -> None:
        """A PROB_JMP's fault when no PROB_CMP group is open — omitted
        after a PROB_CMP earlier in the same block, which opened one."""
        if not self.pending:
            self.fault(depth, pc, "_pend is None",
                       f'_XE(_N + "@{pc}: PROB_JMP without PROB_CMP")')

    def goto(self, depth: int, target: int) -> None:
        """Transfer control to a static target (already retired)."""
        self.fall(depth, target)
        if 0 <= target < self.n:
            self.put(depth, "continue")

    def fall(self, depth: int, target: int) -> None:
        """Fall through to the next block (already retired)."""
        if 0 <= target < self.n:
            self.put(depth, f"_L = {target}")
        else:
            self.put(depth, f'raise _XE(_N + ": PC {target} out of range")')

    def block(self, start: int, end: int, budget: Optional[int]) -> None:
        """One block; ``budget`` is the most instructions that can
        retire from its entry to the next budget check, or ``None`` when
        it needs no check of its own."""
        put = self.put
        put(3, f"if _L == {start}:")
        if budget is not None:
            # Control that could cross the stop before the next check
            # is left to the interpreter.
            put(4, f"if retired + {budget} > _stop: break")
        self.retired_to = self.rows_to = start
        self.pending = False
        for pc in range(start, end):
            self.instruction(4, pc, self.decoded[pc])
        if not _is_terminator(self.decoded[end - 1]):
            # Fall through into the next leader (a jump target) — or
            # off the end of the program.
            self.sync(4, end)
            self.fall(4, end)

    def instruction(self, depth: int, pc: int, d: tuple) -> None:
        (op, dest, s0r, s0, s1r, s1, s2r, s2,
         target, offset, cmp_op, trace_srcs) = d
        put = self.put
        A = _operand(s0r, s0)
        B = _operand(s1r, s1)
        C = _operand(s2r, s2)
        D = f"r{dest}"
        if op in _RAISES_IN_PYTHON:
            self.sync(depth, pc)

        if op in _BINARY_OPS:
            put(depth, f"{D} = {A} {_BINARY_OPS[op]} {B}")
        elif op in _COMPARE_OPS:
            put(depth, f"{D} = 1 if {A} {_COMPARE_OPS[op]} {B} else 0")
        elif op is Op.MOV or op is Op.FMOV:
            put(depth, f"{D} = {A}")
        elif op is Op.RAND:
            put(depth, f"{D} = rng_uniform()")
        elif op is Op.RANDN:
            put(depth, f"{D} = rng_normal()")
        elif op is Op.MIN or op is Op.FMIN:
            put(depth, f"{D} = _min({A}, {B})")
        elif op is Op.MAX or op is Op.FMAX:
            put(depth, f"{D} = _max({A}, {B})")
        elif op is Op.SELECT or op is Op.FSELECT:
            put(depth, f"{D} = {B} if {A} else {C}")
        elif op in _UNARY:
            put(depth, f"{D} = {_UNARY[op].format(A)}")
        elif op in _TRANSCENDENTAL:
            put(depth, f"{D} = {_TRANSCENDENTAL[op]}({A})")
        elif op is Op.DIV or op is Op.MOD:
            kind = "div" if op is Op.DIV else "mod"
            put(depth, f"_a = {A}; _b = {B}")
            if s1r or not s1:  # a nonzero literal divisor cannot fault
                self.fault(depth, pc, "_b == 0",
                           f'_XE(_N + "@{pc}: integer {kind} by 0")')
            put(depth, "_q = _abs(_a) // _abs(_b)")
            if op is Op.DIV:
                put(depth, f"{D} = -_q if (_a < 0) != (_b < 0) else _q")
            else:
                put(depth, "_q = -_q if (_a < 0) != (_b < 0) else _q")
                put(depth, f"{D} = _a - _q * _b")
        elif op is Op.CMP:
            put(depth,
                f"r{COND_REG_NUM} = 1 if {A} {_CMP_SYMBOL[cmp_op]} {B} else 0")
        elif op in (Op.LOAD, Op.FLOAD, Op.STORE, Op.FSTORE):
            load = op is Op.LOAD or op is Op.FLOAD
            put(depth, f"_a = r{s0 if load else s1} + {offset}")
            self.fault(depth, pc, "not 0 <= _a < n_memory",
                       f"{'_LF' if load else '_SF'}({pc}, _a)")
            put(depth, f"{D} = memory[_a]" if load else f"memory[_a] = {A}")
            if self.sink:
                put(depth, "_aa(_a)")  # its row key is the static pc
        elif op is Op.OUT:
            put(depth, f"emit_output({offset}, {A})")
        elif op is Op.NOP:
            pass
        elif op is Op.PROB_CMP:
            put(depth, f"_v = r{s0}; _k = {B}")
            put(depth, f"_c = _v {_CMP_SYMBOL[cmp_op]} _k")
            put(depth, f"r{COND_REG_NUM} = 1 if _c else 0")
            put(depth, f"_pend = (_c, _k, [{s0}], [_v])")
            self.pending = True
        elif op is Op.PROB_JMP and target is None:
            # Intermediate PROB_JMP: registers an extra swap value,
            # does not jump.
            self.pending_check(depth, pc)
            if dest != -1:
                put(depth, f"_pend[2].append({dest}); _pend[3].append({D})")
        elif op is Op.PROB_JMP:
            self.prob_jmp(depth, pc, dest, target)
        elif op in _BRANCH_SYMBOL or op is Op.JT or op is Op.JF:
            if op is Op.JT:
                put(depth, f"_t = _bool(r{COND_REG_NUM})")
            elif op is Op.JF:
                put(depth, f"_t = not r{COND_REG_NUM}")
            else:
                put(depth, f"_t = {A} {_BRANCH_SYMBOL[op]} {B}")
            # ContextTable.observe_branch ignores forward transfers.
            if self.pbs and target < pc:
                put(depth, f"pbs_observe({pc}, _t, {target})")
            self.branch(depth, pc, target, pc)
        elif op is Op.JMP or op is Op.CALL:
            if op is Op.CALL:
                put(depth, f"call_stack.append({pc + 1})")
                if self.pbs:
                    put(depth, f"pbs_observe_call({pc})")
            elif self.pbs and target < pc:
                put(depth, f"pbs_observe({pc}, True, {target})")
            if self.sink:
                self.row(depth, pc, str(pc))
            self.sync(depth, pc + 1)
            self.goto(depth, target)
        elif op is Op.RET:
            self.fault(depth, pc, "not call_stack",
                       f'_XE(_N + "@{pc}: RET on empty stack")')
            put(depth, "_L = call_stack.pop()")
            if self.pbs:
                put(depth, f"pbs_observe_return({pc})")
            if self.sink:
                put(depth, "_ar(_L)")
                self.row(depth, pc, str(pc))
            self.sync(depth, pc + 1)
            put(depth, f"if 0 <= _L < {self.n}:")
            put(depth + 1, "continue")
            put(depth, 'raise _XE(f"{_N}: PC {_L} out of range")')
        elif op is Op.HALT:
            self.sync(depth, pc + 1)
            put(depth, "self._halted = True")
            put(depth, f"_L = {pc}")
            put(depth, "break")
        else:  # pragma: no cover - all opcodes handled above
            raise ExecutionError(f"@{pc}: codegen cannot handle {op.name}")

    def branch(self, depth: int, pc: int, target: int, key: int) -> None:
        """The row, retirement and transfer of a conditional branch
        whose direction is in ``_t``; ``key`` is its not-taken row key
        (a literal, or ``_pk`` for a PBS-handled PROB_JMP)."""
        if self.sink:
            taken = key + self.n if isinstance(key, int) else f"{key} + {self.n}"
            self.row(depth, pc, f"{taken} if _t else {key}")
        self.sync(depth, pc + 1)
        self.put(depth, "if _t:")
        self.goto(depth + 1, target)
        self.fall(depth, pc + 1)

    def prob_jmp(self, depth: int, pc: int, dest: int, target: int) -> None:
        """The jumping PROB_JMP: hand the group to the PBS engine."""
        put = self.put
        self.pending_check(depth, pc)
        put(depth, "_gr = _pend[2]; _gv = _pend[3]")
        if dest != -1:
            put(depth, f"_gr.append({dest}); _gv.append(r{dest})")
        if self.pbs:
            put(depth, f"_rec = pbs_transact({pc}, _pend[0], _pend[1], _gv)")
            put(depth, "if _rec is not None:")
            if self.sink:
                put(depth + 1, f"_pk = {pc + 2 * self.n}")
            put(depth + 1, "_t, _sv = _rec")
            put(depth + 1, "for _rn, _ov in _zip(_gr, _sv):")
            chain = "if"
            for candidate in self.swap_candidates:
                put(depth + 2, f"{chain} _rn == {candidate}:")
                put(depth + 3, f"r{candidate} = _ov")
                chain = "elif"
            put(depth + 1, f"r{COND_REG_NUM} = 1 if _t else 0")
            if self.record_consumed:
                put(depth + 1, "consumed_values.append(_sv[0])")
            put(depth, "else:")
            put(depth + 1, "_t = _pend[0]")
            if self.sink:
                put(depth + 1, f"_pk = {pc}")
            if self.record_consumed:
                put(depth + 1, "consumed_values.append(_gv[0])")
            key = "_pk"
        else:
            put(depth, "_t = _pend[0]")
            if self.record_consumed:
                put(depth, "consumed_values.append(_gv[0])")
            key = pc
        put(depth, "_pend = None")
        self.branch(depth, pc, target, key)


def generate_source(
    program,
    decoded: List[tuple],
    *,
    sink: bool,
    pbs: bool,
    record_consumed: bool,
    step: bool = False,
) -> str:
    """The specialized ``_compiled_run(self, sink)`` source for one
    program under one execution variant.

    The function resumes from the executor's ``_pc`` / ``retired`` /
    ``_pending_cmp`` and writes them back on every exit.  Code that
    could take ``retired`` past the executor's ``_step_stop`` before
    the next budget check is not entered: the function returns there
    (see :meth:`CompiledExecutor.run` for the hand-off).

    ``sink`` says whether events are emitted; the generated function's
    ``sink`` argument is then the sink's ``consume_batch``.  The batch
    variant logs row keys through :func:`_row_writers`, which hands
    that method an :class:`~repro.functional.trace.EventBatch` at the
    first control transfer after :data:`BATCH_FLUSH` rows and on every
    exit.

    ``step=True`` generates the resumable single-step variant used by
    the :mod:`repro.diff` lockstep harness and budgeted runs: every PC
    becomes its own basic block, so execution can stop, and later
    resume, at any instruction.
    """
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

    gen = _Codegen(decoded, sink=sink, pbs=pbs,
                   record_consumed=record_consumed,
                   swap_candidates=swap_candidates)
    put = gen.put
    put(0, "def _compiled_run(self, sink):")
    put(1, "state = self.state")
    put(1, "regs = state.regs")
    put(1, "memory = state.memory")
    put(1, "n_memory = len(memory)")
    put(1, "call_stack = state.call_stack")
    put(1, "emit_output = state.emit_output")
    put(1, "rng_uniform = self.rng.uniform")
    put(1, "rng_normal = self.rng.normal")
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
    for number in regs_sorted:
        put(1, f"r{number} = regs[{number}]")
    put(1, "_L = self._pc")
    put(1, "_pend = self._pending_cmp")
    put(1, "retired = self.retired")
    put(1, "_stop = self._step_stop")
    if sink:
        put(1, "_xk, _ak, _tk, _aa, _ar, _flush = _W(sink)")
    put(1, "try:")
    put(2, "while True:")
    ends = leaders[1:] + [n]
    budgets = (dict.fromkeys(leaders, 1) if step
               else _budget_checks(decoded, leaders, ends))
    for start, end in zip(leaders, ends):
        gen.block(start, end, budgets.get(start))
    put(1, "finally:")
    for number in regs_sorted:
        put(2, f"regs[{number}] = r{number}")
    put(2, "self.retired = retired")
    put(2, "self._pc = _L")
    put(2, "self._pending_cmp = _pend")
    if sink:
        # Deliver the buffered tail on every exit — pause, HALT, limit
        # or fault — so the sink has observed every retired instruction
        # by the time control returns.
        put(2, "_flush()")
    put(1, "return state")
    return "\n".join(gen.lines) + "\n"


def _memory_fault(name: str, where: str, pc: int, addr) -> ExecutionError:
    """The interpreter's error for a load or store at ``pc`` whose
    address ``addr`` is out of range."""
    return ExecutionError(f"{name}@{pc}: {where} {addr} out of range")


def _row_table(decoded: List[tuple]) -> tuple:
    """The prebuilt event rows of the batch variant, indexed by row key.

    The key of a retired instruction is ``pc + n * v`` for a program of
    ``n`` instructions.  ``v`` is 0 except for a conditional branch,
    where bit 0 is the direction and, for a PBS-handled PROB_JMP, bit 1
    a PBS hit.  So every field of a row follows from its key but two,
    which the generated code logs on the side: a load or store's
    address and a ``RET``'s target (its next pc too).  Each entry is the
    row's twelve :class:`EventBatch` fields, then whether it takes an
    address and whether it takes a return target.  ``HALT``'s row
    carries no destination or sources, as in the interpreter.
    """
    table: List[tuple] = []
    for v in range(4):
        taken, hit = bool(v & 1), bool(v & 2)
        for pc, d in enumerate(decoded):
            op, target = d[0], d[8]
            cond = op in _COND_BRANCH or (op is Op.PROB_JMP and target is not None)
            if v and not cond:
                table.append(table[pc])  # a key no row takes
                continue
            if cond:
                next_pc = target if taken else pc + 1
            elif op is Op.JMP or op is Op.CALL:
                next_pc = target
            else:
                next_pc = pc + 1
            halt = op is Op.HALT
            table.append((
                pc, op, OP_CLASS[op],
                -1 if halt else d[1], () if halt else d[11],
                cond, cond and taken, target, next_pc, None,
                op is Op.STORE or op is Op.FSTORE,
                (2 if hit else 1) if cond and op is Op.PROB_JMP else 0,
                op in (Op.LOAD, Op.FLOAD, Op.STORE, Op.FSTORE),
                op is Op.RET,
            ))
    return tuple(table)


def _row_writers(table: tuple, consume):
    """The batch variant's row log, for one call of the generated
    function.

    Returns ``(xk, ak, tk, aa, ar, flush)``: ``xk``/``ak`` extend/append
    the row-key log, ``tk`` appends a control transfer's key and
    flushes once :data:`BATCH_FLUSH` rows are logged, ``aa`` logs a load
    or store address and ``ar`` a ``RET`` target, in row order.
    ``flush()`` delivers the logged rows to ``consume`` as one
    :class:`EventBatch` built from ``table`` (see :func:`_row_table`).
    """
    keys: List[int] = []
    addrs: List[int] = []
    returns: List[int] = []
    log = keys.append

    def flush():
        if keys:
            # Cleared even if the sink raises, so the generated code's
            # tail flush never re-delivers these rows.
            try:
                rows = pick(*keys)(table) if len(keys) > 1 else [table[keys[0]]]
                batch = EventBatch()
                columns = zip(*rows)  # one column alive at a time
                for name, column in zip(EventBatch.__slots__, columns):
                    setattr(batch, name, list(column))
                takes_addr, takes_return = columns
                if addrs:
                    column = batch.addrs
                    for i, addr in zip(compress(count(), takes_addr), addrs):
                        column[i] = addr
                if returns:
                    for i, target in zip(compress(count(), takes_return),
                                         returns):
                        batch.targets[i] = batch.next_pcs[i] = target
                consume(batch)
            finally:
                keys.clear()
                addrs.clear()
                returns.clear()

    def transfer(key, size=keys.__len__):
        log(key)
        if size() >= BATCH_FLUSH:
            flush()

    return keys.extend, log, transfer, addrs.append, returns.append, flush


#: (program digest, variant) -> bound function — shared process-wide so
#: every engine instance (and every Session in a sweep worker) reuses
#: one compilation per program.  The variant is ``(sink, pbs,
#: record_consumed, step)``.
_MEMO: Dict[Tuple[str, Tuple[bool, bool, bool, bool]], object] = {}

#: program digest -> :func:`_row_table`, shared by its batch variants.
_TABLES: Dict[str, tuple] = {}


def _bind(source: str, program, table: Optional[tuple]):
    """Compile generated source and bind its support globals; a batch
    variant gets the program's :func:`_row_table`."""
    namespace = {
        "_XE": ExecutionError,
        "_LF": partial(_memory_fault, program.name, "load from"),
        "_SF": partial(_memory_fault, program.name, "store to"),
        "_N": program.name,
        "_exp": math.exp,
        "_log": math.log,
        "_sin": math.sin,
        "_cos": math.cos,
        "_nan_min": nan_min,
        "_nan_max": nan_max,
    }
    if table is not None:
        namespace["_W"] = partial(_row_writers, table)
    exec(compile(source, f"<compiled {program.name}>", "exec"), namespace)
    return namespace["_compiled_run"]


def compiled_function(
    program,
    *,
    sink: bool,
    pbs: bool,
    record_consumed: bool,
    step: bool = False,
):
    """The (memoized) compiled function for one program + variant.

    ``sink`` says whether the run emits events.  Returns ``(function,
    cache_hit)`` — ``cache_hit`` is True when the in-process memo
    already held the function.
    """
    decoded = Executor._decode(program.instructions)
    digest = program_digest(program, decoded)
    variant = (bool(sink), bool(pbs), bool(record_consumed), bool(step))
    key = (digest, variant)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached, True

    source = generate_source(
        program, decoded,
        sink=variant[0], pbs=variant[1], record_consumed=variant[2],
        step=variant[3],
    )
    table = None
    if variant[0]:
        table = _TABLES.get(digest)
        if table is None:
            table = _TABLES[digest] = _row_table(decoded)
    function = _bind(source, program, table)
    _MEMO[key] = function
    return function, False


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
        # run.  A budget — or any earlier partial progress — routes to
        # the resumable step variant; a fresh unbounded run keeps the
        # fast block-dispatch code.
        consume = None if sink is None else as_batch_sink(sink)
        if self._halted:
            return self.state
        step = budget is not None or self._pc != 0 or self.retired != 0
        function, cache_hit = compiled_function(
            self.program,
            sink=consume is not None,
            pbs=self.pbs is not None,
            record_consumed=self.record_consumed,
            step=step,
        )
        if self._engine is not None:
            self._engine.last_cache_hit = cache_hit
        limit = self.max_instructions
        stop = limit if budget is None else min(limit, self.retired + budget)
        self._step_stop = stop
        function(self, consume)
        if self._halted or self.retired == stop < limit:
            return self.state
        # The next block could not retire whole within the stop.  The
        # interpreter resumes from the written-back state and finishes
        # the remainder exactly: it raises ExecutionLimitExceeded at its
        # own count, or faults, halts or pauses first.
        return Executor.run(self, sink, stop - self.retired)


@register_engine("compiled")
class CompiledEngine(Engine):
    """Tier 1: specialized generated Python, cached by program digest.

    Supports every workload and attachment (the generated code speaks
    the full sink/PBS/consumed-value protocol).
    """

    def __init__(self):
        self.last_cache_hit = False

    def executor(self, program, *, seed=0, pbs=None, record_consumed=False):
        return CompiledExecutor(
            program, engine=self,
            seed=seed, pbs=pbs, record_consumed=record_consumed,
        )
