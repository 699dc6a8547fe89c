"""The functional simulator: executes programs on the committed path.

The executor interprets a :class:`~repro.isa.program.Program`, optionally
driving a PBS engine for ``PROB_CMP``/``PROB_JMP`` groups, and feeds one
row per retired instruction to a ``sink``, in
:class:`~repro.functional.trace.EventBatch` chunks.  Timing models and MPKI
counters are such sinks; when no sink is given, events are not
materialised (fast path for accuracy and randomness experiments).

PBS functional semantics (paper Section III-B): when a probabilistic branch
group executes and the PBS engine reports a *hit*, the direction recorded at
a previous execution is followed and the probabilistic register values are
replaced with the recorded old ones, while the newly generated values are
handed to the engine for a future instance.  During bootstrap or fallback,
the branch behaves exactly like a regular branch.
"""

from __future__ import annotations

from math import cos as _cos, exp as _exp, log as _log, sin as _sin
from typing import List, Optional

from ..isa.opcodes import OP_CLASS, Op, evaluate_cmp
from ..isa.program import Program
from ..isa.registers import COND_REG_NUM, Reg
from .rng import Drand48
from .state import MachineState
from .trace import EventBatch, ProbMode, as_batch_sink

#: Interpreter flush granularity: a batch is delivered every this-many
#: retired instructions (and at every pause, HALT or fault, so the sink
#: has seen every retired instruction by the time ``run()`` returns).
BATCH_CHUNK = 1024

#: A columnar sink: it declares ``consume_batch(batch)``, which
#: :func:`~repro.functional.trace.as_batch_sink` checks on entry.
Sink = object


class ExecutionLimitExceeded(Exception):
    """The instruction budget ran out (probably an infinite loop)."""


class ExecutionError(Exception):
    """A runtime fault (bad operand, division by zero, stack underflow)."""


def nan_min(a, b):
    """``MIN``/``FMIN`` semantics shared by every execution tier.

    NaN propagates: if either operand is NaN the result is the first NaN
    operand.  On ties (including ``-0.0`` vs ``0.0``) the first operand
    wins, matching Python's ``min`` for the non-NaN case, so results are
    unchanged wherever NaN cannot occur.  The interpreter and the
    compiled tier both call it, so they agree bit for bit on NaN
    operands (see docs/engines.md, "NaN semantics").
    """
    if a != a:
        return a
    if b != b:
        return b
    return a if a <= b else b


def nan_max(a, b):
    """``MAX``/``FMAX`` semantics shared by every execution tier (see
    :func:`nan_min`)."""
    if a != a:
        return a
    if b != b:
        return b
    return a if a >= b else b


class Executor:
    """Interprets a program, producing the committed-path trace."""

    def __init__(
        self,
        program: Program,
        seed: int = 0,
        rng=None,
        pbs=None,
        max_instructions: int = 50_000_000,
        record_consumed: bool = False,
    ):
        self.program = program
        self.rng = rng if rng is not None else Drand48(seed)
        self.pbs = pbs
        self.max_instructions = max_instructions
        self.state = MachineState(data_size=program.data_size)
        self.retired = 0
        self.record_consumed = record_consumed
        #: Probabilistic compare values in the order the program consumed
        #: them (used by the Table III randomness experiment).
        self.consumed_values: List[float] = []
        # Resume state for the step()/checkpoint API: the next PC to
        # execute, the PROB_CMP group being assembled, and whether HALT
        # has retired.  run() persists these on every exit so execution
        # can continue exactly where it paused.
        self._pc = 0
        self._pending_cmp = None
        self._halted = False
        self._decoded = None

    # ------------------------------------------------------------------
    @staticmethod
    def _decode(instructions) -> List[tuple]:
        """Pre-decode operand accessors for the interpreter loop.

        One tuple per static instruction::

            (op, dest, s0r, s0, s1r, s1, s2r, s2,
             target, offset, cmp_op, trace_srcs)

        ``dest`` is the destination register number (``-1`` when absent);
        each source is an (is-register, register-number-or-immediate)
        pair, so the hot loop reads ``regs[s0] if s0r else s0`` instead
        of calling a ``val()`` closure that re-discovers the operand
        kind on every dynamic instance.  ``trace_srcs`` is the event's
        register-source tuple, computed once instead of per event.

        Operands the loop dereferences unconditionally (load/store base
        registers, the PROB_CMP value register) are validated here, once
        per *static* instruction — a malformed program is rejected
        before execution instead of silently indexing the register file
        with an immediate.
        """
        decoded = []
        for pc, inst in enumerate(instructions):
            pairs = []
            for source in inst.srcs[:3]:
                if source.__class__ is Reg:
                    pairs.append((True, source.num))
                else:
                    pairs.append((False, source))
            while len(pairs) < 3:
                pairs.append((False, None))
            op = inst.op
            if (
                (op is Op.LOAD or op is Op.FLOAD or op is Op.PROB_CMP)
                and not pairs[0][0]
            ):
                raise ExecutionError(
                    f"@{pc}: {op.name} needs a register first source, "
                    f"got {inst.srcs[0] if inst.srcs else None!r}"
                )
            if (op is Op.STORE or op is Op.FSTORE) and not pairs[1][0]:
                raise ExecutionError(
                    f"@{pc}: {op.name} needs a register base, "
                    f"got {inst.srcs[1] if len(inst.srcs) > 1 else None!r}"
                )
            decoded.append((
                inst.op,
                inst.dest.num if inst.dest is not None else -1,
                pairs[0][0], pairs[0][1],
                pairs[1][0], pairs[1][1],
                pairs[2][0], pairs[2][1],
                inst.target,
                inst.offset,
                inst.cmp_op,
                tuple(s.num for s in inst.srcs if s.__class__ is Reg),
            ))
        return decoded

    def run(
        self, sink: Optional[Sink] = None, budget: Optional[int] = None
    ) -> MachineState:
        """Execute until HALT; feed event batches to ``sink`` if given.

        ``budget`` bounds how many instructions *this call* may retire;
        execution pauses (without error) once it is spent and a later
        ``run()``/``step()`` resumes from the exact paused state.  The
        overall ``max_instructions`` limit still applies and still
        raises :class:`ExecutionLimitExceeded` at the same retired
        count whether execution was stepped or run straight through.
        """
        program = self.program
        state = self.state
        regs = state.regs
        memory = state.memory
        n_memory = len(memory)
        call_stack = state.call_stack
        emit_output = state.emit_output
        rng = self.rng
        rng_uniform = rng.uniform
        rng_normal = rng.normal
        pbs = self.pbs
        emit = sink is not None
        limit = self.max_instructions
        op_class = OP_CLASS
        record_consumed = self.record_consumed
        consumed_values = self.consumed_values
        decoded = self._decoded
        if decoded is None:
            decoded = self._decoded = self._decode(program.instructions)

        if emit:
            consume_batch = as_batch_sink(sink)
            batch = EventBatch()
            b_pc = batch.pcs.append
            b_op = batch.ops.append
            b_cls = batch.classes.append
            b_dest = batch.dests.append
            b_srcs = batch.srcs.append
            b_cond = batch.conds.append
            b_taken = batch.takens.append
            b_target = batch.targets.append
            b_next = batch.next_pcs.append
            b_addr = batch.addrs.append
            b_store = batch.stores.append
            b_prob = batch.prob_modes.append
            batch_fill = 0
            chunk = BATCH_CHUNK

        # Hoisted globals/builtins: every name below is read once here
        # instead of per retired instruction.
        eval_cmp = evaluate_cmp
        _abs, _float, _int, _bool = abs, float, int, bool
        _nmin, _nmax = nan_min, nan_max
        NOT_PROB = ProbMode.NOT_PROB
        PBS_HIT = ProbMode.PBS_HIT
        PREDICTED = ProbMode.PREDICTED
        COND = COND_REG_NUM
        # Opcode members as locals: `op is ADD` costs one LOAD_FAST
        # instead of an enum attribute lookup.
        ADD, FMUL, FADD, FSUB, SUB, MUL = (
            Op.ADD, Op.FMUL, Op.FADD, Op.FSUB, Op.SUB, Op.MUL)
        MOV, FMOV, RAND, RANDN = Op.MOV, Op.FMOV, Op.RAND, Op.RANDN
        BLT, BGE, BEQ, BNE, BLE, BGT = (
            Op.BLT, Op.BGE, Op.BEQ, Op.BNE, Op.BLE, Op.BGT)
        CMP, JT, JF, PROB_CMP, PROB_JMP = (
            Op.CMP, Op.JT, Op.JF, Op.PROB_CMP, Op.PROB_JMP)
        JMP, CALL, RET = Op.JMP, Op.CALL, Op.RET
        LOAD, FLOAD, STORE, FSTORE = Op.LOAD, Op.FLOAD, Op.STORE, Op.FSTORE
        DIV, MOD, AND, OR, XOR, SHL, SHR = (
            Op.DIV, Op.MOD, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR)
        SLT, SLE, SEQ, SNE, MIN, MAX = (
            Op.SLT, Op.SLE, Op.SEQ, Op.SNE, Op.MIN, Op.MAX)
        SELECT, FSELECT, FDIV, FSQRT = (
            Op.SELECT, Op.FSELECT, Op.FDIV, Op.FSQRT)
        FEXP, FLOG, FSIN, FCOS, FABS, FNEG = (
            Op.FEXP, Op.FLOG, Op.FSIN, Op.FCOS, Op.FABS, Op.FNEG)
        FMIN, FMAX, FLT, FLE, FEQ, FNE = (
            Op.FMIN, Op.FMAX, Op.FLT, Op.FLE, Op.FEQ, Op.FNE)
        ITOF, FTOI, FFLOOR, OUT, NOP, HALT = (
            Op.ITOF, Op.FTOI, Op.FFLOOR, Op.OUT, Op.NOP, Op.HALT)

        # Pending probabilistic group being assembled between PROB_CMP and
        # the final PROB_JMP.
        pending_cmp = self._pending_cmp  # (cond, const_value, regs, values)

        if self._halted:
            return state
        pc = self._pc
        retired = self.retired
        stop = limit if budget is None else min(limit, retired + budget)
        n_instructions = len(decoded)
        try:
            while True:
                if retired >= stop:
                    if retired >= limit:
                        raise ExecutionLimitExceeded(
                            f"{program.name}: exceeded {limit} instructions"
                        )
                    break  # budget spent: pause, resumable
                (op, dest, s0r, s0, s1r, s1, s2r, s2,
                 target_f, offset, cmp_op_f, trace_srcs) = decoded[pc]
                next_pc = pc + 1
                taken = False
                target = None
                is_branch = False
                addr = None
                is_store = False
                prob_mode = NOT_PROB

                if op is ADD:
                    regs[dest] = (regs[s0] if s0r else s0) + (regs[s1] if s1r else s1)
                elif op is FMUL:
                    regs[dest] = (regs[s0] if s0r else s0) * (regs[s1] if s1r else s1)
                elif op is FADD:
                    regs[dest] = (regs[s0] if s0r else s0) + (regs[s1] if s1r else s1)
                elif op is FSUB:
                    regs[dest] = (regs[s0] if s0r else s0) - (regs[s1] if s1r else s1)
                elif op is SUB:
                    regs[dest] = (regs[s0] if s0r else s0) - (regs[s1] if s1r else s1)
                elif op is MUL:
                    regs[dest] = (regs[s0] if s0r else s0) * (regs[s1] if s1r else s1)
                elif op is MOV or op is FMOV:
                    regs[dest] = regs[s0] if s0r else s0
                elif op is RAND:
                    regs[dest] = rng_uniform()
                elif op is RANDN:
                    regs[dest] = rng_normal()
                elif op is BLT:
                    is_branch = True
                    target = target_f
                    taken = (regs[s0] if s0r else s0) < (regs[s1] if s1r else s1)
                    if taken:
                        next_pc = target
                elif op is BGE:
                    is_branch = True
                    target = target_f
                    taken = (regs[s0] if s0r else s0) >= (regs[s1] if s1r else s1)
                    if taken:
                        next_pc = target
                elif op is BEQ:
                    is_branch = True
                    target = target_f
                    taken = (regs[s0] if s0r else s0) == (regs[s1] if s1r else s1)
                    if taken:
                        next_pc = target
                elif op is BNE:
                    is_branch = True
                    target = target_f
                    taken = (regs[s0] if s0r else s0) != (regs[s1] if s1r else s1)
                    if taken:
                        next_pc = target
                elif op is BLE:
                    is_branch = True
                    target = target_f
                    taken = (regs[s0] if s0r else s0) <= (regs[s1] if s1r else s1)
                    if taken:
                        next_pc = target
                elif op is BGT:
                    is_branch = True
                    target = target_f
                    taken = (regs[s0] if s0r else s0) > (regs[s1] if s1r else s1)
                    if taken:
                        next_pc = target
                elif op is CMP:
                    regs[COND] = (
                        1 if eval_cmp(
                            cmp_op_f,
                            regs[s0] if s0r else s0,
                            regs[s1] if s1r else s1,
                        ) else 0
                    )
                elif op is JT:
                    is_branch = True
                    target = target_f
                    taken = _bool(regs[COND])
                    if taken:
                        next_pc = target
                elif op is JF:
                    is_branch = True
                    target = target_f
                    taken = not regs[COND]
                    if taken:
                        next_pc = target
                elif op is PROB_CMP:
                    new_value = regs[s0]
                    const_value = regs[s1] if s1r else s1
                    cond = eval_cmp(cmp_op_f, new_value, const_value)
                    regs[COND] = 1 if cond else 0
                    pending_cmp = (cond, const_value, [s0], [new_value])
                elif op is PROB_JMP:
                    if pending_cmp is None:
                        raise ExecutionError(
                            f"{program.name}@{pc}: PROB_JMP without PROB_CMP"
                        )
                    cond, const_value, group_regs, group_values = pending_cmp
                    if dest != -1:
                        group_regs.append(dest)
                        group_values.append(regs[dest])
                    if target_f is None:
                        # Intermediate PROB_JMP: registers an extra swap
                        # value, does not jump (paper: Immediate = 0).
                        pass
                    else:
                        is_branch = True
                        target = target_f
                        record = None if pbs is None else pbs.transact(
                            pc, cond, const_value, group_values
                        )
                        if record is not None:
                            # PBS hit: follow the recorded direction and
                            # swap the recorded values in.
                            taken, swap_values = record
                            prob_mode = PBS_HIT
                            for reg_num, old in zip(group_regs, swap_values):
                                regs[reg_num] = old
                            regs[COND] = 1 if taken else 0
                            if record_consumed:
                                consumed_values.append(swap_values[0])
                        else:
                            taken = cond
                            prob_mode = PREDICTED
                            if record_consumed:
                                consumed_values.append(group_values[0])
                        if taken:
                            next_pc = target
                        pending_cmp = None
                elif op is JMP:
                    target = target_f
                    next_pc = target
                    if pbs is not None:
                        pbs.observe_branch(pc, True, target)
                elif op is CALL:
                    target = target_f
                    call_stack.append(pc + 1)
                    next_pc = target
                    if pbs is not None:
                        pbs.observe_call(pc)
                elif op is RET:
                    if not call_stack:
                        raise ExecutionError(f"{program.name}@{pc}: RET on empty stack")
                    next_pc = call_stack.pop()
                    target = next_pc
                    if pbs is not None:
                        pbs.observe_return(pc)
                elif op is LOAD or op is FLOAD:
                    addr = regs[s0] + offset
                    if not 0 <= addr < n_memory:
                        raise ExecutionError(
                            f"{program.name}@{pc}: load from {addr} out of range"
                        )
                    regs[dest] = memory[addr]
                elif op is STORE or op is FSTORE:
                    addr = regs[s1] + offset
                    if not 0 <= addr < n_memory:
                        raise ExecutionError(
                            f"{program.name}@{pc}: store to {addr} out of range"
                        )
                    memory[addr] = regs[s0] if s0r else s0
                    is_store = True
                elif op is DIV:
                    a, b = (regs[s0] if s0r else s0), (regs[s1] if s1r else s1)
                    if b == 0:
                        raise ExecutionError(f"{program.name}@{pc}: integer div by 0")
                    q = _abs(a) // _abs(b)
                    regs[dest] = -q if (a < 0) != (b < 0) else q
                elif op is MOD:
                    a, b = (regs[s0] if s0r else s0), (regs[s1] if s1r else s1)
                    if b == 0:
                        raise ExecutionError(f"{program.name}@{pc}: integer mod by 0")
                    q = _abs(a) // _abs(b)
                    q = -q if (a < 0) != (b < 0) else q
                    regs[dest] = a - q * b
                elif op is AND:
                    regs[dest] = (regs[s0] if s0r else s0) & (regs[s1] if s1r else s1)
                elif op is OR:
                    regs[dest] = (regs[s0] if s0r else s0) | (regs[s1] if s1r else s1)
                elif op is XOR:
                    regs[dest] = (regs[s0] if s0r else s0) ^ (regs[s1] if s1r else s1)
                elif op is SHL:
                    regs[dest] = (regs[s0] if s0r else s0) << (regs[s1] if s1r else s1)
                elif op is SHR:
                    regs[dest] = (regs[s0] if s0r else s0) >> (regs[s1] if s1r else s1)
                elif op is SLT:
                    regs[dest] = (
                        1 if (regs[s0] if s0r else s0) < (regs[s1] if s1r else s1) else 0
                    )
                elif op is SLE:
                    regs[dest] = (
                        1 if (regs[s0] if s0r else s0) <= (regs[s1] if s1r else s1) else 0
                    )
                elif op is SEQ:
                    regs[dest] = (
                        1 if (regs[s0] if s0r else s0) == (regs[s1] if s1r else s1) else 0
                    )
                elif op is SNE:
                    regs[dest] = (
                        1 if (regs[s0] if s0r else s0) != (regs[s1] if s1r else s1) else 0
                    )
                elif op is MIN:
                    regs[dest] = _nmin(regs[s0] if s0r else s0, regs[s1] if s1r else s1)
                elif op is MAX:
                    regs[dest] = _nmax(regs[s0] if s0r else s0, regs[s1] if s1r else s1)
                elif op is SELECT or op is FSELECT:
                    regs[dest] = (
                        (regs[s1] if s1r else s1)
                        if (regs[s0] if s0r else s0)
                        else (regs[s2] if s2r else s2)
                    )
                elif op is FDIV:
                    regs[dest] = (regs[s0] if s0r else s0) / (regs[s1] if s1r else s1)
                elif op is FSQRT:
                    regs[dest] = (regs[s0] if s0r else s0) ** 0.5
                elif op is FEXP:
                    regs[dest] = _exp(regs[s0] if s0r else s0)
                elif op is FLOG:
                    regs[dest] = _log(regs[s0] if s0r else s0)
                elif op is FSIN:
                    regs[dest] = _sin(regs[s0] if s0r else s0)
                elif op is FCOS:
                    regs[dest] = _cos(regs[s0] if s0r else s0)
                elif op is FABS:
                    regs[dest] = _abs(regs[s0] if s0r else s0)
                elif op is FNEG:
                    regs[dest] = -(regs[s0] if s0r else s0)
                elif op is FMIN:
                    regs[dest] = _nmin(regs[s0] if s0r else s0, regs[s1] if s1r else s1)
                elif op is FMAX:
                    regs[dest] = _nmax(regs[s0] if s0r else s0, regs[s1] if s1r else s1)
                elif op is FLT:
                    regs[dest] = (
                        1 if (regs[s0] if s0r else s0) < (regs[s1] if s1r else s1) else 0
                    )
                elif op is FLE:
                    regs[dest] = (
                        1 if (regs[s0] if s0r else s0) <= (regs[s1] if s1r else s1) else 0
                    )
                elif op is FEQ:
                    regs[dest] = (
                        1 if (regs[s0] if s0r else s0) == (regs[s1] if s1r else s1) else 0
                    )
                elif op is FNE:
                    regs[dest] = (
                        1 if (regs[s0] if s0r else s0) != (regs[s1] if s1r else s1) else 0
                    )
                elif op is ITOF:
                    regs[dest] = _float(regs[s0] if s0r else s0)
                elif op is FTOI:
                    regs[dest] = _int(regs[s0] if s0r else s0)
                elif op is FFLOOR:
                    regs[dest] = _float(_int((regs[s0] if s0r else s0) // 1))
                elif op is OUT:
                    emit_output(offset, regs[s0] if s0r else s0)
                elif op is NOP:
                    pass
                elif op is HALT:
                    retired += 1
                    self._halted = True
                    if emit:
                        b_pc(pc)
                        b_op(op)
                        b_cls(op_class[op])
                        b_dest(-1)
                        b_srcs(())
                        b_cond(False)
                        b_taken(False)
                        b_target(None)
                        b_next(pc + 1)
                        b_addr(None)
                        b_store(False)
                        b_prob(NOT_PROB)
                    break
                else:  # pragma: no cover - all opcodes handled above
                    raise ExecutionError(f"{program.name}@{pc}: unhandled {op.name}")

                if is_branch and pbs is not None and op is not PROB_JMP:
                    pbs.observe_branch(pc, taken, target)

                if emit:
                    b_pc(pc)
                    b_op(op)
                    b_cls(op_class[op])
                    b_dest(dest)
                    b_srcs(trace_srcs)
                    b_cond(is_branch)
                    b_taken(taken)
                    b_target(target)
                    b_next(next_pc)
                    b_addr(addr)
                    b_store(is_store)
                    b_prob(prob_mode)
                    batch_fill += 1
                    if batch_fill >= chunk:
                        batch_fill = 0
                        # Cleared even if the sink raises, so the tail
                        # flush below never re-delivers these rows.
                        try:
                            consume_batch(batch)
                        finally:
                            batch.clear()

                retired += 1
                pc = next_pc
                if not 0 <= pc < n_instructions:
                    raise ExecutionError(f"{program.name}: PC {pc} out of range")
        finally:
            self.retired = retired
            self._pc = pc
            self._pending_cmp = pending_cmp
            # Deliver any buffered tail.  Runs on every exit — budget
            # pause, HALT, limit overrun or fault — so the sink has seen
            # exactly the retired-instruction stream by the time control
            # returns.
            if emit and batch.pcs:
                try:
                    consume_batch(batch)
                finally:
                    batch.clear()

        return state

    # ------------------------------------------------------------------
    # Stepping / checkpoint API (the repro.diff lockstep hooks).
    # ------------------------------------------------------------------
    @property
    def halted(self) -> bool:
        """True once HALT has retired; further run()/step() are no-ops."""
        return self._halted

    @property
    def pc(self) -> int:
        """The next PC to execute (the HALT's PC once halted)."""
        return self._pc

    def step(self, n: int = 1, sink: Optional[Sink] = None) -> int:
        """Retire at most ``n`` instructions; return how many retired.

        Returns ``0`` once the program has halted.  Raises exactly the
        errors ``run()`` would raise, at exactly the same retired count.
        """
        before = self.retired
        self.run(sink=sink, budget=n)
        return self.retired - before

    def checkpoint(self) -> dict:
        """Snapshot everything ``restore`` needs to replay from here.

        The snapshot is a plain dict of copied state — registers,
        memory, call stack, outputs, RNG (including the cached
        Box-Muller normal), resume PC, pending PROB group and retired
        count — so a shrinker or harness can rewind without re-running
        the prefix.
        """
        state = self.state
        pending = self._pending_cmp
        return {
            "pc": self._pc,
            "retired": self.retired,
            "halted": self._halted,
            "regs": list(state.regs),
            "memory": list(state.memory),
            "call_stack": list(state.call_stack),
            "outputs": {k: list(v) for k, v in state.outputs.items()},
            "rng": self.rng.snapshot(),
            "pending_cmp": None if pending is None else (
                pending[0], pending[1], list(pending[2]), list(pending[3]),
            ),
            "consumed": len(self.consumed_values),
        }

    def restore(self, snap: dict) -> None:
        """Rewind to a :meth:`checkpoint` snapshot."""
        state = self.state
        self._pc = snap["pc"]
        self.retired = snap["retired"]
        self._halted = snap["halted"]
        state.regs[:] = snap["regs"]
        state.memory[:] = snap["memory"]
        state.call_stack[:] = snap["call_stack"]
        state.outputs.clear()
        state.outputs.update({k: list(v) for k, v in snap["outputs"].items()})
        self.rng.restore(snap["rng"])
        pending = snap["pending_cmp"]
        self._pending_cmp = None if pending is None else (
            pending[0], pending[1], list(pending[2]), list(pending[3]),
        )
        del self.consumed_values[snap["consumed"]:]
