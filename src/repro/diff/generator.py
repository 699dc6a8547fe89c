"""Random program generator for differential fuzzing.

Programs are built from *macros* — short, self-contained instruction
sequences with concrete parameters — wrapped in a counted loop with a
deterministic prologue and an output epilogue.  The representation is
split in two so divergences can be shrunk:

* :func:`generate` rolls a :class:`GenProgram` — a frozen descriptor
  (seed, loop count, tuple of macro descriptors) — using only the seed
  for randomness.
* :func:`build_program` deterministically turns a descriptor into a
  validated :class:`~repro.isa.program.Program`.  The shrinker edits
  descriptors (dropping macros, lowering the loop count) and rebuilds.

Macros keep every tier inside its defined envelope by construction:
integer results are masked to 20 bits (non-negative, so ``DIV``,
``MOD`` and ``SHR`` never see sign-dependent cases), shift amounts to
3 bits, divisors are forced odd-nonzero, ``FEXP``/``FSIN``/``FCOS``
inputs are clamped, ``FSQRT``/``FLOG`` see absolute values, and
``FTOI`` inputs are NaN-stripped and clamped.  NaN itself is
synthesized at runtime (``inf - inf``) rather than as an
immediate — the compiled tier renders immediates with ``repr`` — and is
fed only to ``FMIN``/``FMAX``, whose NaN semantics are part of the
cross-tier contract.

Programs use everything the ISA has, memory traffic, ``CALL``/``RET``
and ``RANDN`` included.  The macro list, its order and the masks stay
fixed so that every seed keeps generating the same program: the fuzz
corpus is stable, and a seed quoted in a report reproduces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from ..isa.registers import F, R

#: Integer working registers (indices into R); R0/R7/R8/R9 are reserved
#: for the loop counter, loop bound, address scratch and macro temp.
_IREGS = (1, 2, 3, 4, 5, 6)
#: Float working registers; F8 holds NaN, F9/F10 are scratch.
_FREGS = (0, 1, 2, 3, 4, 5, 6, 7)

_INT_MASK = 0xFFFFF  # 20-bit, non-negative integer results
_DATA_SIZE = 16

_INT_OPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr",
            "div", "mod", "slt", "sle", "seq", "sne", "imin", "imax")
_FLOAT_OPS = ("fadd", "fsub", "fmul", "fdiv", "fmin", "fmax")
_FUNARY_OPS = ("fsqrt", "fexp", "flog", "fsin", "fcos", "fabs", "fneg",
               "ffloor")
_CMP_OPS = ("lt", "le", "gt", "ge", "eq", "ne")
_BRANCH_OPS = ("beq", "bne", "blt", "bge", "ble", "bgt")

#: Macro kinds, in the order :func:`generate` draws from (reordering
#: them changes every seed's program).
_KINDS = (
    "int", "intimm", "fop", "fopimm", "funary", "ftoi", "itof",
    "select", "fselect", "cmpjt", "branch", "rand", "nanmm", "probjmp",
    "randn", "mem", "fmem", "call",
)


@dataclass(frozen=True)
class GenProgram:
    """A generated program as a shrinkable descriptor."""

    seed: int
    iters: int
    body: Tuple[Tuple, ...]
    use_sub: bool

    @property
    def name(self) -> str:
        # The program name enters the compiled tier's program digest,
        # so it keeps its ``gen-full-`` prefix: a seed's digest (and its
        # codegen cache entry) stays the same.
        return f"gen-full-{self.seed}"


def generate(seed: int) -> GenProgram:
    """Roll one random program descriptor from ``seed``."""
    rng = random.Random(seed)
    body = []
    use_sub = False
    for _ in range(rng.randint(6, 20)):
        kind = rng.choice(_KINDS)
        if kind == "int":
            body.append((kind, rng.choice(_INT_OPS), rng.choice(_IREGS),
                         rng.choice(_IREGS), rng.choice(_IREGS)))
        elif kind == "intimm":
            body.append((kind, rng.choice(_INT_OPS), rng.choice(_IREGS),
                         rng.choice(_IREGS), rng.randint(0, 255)))
        elif kind == "fop":
            body.append((kind, rng.choice(_FLOAT_OPS), rng.choice(_FREGS),
                         rng.choice(_FREGS), rng.choice(_FREGS)))
        elif kind == "fopimm":
            body.append((kind, rng.choice(_FLOAT_OPS), rng.choice(_FREGS),
                         rng.choice(_FREGS),
                         round(rng.uniform(-4.0, 4.0), 6)))
        elif kind == "funary":
            body.append((kind, rng.choice(_FUNARY_OPS), rng.choice(_FREGS),
                         rng.choice(_FREGS)))
        elif kind == "ftoi":
            body.append((kind, rng.choice(_IREGS), rng.choice(_FREGS)))
        elif kind == "itof":
            body.append((kind, rng.choice(_FREGS), rng.choice(_IREGS)))
        elif kind == "select":
            body.append((kind, rng.choice(_IREGS), rng.choice(_IREGS),
                         rng.choice(_IREGS), rng.choice(_IREGS),
                         rng.choice(_IREGS)))
        elif kind == "fselect":
            body.append((kind, rng.choice(_FREGS), rng.choice(_FREGS),
                         rng.choice(_FREGS), rng.choice(_FREGS),
                         rng.choice(_FREGS)))
        elif kind == "cmpjt":
            body.append((kind, rng.choice(_CMP_OPS), rng.choice(_IREGS),
                         rng.choice(_IREGS), rng.random() < 0.5,
                         rng.choice(_IREGS)))
        elif kind == "branch":
            body.append((kind, rng.choice(_BRANCH_OPS), rng.choice(_IREGS),
                         rng.choice(_IREGS), rng.choice(_FREGS)))
        elif kind in ("rand", "randn"):
            body.append((kind, rng.choice(_FREGS)))
        elif kind == "nanmm":
            body.append((kind, rng.choice(("fmin", "fmax")),
                         rng.choice(_FREGS), rng.choice(_FREGS),
                         rng.random() < 0.5))
        elif kind == "probjmp":
            body.append((kind, rng.choice(_CMP_OPS),
                         round(rng.uniform(0.1, 0.9), 4),
                         rng.choice(_IREGS)))
        elif kind in ("mem", "fmem"):
            body.append((kind, rng.choice(_IREGS if kind == "mem"
                                          else _FREGS),
                         rng.choice(_IREGS),
                         rng.choice(_IREGS if kind == "mem" else _FREGS)))
        elif kind == "call":
            body.append((kind,))
            use_sub = True
    return GenProgram(
        seed=seed,
        iters=rng.randint(2, 6),
        body=tuple(body),
        use_sub=use_sub,
    )


def build_program(gen: GenProgram) -> Program:
    """Deterministically assemble a descriptor into a Program."""
    b = ProgramBuilder(gen.name, data_size=_DATA_SIZE)
    seed_rng = random.Random(gen.seed ^ 0x5EED)

    # Prologue: loop bookkeeping, seeded working registers, runtime NaN.
    b.li(R(0), 0)
    b.li(R(7), gen.iters)
    for index in _IREGS:
        b.li(R(index), seed_rng.randint(0, _INT_MASK))
    for index in _FREGS:
        b.fli(F(index), round(seed_rng.uniform(-8.0, 8.0), 6))
    b.fli(F(9), 1e308)
    b.fadd(F(9), F(9), F(9))    # inf
    b.fsub(F(8), F(9), F(9))    # inf - inf = NaN

    labels = iter(range(1_000_000))

    def fresh() -> str:
        return f"m{next(labels)}"

    b.label("loop")
    for macro in gen.body:
        _emit(b, macro, fresh)
    b.add(R(0), R(0), 1)
    b.blt(R(0), R(7), "loop")

    # Epilogue: publish the working state on the output channels.
    for index in _IREGS:
        b.out(R(index), 0)
    for index in _FREGS:
        b.out(F(index), 1)
    b.halt()

    if gen.use_sub:
        b.label("sub0")
        b.add(R(9), R(1), R(2))
        b.and_(R(9), R(9), _INT_MASK)
        b.xor(R(3), R(3), R(9))
        b.ret()

    return b.build()


def _emit(b: ProgramBuilder, macro: Tuple, fresh) -> None:
    kind = macro[0]
    if kind == "int" or kind == "intimm":
        _, op, d, a, src = macro
        dst, lhs = R(d), R(a)
        rhs = R(src) if kind == "int" else src
        if op in ("div", "mod"):
            b.or_(R(9), rhs, 1)  # odd => nonzero divisor
            (b.div if op == "div" else b.mod)(dst, lhs, R(9))
        elif op in ("shl", "shr"):
            b.and_(R(9), rhs, 7)
            (b.shl if op == "shl" else b.shr)(dst, lhs, R(9))
        else:
            getattr(b, op + "_" if op in ("and", "or") else op)(
                dst, lhs, rhs
            )
        # Every integer result is masked to 20 bits: keeps values
        # non-negative so DIV/MOD/SHR never see sign-dependent cases.
        # The mask is part of every generated program, so changing it
        # changes the whole fuzz corpus.
        b.and_(dst, dst, _INT_MASK)
    elif kind == "fop" or kind == "fopimm":
        _, op, d, a, src = macro
        dst, lhs = F(d), F(a)
        rhs = F(src) if kind == "fop" else src
        if op == "fdiv":
            # |rhs| + 1.0 keeps the denominator >= 1 (or NaN, which is
            # consistent across tiers).
            if kind == "fop":
                b.fabs_(F(10), rhs)
            else:
                b.fli(F(10), abs(src))
            b.fadd(F(10), F(10), 1.0)
            b.fdiv(dst, lhs, F(10))
        else:
            getattr(b, op)(dst, lhs, rhs)
    elif kind == "funary":
        _, op, d, a = macro
        dst, src = F(d), F(a)
        if op in ("fsqrt", "flog"):
            b.fabs_(F(10), src)
            if op == "flog":
                b.fadd(F(10), F(10), 1e-9)
            (b.fsqrt if op == "fsqrt" else b.flog)(dst, F(10))
        elif op in ("fexp", "fsin", "fcos"):
            # Clamp into [-50, 50]; NaN passes through and every tier's
            # exp/sin/cos maps NaN to NaN.
            b.fmin(F(10), src, 50.0)
            b.fmax(F(10), F(10), -50.0)
            getattr(b, op)(dst, F(10))
        elif op == "ffloor":
            # floor(NaN/inf) raises in the scalar tiers: strip and clamp.
            b.feq(R(9), src, src)
            b.fselect(F(10), R(9), src, 0.0)
            b.fmin(F(10), F(10), 1e6)
            b.fmax(F(10), F(10), -1e6)
            b.ffloor(dst, F(10))
        elif op == "fabs":
            b.fabs_(dst, src)
        else:
            getattr(b, op)(dst, src)
    elif kind == "ftoi":
        _, d, a = macro
        # Strip NaN (undefined conversion), clamp inf into int range.
        b.feq(R(9), F(a), F(a))
        b.fselect(F(10), R(9), F(a), 0.0)
        b.fmin(F(10), F(10), 1e6)
        b.fmax(F(10), F(10), -1e6)
        b.ftoi(R(d), F(10))
    elif kind == "itof":
        _, d, a = macro
        b.itof(F(d), R(a))
    elif kind == "select":
        _, d, ca, cb, a, v = macro
        b.slt(R(9), R(ca), R(cb))
        b.select(R(d), R(9), R(a), R(v))
    elif kind == "fselect":
        _, d, ca, cb, a, v = macro
        b.flt(R(9), F(ca), F(cb))
        b.fselect(F(d), R(9), F(a), F(v))
    elif kind == "cmpjt":
        _, operator, a, v, negate, filler = macro
        skip = fresh()
        b.cmp(operator, R(a), R(v))
        (b.jf if negate else b.jt)(skip)
        b.xor(R(filler), R(filler), 0x3F)
        b.label(skip)
        b.nop()
    elif kind == "branch":
        _, op, a, v, ffiller = macro
        skip = fresh()
        getattr(b, op)(R(a), R(v), skip)
        b.fadd(F(ffiller), F(ffiller), 0.5)
        b.label(skip)
        b.nop()
    elif kind == "rand":
        b.rand(F(macro[1]))
    elif kind == "randn":
        b.randn(F(macro[1]))
    elif kind == "nanmm":
        _, op, d, a, nan_first = macro
        lhs, rhs = (F(8), F(a)) if nan_first else (F(a), F(8))
        getattr(b, op)(F(d), lhs, rhs)
    elif kind == "probjmp":
        _, operator, threshold, filler = macro
        skip = fresh()
        b.rand(F(10))
        b.prob_cmp(operator, F(10), threshold)
        b.prob_jmp(None, skip)
        b.add(R(filler), R(filler), 3)
        b.and_(R(filler), R(filler), _INT_MASK)
        b.label(skip)
        b.nop()
    elif kind == "mem":
        _, d, a, v = macro
        b.and_(R(8), R(a), _DATA_SIZE - 1)
        b.store(R(v), R(8))
        b.load(R(d), R(8))
    elif kind == "fmem":
        _, d, a, v = macro
        b.and_(R(8), R(a), _DATA_SIZE - 1)
        b.fstore(F(v), R(8))
        b.fload(F(d), R(8))
    elif kind == "call":
        b.call("sub0")
    else:  # pragma: no cover - descriptors come from generate()
        raise ValueError(f"unknown macro kind {kind!r}")
