"""``OoOCore``'s batch kernel against the per-row reference model.

The kernel times a batch from a latency column (one
:class:`~repro.pipeline.LatencyWalk` per latency table) with the ROB as
a ring of commit cycles and the register-ready table as a list.
:class:`~tests.reference_core.ReferenceCore` is the plain loop: a
``deque`` ROB, a dict register file and one hierarchy call per row.
Fed the same rows, the two must agree on cycles, branch stall cycles
and every cache level's hits and misses, under any batch cuts.

The caches here are tiny (a 4-set L1 and an 8-set L2), so loads and
stores hit and miss at both levels.  Hypothesis drives widths 1, 4 and
8, every ROB size from the width up to 168, random latency tables and
random batch cuts where it is installed; the seeded streams run
regardless.
"""

import random

import pytest

from repro.branch import Tournament
from repro.isa.opcodes import OpClass
from repro.isa.registers import NUM_REGS
from repro.memory import Cache, MemoryHierarchy
from repro.pipeline import DEFAULT_LATENCIES, CoreConfig, OoOCore

from .events import Row, batch_of
from .reference_core import ReferenceCore

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover — hypothesis ships in CI
    HAVE_HYPOTHESIS = False

MEMORY = (OpClass.LOAD, OpClass.STORE)
#: Word addresses a stream touches: a hot line that stays in L1, and a
#: 4096-word spread that is 16 times the L2.
HOT_WORDS = 8
ALL_WORDS = 4096


def tiny_hierarchy():
    return MemoryHierarchy(
        l1=Cache("l1", 512, ways=2, latency=4),
        l2=Cache("l2", 2048, ways=4, latency=12),
        memory_latency=50,
    )


def row(op_class, dest, srcs, site, taken, word):
    """One retired instruction of class ``op_class``: a conditional
    branch at one of a few sites, a load or store of ``word``, or a
    plain op."""
    pc = 4 * site
    if op_class == OpClass.BRANCH:
        return Row(pc, 0, op_class, -1, srcs, True, taken, 0,
                   0 if taken else pc + 1)
    if op_class in MEMORY:
        return Row(pc, 0, op_class, dest, srcs, next_pc=pc + 1, addr=word,
                   is_store=op_class == OpClass.STORE)
    return Row(pc, 0, op_class, dest, srcs, next_pc=pc + 1)


def random_rows(rng, n):
    classes = list(OpClass)
    weights = [6 if c in MEMORY or c == OpClass.BRANCH else 1 for c in classes]
    rows = []
    for _ in range(n):
        word = (rng.randrange(HOT_WORDS) if rng.random() < 0.5
                else rng.randrange(ALL_WORDS))
        rows.append(row(
            rng.choices(classes, weights)[0],
            rng.randrange(-1, NUM_REGS),
            tuple(rng.randrange(NUM_REGS) for _ in range(rng.randrange(3))),
            rng.randrange(12), rng.random() < 0.6, word,
        ))
    return rows


def cut(rows, cuts):
    """``rows`` as consecutive batches split at the given indices."""
    bounds = sorted({0, len(rows), *(c for c in cuts if 0 < c < len(rows))})
    return [batch_of(rows[a:b]) for a, b in zip(bounds, bounds[1:])]


def outcome(core, hierarchy):
    stats = core.finalize()
    return {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "branch_stall_cycles": stats.branch_stall_cycles,
        "mispredicts": stats.branches.mispredicts,
        "l1": (hierarchy.l1.hits, hierarchy.l1.misses),
        "l2": (hierarchy.l2.hits, hierarchy.l2.misses),
    }


def compare(config, rows, cuts):
    """The kernel fed ``rows`` cut at ``cuts`` and the reference fed
    them whole; returns the kernel's outcome once both agree."""
    kernel_memory = tiny_hierarchy()
    kernel = OoOCore(config, Tournament(), hierarchy=kernel_memory)
    for batch in cut(rows, cuts):
        kernel.consume_batch(batch)
    reference_memory = tiny_hierarchy()
    reference = ReferenceCore(config, Tournament(), reference_memory)
    reference.consume_batch(batch_of(rows))
    got = outcome(kernel, kernel_memory)
    assert got == outcome(reference, reference_memory)
    return got


@pytest.mark.parametrize("width,rob_size", [
    (1, 1), (1, 7), (4, 4), (4, 33), (4, 168), (8, 8), (8, 168),
])
def test_kernel_matches_reference_on_seeded_streams(width, rob_size):
    rng = random.Random(width * 1000 + rob_size)
    rows = random_rows(rng, 3000)
    config = CoreConfig(name="k", width=width, rob_size=rob_size,
                        mispredict_penalty=10)
    cuts = sorted(rng.sample(range(1, len(rows)), 40))
    got = compare(config, rows, cuts)
    # The stream reaches every path the kernel has.
    assert got["mispredicts"] > 0 and got["branch_stall_cycles"] > 0
    assert min(got["l1"]) > 0 and min(got["l2"]) > 0
    assert compare(config, rows, range(1, len(rows))) == got


def test_a_walk_counts_each_memory_row_once():
    rows = random_rows(random.Random(9), 2000)
    hierarchy = tiny_hierarchy()
    core = OoOCore(CoreConfig(), Tournament(), hierarchy=hierarchy)
    for batch in cut(rows, range(100, 2000, 100)):
        core.consume_batch(batch)
    assert hierarchy.l1.accesses == sum(r.op_class in MEMORY for r in rows)
    assert core.walk.hierarchy is hierarchy


if HAVE_HYPOTHESIS:
    rows_strategy = st.lists(
        st.builds(
            row,
            st.sampled_from(list(OpClass) + [OpClass.BRANCH, *MEMORY] * 3),
            st.integers(-1, NUM_REGS - 1),
            st.lists(st.integers(0, NUM_REGS - 1), max_size=3).map(tuple),
            st.integers(0, 7),
            st.booleans(),
            st.one_of(st.integers(0, HOT_WORDS - 1),
                      st.integers(0, ALL_WORDS - 1)),
        ),
        min_size=1, max_size=400,
    )

    @st.composite
    def configs(draw):
        width = draw(st.sampled_from((1, 4, 8)))
        latencies = draw(st.one_of(
            st.just(dict(DEFAULT_LATENCIES)),
            st.fixed_dictionaries(
                {op_class: st.integers(0, 25) for op_class in OpClass}),
        ))
        return CoreConfig(
            name="h", width=width,
            rob_size=draw(st.integers(width, 168)),
            mispredict_penalty=draw(st.integers(0, 20)),
            latencies=latencies,
        )

    @settings(max_examples=150, deadline=None)
    @given(config=configs(), rows=rows_strategy,
           cuts=st.lists(st.integers(0, 400), max_size=12))
    def test_kernel_matches_reference_on_generated_streams(config, rows, cuts):
        compare(config, rows, cuts)
