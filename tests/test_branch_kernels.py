"""Differential tests for the batch predictor kernels.

``PredictorHarness`` drives every predictor through one entry point,
``predict_update_batch(pcs, takens, trains)``.  Its contract is the
per-op reference sequence: for a training op ``predict`` then
``update``, otherwise ``insert_history``.  Every registered predictor
and a few TAGE-SC-L and Tournament geometries that reach the kernels'
rarer paths run random op streams cut into random batches through the
batch entry point and through the reference sequence; the predictions
and the whole predictor state must be identical at every batch end.

The streams mix biased random branches, fixed-trip loops (so the loop
predictor gains confidence and overrides), loops longer than the loop
predictor's trip counter (so its entry is evicted) and runs of
history-only inserts (PBS hits).  Hypothesis drives the stream shapes
where it is installed; a seeded-random sweep runs regardless.
"""

import random

import pytest

from repro.branch import (
    BranchPredictor,
    LoopPredictor,
    StatisticalCorrector,
    Tage,
    TageSCL,
    Tournament,
)
from repro.sim import predictor_names
from repro.sim.registry import create_predictor

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover — hypothesis ships in CI
    HAVE_HYPOTHESIS = False


def small_tournament(loop=None):
    """A Tournament with tables small enough that bimodal, gshare and
    chooser entries alias, and a 4-entry loop predictor with a 4-bit
    trip counter, so loop entries are replaced and evicted."""
    predictor = Tournament(
        bimodal_entries=16, global_entries=32, history_bits=6, chooser_entries=4
    )
    predictor.loop = loop or LoopPredictor(entries=4, count_bits=4)
    return predictor


#: TAGE-SC-L and Tournament variants whose kernel paths the default
#: geometry reaches only after long streams, plus TAGE-SC-L geometries
#: with other fold sets.
VARIANTS = {
    # Useful-bit aging every 64 trained branches.
    "tage-sc-l/aging": lambda: TageSCL(tage=Tage(useful_reset_period=64)),
    # A 4-bit trip counter: any loop past 15 iterations is evicted.
    "tage-sc-l/short-loops": lambda: TageSCL(
        loop=LoopPredictor(entries=32, count_bits=4)
    ),
    # Folds with no shared (length, width) pairs, a corrector history
    # longer than TAGE's, and index and tag widths that differ.
    "tage-sc-l/odd-geometry": lambda: TageSCL(
        tage=Tage(
            base_entries=256,
            table_entries=64,
            tag_bits=7,
            history_lengths=(3, 5, 11, 13),
            useful_reset_period=200,
        ),
        corrector=StatisticalCorrector(
            bias_entries=64, table_entries=32, history_lengths=(6, 9, 21)
        ),
        loop=LoopPredictor(entries=8, count_bits=5),
    ),
    "tournament/small": small_tournament,
}

FACTORIES = {name: (lambda name=name: create_predictor(name))
             for name in predictor_names()}
FACTORIES.update(VARIANTS)


def reference(predictor, pcs, takens, trains):
    """The per-op sequence every kernel must equal."""
    predictions = []
    for pc, taken, train in zip(pcs, takens, trains):
        if train:
            predictions.append(predictor.predict(pc))
            predictor.update(pc, taken)
        else:
            predictor.insert_history(pc, taken)
    return predictions


def state(value):
    """A comparable snapshot of a predictor's whole state."""
    if isinstance(value, (list, tuple)):
        return [state(item) for item in value]
    if isinstance(value, dict):
        return {key: state(item) for key, item in value.items()}
    slots = getattr(type(value), "__slots__", None)
    if hasattr(value, "__dict__") or slots:
        fields = dict(getattr(value, "__dict__", {}))
        for slot in slots or ():
            fields[slot] = getattr(value, slot)
        return type(value).__name__, {
            key: state(item) for key, item in sorted(fields.items())
        }
    return value


def generate(rng, segments=40):
    """A random op stream: ``(pcs, takens, trains)`` columns."""
    ops = []
    for _ in range(segments):
        kind = rng.randrange(5)
        pc = rng.randrange(1, 200) * 4
        if kind == 0:       # biased random branches over a few pcs
            bias = rng.random()
            pcs = [pc + 4 * rng.randrange(4) for _ in range(rng.randrange(1, 40))]
            ops += [(p, rng.random() < bias, True) for p in pcs]
        elif kind == 1:     # a fixed-trip loop, executed several times
            trip = rng.randrange(2, 9)
            for _ in range(rng.randrange(3, 8)):
                ops += [(pc, True, True)] * (trip - 1) + [(pc, False, True)]
        elif kind == 2:     # a loop longer than a short trip counter
            ops += [(pc, True, True)] * rng.randrange(16, 40) + [(pc, False, True)]
        elif kind == 3:     # history-only inserts (PBS hits)
            ops += [(pc, rng.random() < 0.5, False)
                    for _ in range(rng.randrange(1, 12))]
        else:               # interleaved trained and inserted branches
            ops += [(pc + 4 * rng.randrange(8), rng.random() < 0.5,
                     rng.random() < 0.7) for _ in range(rng.randrange(1, 30))]
    pcs, takens, trains = (list(column) for column in zip(*ops))
    return pcs, takens, trains


def random_cuts(rng, length):
    return sorted(rng.sample(range(1, length), min(length - 1, rng.randrange(12))))


def assert_folds_consistent(predictor):
    """Every fold register equals a from-scratch fold of its history."""
    if not isinstance(predictor, TageSCL):
        return
    tage, corrector = predictor.tage, predictor.corrector
    for fold in tage._fold_index + tage._fold_tag0 + tage._fold_tag1:
        assert fold.comp == fold.recompute(tage._history)
    for fold in corrector._folds:
        assert fold.comp == fold.recompute(corrector._history)


def check(factory, stream, cuts):
    """Run ``stream`` cut at ``cuts`` through the kernel and through the
    reference; compare predictions and state at every batch end."""
    kernel, expected = factory(), factory()
    pcs, takens, trains = stream
    bounds = [0] + list(cuts) + [len(pcs)]
    for lo, hi in zip(bounds, bounds[1:]):
        got = kernel.predict_update_batch(pcs[lo:hi], takens[lo:hi], trains[lo:hi])
        want = reference(expected, pcs[lo:hi], takens[lo:hi], trains[lo:hi])
        assert got == want, f"predictions differ in ops [{lo}, {hi})"
        assert state(kernel) == state(expected), f"state differs after op {hi}"
        assert_folds_consistent(kernel)
    return kernel


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_reference(name, seed):
    rng = random.Random(seed)
    stream = generate(rng)
    check(FACTORIES[name], stream, random_cuts(rng, len(stream[0])))


class WatchedLoop(LoopPredictor):
    """A loop predictor that records every entry evicted by an overlong
    trip count."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evictions = []

    def update(self, pc, taken):
        before = self.tag[pc & self._mask]
        super().update(pc, taken)
        if before >= 0 and self.tag[pc & self._mask] == -1:
            self.evictions.append(pc)


def test_streams_reach_the_rare_paths():
    """The streams really cross useful-bit aging, loop eviction,
    confident loop overrides and both outcomes of the allocation coin."""
    stream = generate(random.Random(0), segments=80)
    assert sum(stream[2]) > 2 * VARIANTS["tage-sc-l/aging"]().tage.useful_reset_period

    flips = []

    class WatchedTage(Tage):
        def _next_random(self):
            value = super()._next_random()
            flips.append(value & 1)
            return value

    predictor = TageSCL(
        tage=WatchedTage(), loop=WatchedLoop(entries=32, count_bits=4)
    )
    overrides = 0
    for pc, taken, train in zip(*stream):
        if train:
            overrides += predictor.loop.hit(pc)
            predictor.predict(pc)
            predictor.update(pc, taken)
        else:
            predictor.insert_history(pc, taken)
    assert predictor.loop.evictions
    assert overrides
    assert 0 < sum(flips) < len(flips)


def test_tournament_streams_reach_the_rare_paths():
    """On the small Tournament the streams cross confident loop
    overrides, loop eviction and chooser training in both directions."""
    predictor = small_tournament(WatchedLoop(entries=4, count_bits=4))
    overrides = ups = downs = 0
    for pc, taken, train in zip(*generate(random.Random(0))):
        if train:
            overrides += predictor.loop.hit(pc)
            predictor.predict(pc)
            index = pc & predictor._chooser_mask
            before = predictor.chooser[index]
            predictor.update(pc, taken)
            ups += predictor.chooser[index] > before
            downs += predictor.chooser[index] < before
        else:
            predictor.insert_history(pc, taken)
    assert overrides
    assert predictor.loop.evictions
    assert ups and downs


def test_default_is_the_reference_sequence():
    """A predictor that overrides nothing runs the per-op sequence."""
    calls = []

    class Spy(BranchPredictor):
        name = "spy"

        def predict(self, pc):
            calls.append(("predict", pc))
            return pc % 2 == 0

        def update(self, pc, taken):
            calls.append(("update", pc, taken))

        def insert_history(self, pc, taken):
            calls.append(("insert", pc, taken))

        def storage_bits(self):
            return 0

    predictions = Spy().predict_update_batch(
        [2, 3, 5], [True, False, True], [True, False, True]
    )
    assert predictions == [True, False]
    assert calls == [
        ("predict", 2), ("update", 2, True),
        ("insert", 3, False),
        ("predict", 5), ("update", 5, True),
    ]


def test_kernel_and_per_op_calls_interleave():
    """State the kernel writes back is what the per-op path reads, and
    the other way round."""
    pcs, takens, trains = generate(random.Random(11))
    third = len(pcs) // 3
    mixed, expected = TageSCL(), TageSCL()
    got = reference(mixed, pcs[:third], takens[:third], trains[:third])
    got += mixed.predict_update_batch(
        pcs[third:2 * third], takens[third:2 * third], trains[third:2 * third]
    )
    got += reference(mixed, pcs[2 * third:], takens[2 * third:], trains[2 * third:])
    assert got == reference(expected, pcs, takens, trains)
    assert state(mixed) == state(expected)


def test_fold_registers_are_deduplicated():
    """The default geometry's 24 fold objects are 13 distinct folds, 7
    of them longer than their width (the rest are plain history bits)."""
    fields = TageSCL()._bank.fields
    assert len(fields) == 13
    assert sum(length > width for length, width in fields) == 7


if HAVE_HYPOTHESIS:

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(FACTORIES)),
        seed=st.integers(min_value=0, max_value=2**32),
        segments=st.integers(min_value=1, max_value=60),
        data=st.data(),
    )
    def test_kernel_matches_reference_hypothesis(name, seed, segments, data):
        stream = generate(random.Random(seed), segments)
        length = len(stream[0])
        cuts = (
            data.draw(st.lists(st.integers(1, length - 1), max_size=20, unique=True))
            if length > 1 else []
        )
        check(FACTORIES[name], stream, sorted(cuts))
