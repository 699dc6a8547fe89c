"""Tests for the simple predictors, folded history and loop predictor."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    FoldedHistory,
    GShare,
    LoopPredictor,
    TwoLevelLocal,
    saturating_update,
)
from repro.branch.folded import FoldBank


class TestSaturatingCounter:
    def test_increments_to_max(self):
        counter = 0
        for _ in range(10):
            counter = saturating_update(counter, True, 3)
        assert counter == 3

    def test_decrements_to_zero(self):
        counter = 3
        for _ in range(10):
            counter = saturating_update(counter, False, 3)
        assert counter == 0

    @given(st.integers(0, 3), st.booleans())
    def test_stays_in_range(self, counter, taken):
        assert 0 <= saturating_update(counter, taken, 3) <= 3


class TestStaticPredictors:
    def test_always_taken(self):
        p = AlwaysTaken()
        assert p.predict(100) is True
        p.update(100, False)
        assert p.predict(100) is True
        assert p.storage_bits() == 0

    def test_always_not_taken(self):
        p = AlwaysNotTaken()
        assert p.predict(100) is False


class TestBimodal:
    def test_learns_bias(self):
        p = Bimodal(entries=64)
        for _ in range(10):
            p.update(5, True)
        assert p.predict(5) is True
        for _ in range(10):
            p.update(5, False)
        assert p.predict(5) is False

    def test_hysteresis(self):
        p = Bimodal(entries=64)
        for _ in range(10):
            p.update(5, True)
        p.update(5, False)  # one anomaly must not flip a saturated counter
        assert p.predict(5) is True

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Bimodal(entries=100)

    def test_storage_bits(self):
        assert Bimodal(entries=1024).storage_bits() == 2048

    def test_reset(self):
        p = Bimodal(entries=64)
        for _ in range(10):
            p.update(5, False)
        p.reset()
        assert p.predict(5) is True  # back to weakly taken


class TestGShare:
    def test_learns_history_correlation(self):
        # Branch at pc=8 alternates T/NT: bimodal cannot learn this but
        # gshare separates the two history contexts.
        p = GShare(entries=256, history_bits=4)
        outcome = True
        for _ in range(100):
            p.predict(8)
            p.update(8, outcome)
            outcome = not outcome
        hits = 0
        for _ in range(20):
            if p.predict(8) == outcome:
                hits += 1
            p.update(8, outcome)
            outcome = not outcome
        assert hits == 20

    def test_storage_includes_history(self):
        assert GShare(entries=256, history_bits=4).storage_bits() == 256 * 2 + 4


class TestTwoLevelLocal:
    def test_learns_per_branch_pattern(self):
        p = TwoLevelLocal(history_entries=64, history_bits=6, pattern_entries=256)
        pattern = [True, True, False]
        for step in range(300):
            p.update(9, pattern[step % 3])
        hits = 0
        for step in range(30):
            want = pattern[step % 3]
            if p.predict(9) == want:
                hits += 1
            p.update(9, want)
        assert hits >= 28


class TestFoldedHistory:
    @given(
        st.integers(min_value=2, max_value=160),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_matches_recompute(self, olen, clen, seed):
        fold = FoldedHistory(olen, clen)
        rng = random.Random(seed)
        history = 0
        for _ in range(min(3 * olen, 300)):
            bit = rng.getrandbits(1)
            history = (history << 1) | bit
            fold.update(history, bit)
        assert fold.comp == fold.recompute(history)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            FoldedHistory(0, 4)
        with pytest.raises(ValueError):
            FoldedHistory(4, 0)

    def test_reset(self):
        fold = FoldedHistory(8, 4)
        fold.update(1, 1)
        fold.reset()
        assert fold.comp == 0


class TestFoldBank:
    @given(
        st.lists(
            st.tuples(st.integers(1, 80), st.integers(1, 12)),
            min_size=1, max_size=12,
        ),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_advance_matches_every_fold(self, pairs, seed):
        bank = FoldBank(pairs)
        folds = [FoldedHistory(length, width) for length, width in pairs]
        rng = random.Random(seed)
        history = 0
        # Start mid-stream: pack must pick the registers up anywhere.
        for step in range(2 * 82):
            bit = rng.getrandbits(1)
            history = (history << 1) | bit
            for fold in folds:
                fold.update(history, bit)
            if step == 81:
                comp, window = bank.pack(history, {
                    (fold.original_length, fold.compressed_length): fold.comp
                    for fold in folds
                })
            elif step > 81:
                comp, window = bank.advance(comp, window, bit)
                for fold in folds:
                    pair = (fold.original_length, fold.compressed_length)
                    assert bank.field(comp, pair) == fold.comp

    def test_equal_pairs_share_one_field(self):
        assert FoldBank([(16, 8), (4, 9), (16, 8)]).fields == [(16, 8), (4, 9)]

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            FoldBank([(0, 4)])


class TestLoopPredictor:
    def run_loop(self, predictor, trip_count, executions, pc=64):
        mispredicts = 0
        total = 0
        for _ in range(executions):
            for i in range(trip_count):
                taken = i < trip_count - 1  # exit on the last iteration
                prediction = predictor.predict(pc)
                confident = predictor.hit(pc)
                predictor.update(pc, taken)
                total += 1
                if confident and prediction != taken:
                    mispredicts += 1
        return mispredicts, total

    @pytest.mark.parametrize("trip", [3, 7, 20])
    def test_perfect_after_warmup(self, trip):
        predictor = LoopPredictor(entries=16)
        self.run_loop(predictor, trip, executions=6)  # warmup
        mispredicts, _ = self.run_loop(predictor, trip, executions=20)
        assert mispredicts == 0

    def test_not_confident_for_varying_trip_counts(self):
        predictor = LoopPredictor(entries=16)
        rng = random.Random(3)
        for _ in range(50):
            trip = rng.randint(2, 10)
            for i in range(trip):
                predictor.predict(77)
                predictor.update(77, i < trip - 1)
        assert not predictor.hit(77)

    def test_storage_bits_positive(self):
        assert LoopPredictor(entries=32).storage_bits() > 0
