"""Behavioural tests for the tournament and TAGE-SC-L predictors."""

import random

import pytest

from repro.branch import (
    KIB,
    PerfectPredictor,
    StatisticalCorrector,
    Tage,
    TageSCL,
    Tournament,
    predictor_budget,
)


def misprediction_rate(predictor, sequence, warmup=500):
    mispredicts = 0
    measured = 0
    for step, (pc, taken) in enumerate(sequence):
        prediction = predictor.predict(pc)
        if step >= warmup:
            measured += 1
            if prediction != taken:
                mispredicts += 1
        predictor.update(pc, taken)
    return mispredicts / measured


def loop_sequence(trip, executions, pc=100):
    out = []
    for _ in range(executions):
        out += [(pc, True)] * (trip - 1) + [(pc, False)]
    return out


def biased_sequence(p_taken, count, pc=200, seed=1):
    rng = random.Random(seed)
    return [(pc, rng.random() < p_taken) for _ in range(count)]


class TestStorageBudgets:
    def test_tournament_fits_1kb(self):
        predictor = Tournament()
        assert predictor.storage_bits() <= KIB
        report = predictor_budget(predictor, KIB)
        assert report.within_budget
        assert report.total_bits == predictor.storage_bits()

    def test_tagescl_fits_8kb(self):
        predictor = TageSCL()
        assert predictor.storage_bits() <= 8 * KIB
        report = predictor_budget(predictor, 8 * KIB)
        assert report.within_budget

    def test_tagescl_uses_most_of_budget(self):
        # A predictor that only uses half its budget is not a fair baseline.
        assert TageSCL().storage_bits() >= 0.85 * 8 * KIB


class TestLoopBranches:
    @pytest.mark.parametrize("factory", [Tournament, TageSCL])
    def test_fixed_trip_loop_is_learned(self, factory):
        rate = misprediction_rate(factory(), loop_sequence(7, 3000))
        assert rate < 0.01


class TestBiasedRandomBranches:
    """Probabilistic branches look i.i.d.: min(p, 1-p) is the floor."""

    def test_tagescl_close_to_entropy_floor(self):
        rate = misprediction_rate(TageSCL(), biased_sequence(0.7, 30000))
        assert 0.28 <= rate <= 0.33

    def test_tournament_worse_than_tagescl_on_bias(self):
        sequence = biased_sequence(0.7, 30000)
        tournament_rate = misprediction_rate(Tournament(), list(sequence))
        tagescl_rate = misprediction_rate(TageSCL(), list(sequence))
        assert tagescl_rate <= tournament_rate

    def test_fifty_fifty_near_half(self):
        rate = misprediction_rate(TageSCL(), biased_sequence(0.5, 30000))
        assert 0.45 <= rate <= 0.55


class TestHistoryCorrelation:
    @pytest.mark.parametrize("factory", [Tage, TageSCL])
    def test_correlated_pair(self, factory):
        rng = random.Random(7)
        sequence = []
        for _ in range(8000):
            flip = rng.random() < 0.5
            sequence.append((200, flip))
            sequence.append((300, flip))  # fully determined by previous
        rate = misprediction_rate(factory(), sequence)
        # Only the 50/50 leader branch should miss: overall rate ~0.25.
        assert rate < 0.30

    def test_long_period_pattern_needs_tage(self):
        # Period-24 repeating pattern at one pc: too long for a 10-bit
        # gshare history, easy for TAGE's 36+ bit tables.
        rng = random.Random(9)
        pattern = [rng.random() < 0.5 for _ in range(24)]
        sequence = [(400, pattern[i % 24]) for i in range(30000)]
        tage_rate = misprediction_rate(TageSCL(), list(sequence))
        assert tage_rate < 0.05


class TestTageInternals:
    def test_prediction_context_consumed_by_update(self):
        predictor = Tage()
        predictor.predict(10)
        predictor.update(10, True)
        assert predictor._ctx is None

    def test_update_without_predict_is_safe(self):
        predictor = Tage()
        predictor.update(10, True)  # must not raise

    def test_reset_restores_cold_state(self):
        predictor = Tage()
        for step in range(2000):
            predictor.predict(step % 37)
            predictor.update(step % 37, step % 3 == 0)
        predictor.reset()
        assert predictor._history == 0
        assert all(
            value == 0
            for field in (predictor.ctr, predictor.tag, predictor.useful)
            for table in field
            for value in table
        )

    def test_lfsr_is_deterministic(self):
        a, b = Tage(), Tage()
        assert [a._next_random() for _ in range(10)] == [
            b._next_random() for _ in range(10)
        ]


class TestStatisticalCorrector:
    def test_saturates_on_biased_stream(self):
        corrector = StatisticalCorrector()
        rng = random.Random(3)
        for _ in range(3000):
            taken = rng.random() < 0.8
            corrector.combine(500, True)
            corrector.update(500, taken)
        # After heavy bias the corrector must agree with the bias even if
        # TAGE proposes the opposite.
        assert corrector.combine(500, False) is True

    def test_storage_bits(self):
        corrector = StatisticalCorrector()
        expected_counters = len(corrector.bias) + sum(
            len(t) for t in corrector.tables
        )
        assert corrector.storage_bits() >= expected_counters * 6


class TestPerfect:
    def test_flagged_perfect(self):
        assert PerfectPredictor().perfect is True


class TestDeterminism:
    @pytest.mark.parametrize("factory", [Tournament, TageSCL])
    def test_same_sequence_same_predictions(self, factory):
        sequence = biased_sequence(0.6, 3000, seed=5)

        def run():
            predictor = factory()
            out = []
            for pc, taken in sequence:
                out.append(predictor.predict(pc))
                predictor.update(pc, taken)
            return out

        assert run() == run()
