"""Tests for the randomness battery and confidence intervals."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functional import Drand48
from repro.stats import (
    FAIL,
    NUM_TESTS,
    PASS,
    Interval,
    classify,
    count_interval,
    mean_interval,
    proportion_interval,
    run_battery,
    summarize,
)


def uniform_stream(n, seed=0):
    rng = Drand48(seed)
    return [rng.uniform() for _ in range(n)]


class TestClassification:
    def test_fail_threshold(self):
        assert classify(1e-7) == FAIL
        assert classify(1 - 1e-9) == FAIL

    def test_weak_band(self):
        assert classify(0.001) == "WEAK"
        assert classify(0.999) == "WEAK"

    def test_pass_band(self):
        assert classify(0.5) == PASS
        assert classify(0.01) == PASS


class TestBatteryOnGoodStreams:
    def test_uniform_stream_mostly_passes(self):
        results = run_battery(uniform_stream(8000, seed=3))
        summary = summarize(results)
        assert summary[PASS] >= NUM_TESTS - 3
        assert summary[FAIL] == 0

    def test_number_of_tests(self):
        results = run_battery(uniform_stream(1000))
        assert len(results) == NUM_TESTS == 19

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_stable_across_seeds(self, seed):
        summary = summarize(run_battery(uniform_stream(6000, seed)))
        assert summary[FAIL] <= 1


class TestBatteryOnBadStreams:
    def test_constant_stream_fails_hard(self):
        summary = summarize(run_battery([0.5] * 4000))
        assert summary[FAIL] >= 8

    def test_linear_ramp_fails(self):
        stream = [i / 4000.0 for i in range(4000)]
        summary = summarize(run_battery(stream))
        assert summary[FAIL] >= 4

    def test_biased_stream_fails_distribution_tests(self):
        rng = random.Random(1)
        stream = [rng.random() ** 2 for _ in range(6000)]  # density skewed
        results = {r.name: r.verdict for r in run_battery(stream)}
        assert results["ks_uniform"] == FAIL
        assert results["mean"] == FAIL

    def test_correlated_stream_caught(self):
        rng = random.Random(2)
        stream = [rng.random()]
        for _ in range(5999):
            stream.append((stream[-1] * 0.7 + rng.random() * 0.3) % 1.0)
        results = {r.name: r.verdict for r in run_battery(stream)}
        assert results["serial_corr_lag1"] == FAIL

    def test_alternating_halves_fails_runs(self):
        stream = [0.25 if i % 2 == 0 else 0.75 for i in range(4000)]
        results = {r.name: r.verdict for r in run_battery(stream)}
        assert results["runs_median"] == FAIL
        assert results["serial_corr_lag1"] == FAIL


class TestBatteryRobustness:
    def test_short_stream_does_not_crash(self):
        results = run_battery([0.1, 0.9, 0.5])
        assert len(results) == NUM_TESTS

    def test_empty_stream(self):
        results = run_battery([])
        assert len(results) == NUM_TESTS

    def test_out_of_range_values_tolerated(self):
        stream = uniform_stream(2000, 3) + [1.5, 2.0, -0.1]
        results = run_battery(stream)
        assert all(0.0 <= r.p_value <= 1.0 for r in results)

    @given(st.lists(st.floats(min_value=0, max_value=1), max_size=50))
    @settings(max_examples=20, deadline=None)
    def test_p_values_always_valid(self, stream):
        for result in run_battery(stream):
            assert 0.0 <= result.p_value <= 1.0


class TestPermutationInsensitivity:
    """The key Table III property: reordering a uniform stream (which is
    what PBS does) leaves battery verdicts statistically unchanged."""

    def test_shifted_stream_same_summary_shape(self):
        stream = uniform_stream(6000, seed=9)
        shifted = stream[4:] + stream[:4]
        original = summarize(run_battery(stream))
        rotated = summarize(run_battery(shifted))
        assert abs(original[PASS] - rotated[PASS]) <= 2


class TestMeanInterval:
    def test_single_sample_degenerate(self):
        interval = mean_interval([3.0])
        assert interval.low == interval.high == 3.0

    def test_contains_mean(self):
        interval = mean_interval([1.0, 2.0, 3.0, 4.0])
        assert interval.low < 2.5 < interval.high

    def test_narrows_with_samples(self):
        rng = random.Random(5)
        small = mean_interval([rng.random() for _ in range(5)])
        large = mean_interval([rng.random() for _ in range(500)])
        assert (large.high - large.low) < (small.high - small.low)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_interval([])

    def test_coverage_property(self):
        """~95% of intervals over N(0,1) samples should contain 0."""
        rng = np.random.default_rng(7)
        covered = 0
        trials = 300
        for _ in range(trials):
            samples = rng.normal(0, 1, size=10)
            interval = mean_interval(list(samples))
            if interval.low <= 0.0 <= interval.high:
                covered += 1
        assert covered / trials > 0.88

    def test_zero_variance_collapses_to_point(self):
        interval = mean_interval([2.5, 2.5, 2.5, 2.5])
        assert interval.low == interval.mean == interval.high == 2.5

    def test_single_sample_keeps_confidence(self):
        interval = mean_interval([7.0], confidence=0.99)
        assert interval.confidence == 0.99
        assert interval.low == interval.high == 7.0

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.99])
    def test_width_grows_with_confidence(self, confidence):
        samples = [1.0, 2.0, 4.0, 8.0, 16.0]
        narrow = mean_interval(samples, confidence)
        wide = mean_interval(samples, 0.995)
        assert narrow.confidence == confidence
        assert (wide.high - wide.low) > (narrow.high - narrow.low)
        assert narrow.low < wide.mean < narrow.high

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_degenerate_confidence(self, confidence):
        with pytest.raises(ValueError):
            mean_interval([1.0, 2.0], confidence)

    def test_matches_scipy_reference(self):
        samples = [1.2, 3.4, 2.2, 5.6, 0.9, 4.4]
        interval = mean_interval(samples, 0.9)
        from scipy import stats as sps

        low, high = sps.t.interval(
            0.9, len(samples) - 1,
            loc=np.mean(samples),
            scale=sps.sem(samples),
        )
        assert interval.low == pytest.approx(low)
        assert interval.high == pytest.approx(high)


class TestProportionInterval:
    def test_bounds_clamped(self):
        interval = proportion_interval(0, 10)
        assert interval.low >= 0.0
        interval = proportion_interval(10, 10)
        assert interval.high <= 1.0

    def test_half(self):
        interval = proportion_interval(50, 100)
        assert interval.low < 0.5 < interval.high

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            proportion_interval(1, 0)

    def test_zero_successes_nonempty(self):
        # Wilson never collapses at the boundary: even 0/10 admits
        # some probability mass above zero.
        interval = proportion_interval(0, 10)
        assert interval.mean == 0.0
        assert interval.low == 0.0
        assert 0.0 < interval.high < 0.5

    def test_all_successes_nonempty(self):
        interval = proportion_interval(10, 10)
        assert interval.mean == 1.0
        assert interval.high == pytest.approx(1.0)
        assert 0.5 < interval.low < 1.0

    def test_boundary_symmetry(self):
        none = proportion_interval(0, 25)
        all_ = proportion_interval(25, 25)
        assert none.high == pytest.approx(1.0 - all_.low)

    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.99])
    def test_width_grows_with_confidence(self, confidence):
        narrow = proportion_interval(7, 20, confidence)
        wide = proportion_interval(7, 20, 0.995)
        assert (wide.high - wide.low) > (narrow.high - narrow.low)

    def test_rejects_out_of_range_successes(self):
        with pytest.raises(ValueError):
            proportion_interval(-1, 10)
        with pytest.raises(ValueError):
            proportion_interval(11, 10)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 2.0])
    def test_rejects_degenerate_confidence(self, confidence):
        with pytest.raises(ValueError):
            proportion_interval(5, 10, confidence)


class TestCountInterval:
    def test_clamped_to_maximum(self):
        interval = count_interval([19, 19, 19, 18], maximum=19)
        assert interval.high <= 19.0

    def test_overlap_detection(self):
        a = Interval(10, 8, 12)
        b = Interval(11, 9, 13)
        c = Interval(20, 18, 22)
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)
