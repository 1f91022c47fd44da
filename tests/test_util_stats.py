"""Unit + property tests for repro.util.stats."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    OnlineStats,
    PercentileTracker,
    describe,
    percentile,
    weighted_percentile,
)

#: Finite floats small enough that ``b - a`` cannot overflow, subnormals
#: included (the interpolation's weakest spot).
finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


class TestPercentile:
    def test_matches_numpy_on_small_input(self):
        values = sorted([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        for q in (0, 10, 50, 90, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_single_element(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @example([5e-324, 5e-324])
    @example([0.1, 0.1, 0.1])
    @example([-2.5e-308, -2.5e-308, 1.0])
    def test_median_between_min_and_max(self, values):
        ordered = sorted(values)
        median = percentile(ordered, 50)
        assert ordered[0] <= median <= ordered[-1]

    def test_equal_subnormals_are_not_rounded_to_zero(self):
        # lo*(1-w) + hi*w underflows both halves to 0.0 here.
        assert percentile([5e-324, 5e-324], 50) == 5e-324

    @settings(max_examples=300)
    @given(
        st.lists(finite, min_size=1, max_size=40),
        st.floats(0.0, 100.0, allow_nan=False),
    )
    @example([5e-324, 5e-324], 50.0)
    @example([1.0, 1.0 + 2**-52], 30.0)
    def test_equals_numpy_bitwise(self, values, q):
        ordered = sorted(values)
        expected = float(np.percentile(np.asarray(ordered), q))
        got = percentile(ordered, q)
        assert got == expected
        assert ordered[0] <= got <= ordered[-1]


def expand(values, weights):
    return sorted(v for v, w in zip(values, weights) for _ in range(w))


class TestWeightedPercentile:
    @settings(max_examples=200)
    @given(
        st.lists(st.tuples(finite, st.integers(1, 6)), min_size=1, max_size=25),
        st.floats(0.0, 100.0, allow_nan=False),
    )
    def test_equals_unweighted_on_expansion(self, entries, q):
        entries.sort(key=lambda entry: entry[0])
        values = [value for value, _ in entries]
        cumulative = list(np.cumsum([weight for _, weight in entries]).tolist())
        expanded = expand(values, [weight for _, weight in entries])
        assert weighted_percentile(values, cumulative, q) == percentile(expanded, q)


class TestOnlineStats:
    def test_mean_and_variance_match_numpy(self):
        values = [1.0, 2.0, 2.0, 3.0, 8.0, -4.0]
        stats = OnlineStats()
        for v in values:
            stats.add(v)
        assert stats.count == len(values)
        assert stats.mean == pytest.approx(float(np.mean(values)))
        assert stats.variance == pytest.approx(float(np.var(values)))
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_variance_zero_before_two_samples(self):
        stats = OnlineStats()
        assert stats.variance == 0.0
        stats.add(5.0)
        assert stats.variance == 0.0
        assert stats.stddev == 0.0

    def test_merge_equals_sequential(self):
        left_values = [1.0, 5.0, 2.5]
        right_values = [9.0, -2.0, 0.0, 4.0]
        left, right, both = OnlineStats(), OnlineStats(), OnlineStats()
        for v in left_values:
            left.add(v)
            both.add(v)
        for v in right_values:
            right.add(v)
            both.add(v)
        merged = left.merge(right)
        assert merged.count == both.count
        assert merged.mean == pytest.approx(both.mean)
        assert merged.variance == pytest.approx(both.variance)
        assert merged.minimum == both.minimum
        assert merged.maximum == both.maximum

    def test_weighted_add_matches_repeated_adds(self):
        weighted, repeated = OnlineStats(), OnlineStats()
        for value, weight in ((1.0, 3), (4.0, 1), (-2.0, 5)):
            weighted.add(value, weight)
            for _ in range(weight):
                repeated.add(value)
        assert weighted.count == repeated.count == 9
        assert weighted.mean == pytest.approx(repeated.mean)
        assert weighted.variance == pytest.approx(repeated.variance)

    def test_merge_with_empty(self):
        stats = OnlineStats()
        stats.add(3.0)
        merged = stats.merge(OnlineStats())
        assert merged.count == 1
        assert merged.mean == 3.0

    @given(
        st.lists(st.floats(-1e3, 1e3), max_size=30),
        st.lists(st.floats(-1e3, 1e3), max_size=30),
    )
    def test_merge_commutative_in_mean(self, xs, ys):
        a, b = OnlineStats(), OnlineStats()
        for v in xs:
            a.add(v)
        for v in ys:
            b.add(v)
        ab, ba = a.merge(b), b.merge(a)
        assert ab.count == ba.count
        if ab.count:
            assert ab.mean == pytest.approx(ba.mean, abs=1e-9)


class TestPercentileTracker:
    def test_exact_until_cap(self):
        tracker = PercentileTracker(max_samples=100)
        for i in range(100):
            tracker.add(float(i))
        assert tracker.is_exact
        assert tracker.median() == pytest.approx(49.5)
        assert tracker.percentile(99) == pytest.approx(98.01)

    def test_reservoir_beyond_cap_stays_close(self):
        tracker = PercentileTracker(max_samples=2_000, seed=7)
        for i in range(20_000):
            tracker.add(float(i))
        assert not tracker.is_exact
        assert len(tracker) == 20_000
        # Uniform data: the median estimate should land near 10_000.
        assert tracker.median() == pytest.approx(10_000, rel=0.10)

    def test_snapshot_keys(self):
        tracker = PercentileTracker()
        for v in (1.0, 2.0, 3.0):
            tracker.add(v)
        snap = tracker.snapshot()
        assert snap["count"] == 3
        assert snap["p50"] == 2.0
        assert snap["min"] == 1.0 and snap["max"] == 3.0

    def test_empty_snapshot_and_percentile(self):
        tracker = PercentileTracker()
        assert tracker.snapshot() == {"count": 0}
        with pytest.raises(ValueError):
            tracker.median()

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            PercentileTracker(max_samples=0)

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            PercentileTracker().add(1.0, 0)

    @settings(max_examples=150)
    @given(
        st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.integers(1, 50)),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 60),
    )
    def test_weighted_equals_per_sample_while_under_cap(self, entries, cap):
        """One weighted add == *weight* unit adds: percentiles exactly,
        moments approximately, while the tracker holds <= cap entries."""
        weighted = PercentileTracker(max_samples=max(cap, len(entries)))
        per_sample = PercentileTracker(
            max_samples=sum(weight for _, weight in entries)
        )
        for value, weight in entries:
            weighted.add(value, weight)
            for _ in range(weight):
                per_sample.add(value)
        assert weighted.is_exact and per_sample.is_exact
        assert len(weighted) == len(per_sample)
        for q in (0.0, 10.0, 50.0, 90.0, 99.0, 100.0):
            assert weighted.percentile(q) == per_sample.percentile(q)
        assert weighted.stats.count == per_sample.stats.count
        assert weighted.stats.mean == pytest.approx(per_sample.stats.mean, abs=1e-6)
        assert weighted.stats.minimum == per_sample.stats.minimum
        assert weighted.stats.maximum == per_sample.stats.maximum

    def test_compaction_bounds_entries(self):
        tracker = PercentileTracker(max_samples=64, seed=3)
        for i in range(10_000):
            tracker.add(float(i % 100), 1 + i % 7)
        assert not tracker.is_exact
        assert len(tracker._values) <= 64
        assert len(tracker) == sum(1 + i % 7 for i in range(10_000))
        assert tracker.median() == pytest.approx(50.0, abs=8.0)


class TestDescribe:
    def test_fields(self):
        d = describe([4.0, 1.0, 3.0, 2.0])
        assert d.count == 4
        assert d.minimum == 1.0 and d.maximum == 4.0
        assert d.mean == pytest.approx(2.5)
        assert d.p50 == pytest.approx(2.5)
        assert math.isfinite(d.stddev)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            describe([])
