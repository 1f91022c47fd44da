"""Unit tests for latency breakdowns and funnel counters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import FunnelCounter, LatencyBreakdown


class TestLatencyBreakdown:
    def test_stage_registration_lazy(self):
        breakdown = LatencyBreakdown()
        assert breakdown.stages() == []
        breakdown.record("queue:firehose", 2.0)
        breakdown.record("detection", 0.002)
        assert breakdown.stages() == ["queue:firehose", "detection"]

    def test_share_of_total(self):
        breakdown = LatencyBreakdown()
        for _ in range(10):
            breakdown.record("queue", 9.0)
            breakdown.record("detection", 1.0)
            breakdown.record_total(10.0)
        assert breakdown.share_of_total("queue") == pytest.approx(0.9)
        assert breakdown.share_of_total("detection") == pytest.approx(0.1)

    def test_share_requires_totals(self):
        breakdown = LatencyBreakdown()
        breakdown.record("queue", 1.0)
        with pytest.raises(ValueError):
            breakdown.share_of_total("queue")

    def test_summary_structure(self):
        breakdown = LatencyBreakdown()
        breakdown.record("queue", 1.0)
        breakdown.record_total(2.0)
        summary = breakdown.summary()
        assert set(summary) == {"total", "queue"}
        assert summary["queue"]["count"] == 1
        assert summary["total"]["p50"] == 2.0

    def test_unknown_stage_raises(self):
        with pytest.raises(KeyError):
            LatencyBreakdown().stage("nope")


class TestRecentWindow:
    """The controller's tick-to-tick p99 signal over record_total."""

    def test_empty_window_is_none(self):
        # None (nothing delivered since the last tick) must be
        # distinguishable from 0.0 — it never counts as an SLO breach.
        breakdown = LatencyBreakdown()
        assert breakdown.recent_p99() is None

    def test_p99_over_samples_since_last_drain(self):
        breakdown = LatencyBreakdown()
        for value in (1.0, 2.0, 3.0, 4.0):
            breakdown.record_total(value)
        assert breakdown.recent_p99() == pytest.approx(4.0, rel=0.05)

    def test_drain_resets_the_window(self):
        breakdown = LatencyBreakdown()
        breakdown.record_total(10.0)
        assert breakdown.recent_p99() is not None
        assert breakdown.recent_p99() is None  # window consumed
        breakdown.record_total(2.0)
        assert breakdown.recent_p99() == pytest.approx(2.0)

    def test_window_is_bounded(self):
        breakdown = LatencyBreakdown()
        for _ in range(LatencyBreakdown.RECENT_WINDOW * 2):
            breakdown.record_total(1.0)
        assert len(breakdown.drain_recent_totals()) == LatencyBreakdown.RECENT_WINDOW

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 100.0), st.integers(1, 3_000)),
            min_size=1,
            max_size=12,
        )
    )
    def test_weighted_totals_equal_per_sample_recording(self, entries):
        """record_total(v, w) == w x record_total(v): the same recent
        window (its newest RECENT_WINDOW unit samples) and p99, and the
        same whole-run percentiles."""
        weighted, per_sample = LatencyBreakdown(), LatencyBreakdown()
        for value, weight in entries:
            weighted.record_total(value, weight)
            weighted.record("stage", value, weight)
            for _ in range(weight):
                per_sample.record_total(value)
                per_sample.record("stage", value)
        # At most 36k unit samples: both trackers are under their cap.
        for q in (50.0, 90.0, 99.0):
            assert weighted.total.percentile(q) == per_sample.total.percentile(q)
            assert weighted.stage("stage").percentile(q) == (
                per_sample.stage("stage").percentile(q)
            )
        assert weighted.recent_p99() == per_sample.recent_p99()

    def test_weighted_window_keeps_newest_units(self):
        breakdown = LatencyBreakdown()
        window = LatencyBreakdown.RECENT_WINDOW
        breakdown.record_total(1.0, window - 10)
        breakdown.record_total(2.0, 30)
        drained = breakdown.drain_recent_totals()
        assert drained == [1.0] * (window - 30) + [2.0] * 30

    def test_total_percentiles_unaffected_by_drain(self):
        breakdown = LatencyBreakdown()
        for value in (1.0, 2.0, 3.0):
            breakdown.record_total(value)
        breakdown.recent_p99()
        assert breakdown.total.percentile(50) == 2.0


class TestFunnelCounter:
    def test_counts_and_rows(self):
        funnel = FunnelCounter()
        funnel.count("raw", 1_000)
        funnel.count("passed:dedup", 100)
        funnel.count("delivered", 10)
        assert funnel.get("raw") == 1_000
        assert funnel.as_rows()[0] == ("raw", 1_000)

    def test_reduction_ratio(self):
        funnel = FunnelCounter()
        funnel.count("raw", 5_000)
        funnel.count("delivered", 5)
        assert funnel.reduction_ratio() == 1_000.0

    def test_reduction_ratio_no_survivors(self):
        funnel = FunnelCounter()
        funnel.count("raw", 10)
        assert funnel.reduction_ratio() == float("inf")

    def test_survival_rate(self):
        funnel = FunnelCounter()
        funnel.count("raw", 200)
        funnel.count("delivered", 50)
        assert funnel.survival_rate("raw", "delivered") == 0.25
        assert funnel.survival_rate("missing", "delivered") == 0.0

    def test_incremental_counting(self):
        funnel = FunnelCounter()
        for _ in range(5):
            funnel.count("raw")
        assert funnel.get("raw") == 5
