"""Tests for the benchmark's own measurement helpers (``measure.py``).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

from collections import Counter

import pytest

from measure import (
    Tracer,
    ledger_difference,
    ledger_within_slack,
    median_composed,
    percentile,
    rank_of,
    samples_beyond,
    summarize,
    window_durations,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_span_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("root")          # t=0
    clock.now = 1.0
    tracer.enter("a")             # a: 1..4, with child b: 2..3
    clock.now = 2.0
    tracer.enter("b")
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.exit()
    clock.now = 6.0
    tracer.enter("b")             # b again, directly under root: 6..6.5
    clock.now = 6.5
    tracer.exit()
    clock.now = 10.0
    tracer.exit()
    assert tracer.inclusive == {"root": 10.0, "a": 3.0, "b": 1.5}
    assert tracer.self_time == {"root": 6.5, "a": 2.0, "b": 1.5}
    assert tracer.calls == {"root": 1, "a": 1, "b": 2}
    # The self times of all spans sum to the root's wall time.
    assert sum(tracer.self_time.values()) == pytest.approx(tracer.inclusive["root"])


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("funnel")
    clock.now = 1.0
    tracer.enter("funnel")
    assert tracer.is_open("funnel") and tracer.depth == 2
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.exit()
    assert not tracer.is_open("funnel")
    assert tracer.inclusive["funnel"] == 4.0
    assert tracer.self_time["funnel"] == 4.0
    assert tracer.calls["funnel"] == 2


def test_nearest_rank_and_samples_beyond():
    assert rank_of(50.0, 10) == 4
    assert rank_of(99.9, 10_000) == 9_989
    assert samples_beyond(99.9, 10_000) == 10
    assert samples_beyond(99.9, 9_999) == 9
    assert percentile([1, 2, 3, 4], 50.0) == 2.0
    assert percentile(list(range(1, 101)), 99.0) == 99.0


def test_summarize_reports_median_tail_and_count():
    values = [float(v) for v in range(10_000, 0, -1)]
    summary = summarize(values, 99.9)
    assert summary == {"p50": 5_000.0, "tail": 9_990.0, "n": 10_000}
    with pytest.raises(ValueError):
        summarize(values[:-1], 99.9)
    with pytest.raises(ValueError):
        summarize([], 50.0)


def test_ledger_difference_is_a_multiset_difference():
    reference = Counter({("1", "7", "0.5"): 2, ("2", "7", "0.5"): 1})
    got = Counter({("1", "7", "0.5"): 1, ("3", "8", "1.0"): 1})
    assert ledger_difference(reference, got) == (2, 1)
    assert ledger_difference(reference, reference) == (0, 0)


def test_ledger_slack_bound():
    reference = Counter({(str(i), "1", "0.0"): 1 for i in range(100)})
    got = reference.copy()
    del got[("0", "1", "0.0")]
    got[("x", "1", "0.0")] = 1
    # Two rows differ out of 100: inside a 2% slack, outside 1%.
    assert ledger_within_slack(reference, got, 0.02)
    assert not ledger_within_slack(reference, got, 0.01)
    assert ledger_within_slack(reference, reference, 0.0)
    assert not ledger_within_slack(reference, Counter(), 1.0)
    assert not ledger_within_slack(Counter(), Counter(), 1.0)


def test_window_durations_cut_at_equal_event_shares():
    # Four calls of 2, 2, 4 and 4 events at t = 0, 1, 2, 5; run ends at 8.
    times = [0.0, 1.0, 2.0, 5.0]
    sizes = [2, 2, 4, 4]
    # 12 events: halves cut at the first call with 6 events before it.
    assert window_durations(times, sizes, 8.0, 2) == [5.0, 3.0]
    # Quarters: the calls with at least 3, 6 and 9 events before them.
    assert window_durations(times, sizes, 8.0, 4) == [2.0, 3.0, 0.0, 3.0]
    assert sum(window_durations(times, sizes, 8.0, 7)) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        window_durations([], [], 1.0, 2)


def test_median_composed_drops_a_burst_in_one_repetition():
    quiet = [1.0, 1.0, 1.0]
    burst = [1.0, 9.0, 1.0]
    composed = median_composed([quiet, burst, [1.2, 1.1, 0.9]])
    assert composed == [1.0, 1.1, 1.0]
    # Unequal lengths compare over the common prefix.
    assert median_composed([[1.0, 2.0], [3.0]]) == [2.0]
