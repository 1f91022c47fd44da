"""Pure measurement helpers shared by the benchmark driver and its child.

Nothing here imports the program under test, so the helpers are unit
tested on their own (``test_perfbench.py``).
"""

from __future__ import annotations

import bisect
import math
import time
from collections import Counter
from statistics import median
from typing import Callable, Iterable, Sequence

#: A tail percentile must leave at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10



# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

def rank_of(q: float, n: int) -> int:
    """Nearest-rank index (0-based) of percentile *q* in *n* sorted samples."""
    if n <= 0:
        raise ValueError("no samples")
    # Rounding first keeps 99.9 * 10_000 / 100 from ceiling to 9_991.
    return min(n - 1, max(0, math.ceil(round(q * n / 100.0, 9)) - 1))


def samples_beyond(q: float, n: int) -> int:
    """How many of *n* sorted samples lie strictly above percentile *q*."""
    return n - 1 - rank_of(q, n)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    return float(sorted_values[rank_of(q, len(sorted_values))])


def summarize(values: Iterable[float], tail_q: float) -> dict[str, float]:
    """Median and percentile *tail_q* of *values*, with the sample count.

    Raises ``ValueError`` when fewer than ``MIN_SAMPLES_BEYOND`` samples
    lie beyond *tail_q*: such a tail would rest on a handful of points.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0 or samples_beyond(tail_q, n) < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{tail_q} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"only {n} samples"
        )
    return {
        "p50": percentile(ordered, 50.0),
        "tail": percentile(ordered, tail_q),
        "n": n,
    }


# ----------------------------------------------------------------------
# Repetitions of identical work
# ----------------------------------------------------------------------

def window_durations(
    call_times: Sequence[float],
    call_sizes: Sequence[int],
    total: float,
    windows: int,
) -> list[float]:
    """Cut one run into *windows* slices of equal event counts; their wall times.

    *call_times* are the moments (seconds since the run started) at
    which successive detection calls began and *call_sizes* the events
    each carried; *total* is the run's wall time.  A slice starts at the
    first call by which its share of the events has been reached, so
    repetitions of the same input are cut at the same points.
    """
    if windows < 1 or not call_times:
        raise ValueError("need at least one window and one call")
    before: list[int] = []
    seen = 0
    for size in call_sizes:
        before.append(seen)
        seen += size
    cuts = [0.0]
    for k in range(1, windows):
        index = min(bisect.bisect_left(before, k * seen / windows), len(call_times) - 1)
        cuts.append(call_times[index])
    cuts.append(total)
    return [end - start for start, end in zip(cuts, cuts[1:])]


def median_composed(per_rep: Sequence[Sequence[float]]) -> list[float]:
    """Element-wise median across repetitions (over their common length).

    Every repetition does the same work in the same order, so the i-th
    element is the same unit of work in each; its median drops a noise
    burst that hit only some repetitions.
    """
    return [median(column) for column in zip(*per_rep)]


# ----------------------------------------------------------------------
# Delivered-ledger comparison
# ----------------------------------------------------------------------

def ledger_difference(reference: Counter, got: Counter) -> tuple[int, int]:
    """``(missing, unexpected)`` row counts between two ledger multisets."""
    missing = sum((reference - got).values())
    unexpected = sum((got - reference).values())
    return missing, unexpected


def ledger_within_slack(reference: Counter, got: Counter, slack: float) -> bool:
    """True when the symmetric difference is at most *slack* of the reference.

    Both ledgers must be non-empty: an empty run never matches.
    """
    ref_rows = sum(reference.values())
    if ref_rows == 0 or not got:
        return False
    missing, unexpected = ledger_difference(reference, got)
    return missing + unexpected <= slack * ref_rows


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------

class Tracer:
    """Nested wall-clock spans with per-name inclusive and self time.

    A span's self time is its duration minus the time its direct child
    spans cover.  Inclusive time counts only the outermost span of each
    name, so a recursive call into the same layer is not counted twice.
    Spans and counters stay in memory until the run writes them out.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Open spans as ``[name, start, child_seconds]``.
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    @property
    def depth(self) -> int:
        """Number of spans currently open."""
        return len(self._stack)

    def is_open(self, name: str) -> bool:
        """True while a span called *name* is open."""
        return self._open[name] > 0

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])
        self._open[name] += 1

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self._clock() - start
        self._open[name] -= 1
        self.self_time[name] += duration - child
        if not self._open[name]:
            self.inclusive[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
