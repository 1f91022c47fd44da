"""Streaming statistics used by the metrics layer and the benchmarks.

``OnlineStats`` implements Welford's algorithm for numerically-stable running
mean/variance.  ``PercentileTracker`` keeps exact weighted entries up to a
bound and compacts neighbouring entries beyond it, which is accurate enough
for the latency distributions reported in the paper (median / p99 over tens of
thousands of events) while keeping memory constant.  Both take a weight, so
a batch of candidates sharing one latency is one call, not one per
candidate.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.util.validation import require, require_positive


def _lerp(lower: float, upper: float, weight: float) -> float:
    """Interpolate *weight* of the way from *lower* to *upper*.

    numpy's ``_lerp`` form: anchored at whichever end is nearer, so the
    result never leaves ``[lower, upper]`` (``lower * (1 - w) + upper * w``
    can, by an ulp, and returns 0.0 for two equal subnormals).
    """
    diff = upper - lower
    if weight >= 0.5:
        return upper - diff * (1.0 - weight)
    return lower + diff * weight


def percentile(sorted_values: list[float], q: float) -> float:
    """Return the *q*-th percentile (0..100) of an already-sorted list.

    Uses linear interpolation between closest ranks, matching
    ``numpy.percentile``'s default behaviour bit for bit, so tests can
    cross-check against numpy.
    """
    return weighted_percentile(sorted_values, range(1, len(sorted_values) + 1), q)


def weighted_percentile(
    sorted_values: list[float], cumulative_weights: Sequence[int], q: float
) -> float:
    """:func:`percentile` of the list that repeats each value by its weight.

    ``cumulative_weights[i]`` is the total weight of ``sorted_values[:i +
    1]``.  The rank is taken on the expanded list, so the result equals
    :func:`percentile` of that list exactly.
    """
    require(0.0 <= q <= 100.0, f"percentile q must be in [0, 100], got {q}")
    require(len(sorted_values) > 0, "percentile of empty data is undefined")
    rank = (q / 100.0) * (cumulative_weights[-1] - 1)
    lower = math.floor(rank)
    weight = rank - lower
    below = sorted_values[bisect.bisect_right(cumulative_weights, lower)]
    if weight == 0.0:
        return below
    above = sorted_values[bisect.bisect_right(cumulative_weights, lower + 1)]
    return _lerp(below, above, weight)


class OnlineStats:
    """Running count / mean / variance / min / max via Welford's algorithm."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float, weight: int = 1) -> None:
        """Fold *weight* observations of *value* into the statistics."""
        self.count += weight
        delta = value - self.mean
        self.mean += delta * weight / self.count
        self._m2 += delta * (value - self.mean) * weight
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Population variance (0.0 until two observations arrive)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new ``OnlineStats`` combining *self* and *other*.

        Uses the parallel-variance (Chan et al.) merge so partition-local
        statistics can be gathered by a broker without losing precision.
        """
        merged = OnlineStats()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other.mean - self.mean
        merged.mean = self.mean + delta * other.count / merged.count
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged


class PercentileTracker:
    """Collect weighted observations and answer percentile queries.

    Each :meth:`add` stores one ``(value, weight)`` entry standing for
    *weight* identical observations.  While at most ``max_samples``
    entries are held, every percentile equals the one over the
    per-observation expansion exactly.  Past that the tracker compacts:
    it sorts its entries and merges neighbouring pairs into one entry
    carrying both weights (the heavier value survives; a seeded coin
    picks on equal weights, so unit samples stay unbiased), which keeps
    memory bounded and each merge's rank error within one pair's weight.
    """

    def __init__(self, max_samples: int = 100_000, seed: int = 0) -> None:
        require_positive(max_samples, "max_samples")
        self._max_samples = max_samples
        self._values: list[float] = []
        self._weights: list[int] = []
        self._seen = 0
        self._compacted = False
        self._rng = random.Random(seed)
        self.stats = OnlineStats()

    def add(self, value: float, weight: int = 1) -> None:
        """Record *weight* (>= 1) observations of *value*."""
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        self._seen += weight
        self.stats.add(value, weight)
        self._values.append(value)
        self._weights.append(weight)
        if len(self._values) > self._max_samples:
            self._compact()

    def _compact(self) -> None:
        """Halve the entries by merging sorted neighbours pairwise."""
        values, weights = self._sorted()
        upper_on_tie = self._rng.random() < 0.5
        merged_values: list[float] = []
        merged_weights: list[int] = []
        for i in range(0, len(values) - 1, 2):
            low, high = weights[i], weights[i + 1]
            keep_high = high > low or (high == low and upper_on_tie)
            merged_values.append(values[i + 1] if keep_high else values[i])
            merged_weights.append(low + high)
        if len(values) % 2:
            merged_values.append(values[-1])
            merged_weights.append(weights[-1])
        self._values, self._weights = merged_values, merged_weights
        self._compacted = True

    def _sorted(self) -> tuple[list[float], list[int]]:
        """The entries' values and weights, sorted by value."""
        order = sorted(range(len(self._values)), key=self._values.__getitem__)
        return (
            [self._values[i] for i in order],
            [self._weights[i] for i in order],
        )

    def _quantiles(self, *qs: float) -> list[float]:
        values, weights = self._sorted()
        cumulative = list(itertools.accumulate(weights))
        return [weighted_percentile(values, cumulative, q) for q in qs]

    def __len__(self) -> int:
        return self._seen

    @property
    def is_exact(self) -> bool:
        """True while no entries have been merged."""
        return not self._compacted

    def percentile(self, q: float) -> float:
        """Return the *q*-th percentile (0..100) of observations so far."""
        require(self._seen > 0, "no observations recorded")
        return self._quantiles(q)[0]

    def median(self) -> float:
        """Convenience alias for the 50th percentile."""
        return self.percentile(50.0)

    def snapshot(self) -> dict[str, float]:
        """Summary dict: count, mean, min, max, p50, p90, p99."""
        if self._seen == 0:
            return {"count": 0}
        p50, p90, p99 = self._quantiles(50.0, 90.0, 99.0)
        return {
            "count": float(self._seen),
            "mean": self.stats.mean,
            "min": self.stats.minimum,
            "max": self.stats.maximum,
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }


@dataclass
class Description:
    """Plain summary of a data set, as returned by :func:`describe`."""

    count: int
    mean: float
    stddev: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float
    extras: dict[str, float] = field(default_factory=dict)


def describe(values: list[float]) -> Description:
    """Return a :class:`Description` of *values* (must be non-empty)."""
    require(len(values) > 0, "describe() of empty data is undefined")
    ordered = sorted(values)
    stats = OnlineStats()
    for value in values:
        stats.add(value)
    return Description(
        count=stats.count,
        mean=stats.mean,
        stddev=stats.stddev,
        minimum=ordered[0],
        p50=percentile(ordered, 50.0),
        p90=percentile(ordered, 90.0),
        p99=percentile(ordered, 99.0),
        maximum=ordered[-1],
    )
