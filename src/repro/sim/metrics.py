"""Latency breakdowns and funnel counters for the simulated pipeline."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.util.stats import PercentileTracker, percentile
from repro.util.validation import require


class LatencyBreakdown:
    """Per-stage latency trackers plus the end-to-end total.

    Stages are registered lazily on first use, so the pipeline code simply
    calls ``record("queue:firehose", delay)`` and the breakdown takes shape
    from whatever stages actually ran.

    Alongside the whole-run trackers, a small bounded window of the most
    recent totals feeds the adaptive controller: each tick *drains* the
    window (:meth:`drain_recent_totals`), so the SLO decision always sees
    only latencies observed since the last tick — stale breach samples
    can never pin the controller in shed mode after the flow recovers.
    """

    #: Upper bound on per-tick totals (unit samples) retained for the
    #: recent window.
    RECENT_WINDOW = 4096

    def __init__(self) -> None:
        self.total = PercentileTracker()
        self._stages: dict[str, PercentileTracker] = {}
        #: (seconds, weight) entries holding the newest RECENT_WINDOW
        #: unit samples at most.
        self._recent_totals: deque[list] = deque()
        self._recent_weight = 0

    def record(self, stage: str, seconds: float, weight: int = 1) -> None:
        """Add *weight* observations of *seconds* for *stage*."""
        tracker = self._stages.get(stage)
        if tracker is None:
            tracker = PercentileTracker()
            self._stages[stage] = tracker
        tracker.add(seconds, weight)

    def record_total(self, seconds: float, weight: int = 1) -> None:
        """Add *weight* end-to-end observations of *seconds*."""
        self.total.add(seconds, weight)
        recent = self._recent_totals
        recent.append([seconds, weight])
        self._recent_weight += weight
        excess = self._recent_weight - self.RECENT_WINDOW
        while excess > 0:  # forget the oldest unit samples
            oldest = recent[0]
            dropped = min(oldest[1], excess)
            oldest[1] -= dropped
            if not oldest[1]:
                recent.popleft()
            self._recent_weight -= dropped
            excess -= dropped

    def drain_recent_totals(self) -> list[float]:
        """Take (and clear) the end-to-end totals since the last drain,
        one entry per unit sample."""
        drained = [
            seconds for seconds, weight in self._recent_totals
            for _ in range(weight)
        ]
        self._recent_totals.clear()
        self._recent_weight = 0
        return drained

    def recent_p99(self) -> float | None:
        """p99 of the totals since the last drain — drains the window.

        Returns ``None`` when nothing was delivered in the window; a
        silent pipeline carries no latency evidence either way.
        """
        drained = self.drain_recent_totals()
        if not drained:
            return None
        return percentile(sorted(drained), 99.0)

    def stages(self) -> list[str]:
        """Registered stage names, insertion-ordered."""
        return list(self._stages)

    def stage(self, name: str) -> PercentileTracker:
        """The tracker for *name* (KeyError if the stage never ran)."""
        return self._stages[name]

    def share_of_total(self, stage: str) -> float:
        """Mean fraction of total latency attributable to *stage*."""
        require(len(self.total) > 0, "no totals recorded")
        total_mean = self.total.stats.mean
        if total_mean == 0:
            return 0.0
        return self._stages[stage].stats.mean / total_mean

    def summary(self) -> dict[str, dict[str, float]]:
        """Snapshot dict: stage -> {count, mean, p50, p90, p99, ...}."""
        out = {"total": self.total.snapshot()}
        for name, tracker in self._stages.items():
            out[name] = tracker.snapshot()
        return out


@dataclass
class FunnelCounter:
    """Counts flowing through the candidate -> notification funnel.

    ``stages`` maps stage name -> items *surviving* that stage; the input
    count is recorded under ``"raw"``.
    """

    stages: dict[str, int] = field(default_factory=dict)

    def count(self, stage: str, increment: int = 1) -> None:
        """Add *increment* survivors at *stage*."""
        self.stages[stage] = self.stages.get(stage, 0) + increment

    def get(self, stage: str) -> int:
        """Survivor count at *stage* (0 if never counted)."""
        return self.stages.get(stage, 0)

    def reduction_ratio(self, from_stage: str = "raw", to_stage: str = "delivered") -> float:
        """How many *from_stage* items it takes to yield one *to_stage* item."""
        survivors = self.get(to_stage)
        if survivors == 0:
            return float("inf")
        return self.get(from_stage) / survivors

    def survival_rate(self, from_stage: str, to_stage: str) -> float:
        """Fraction of *from_stage* items that survive to *to_stage*."""
        upstream = self.get(from_stage)
        if upstream == 0:
            return 0.0
        return self.get(to_stage) / upstream

    def as_rows(self) -> list[tuple[str, int]]:
        """(stage, count) rows in insertion order, for reports."""
        return list(self.stages.items())
