"""Virtual time for the discrete-event simulator."""

from __future__ import annotations

from repro.util.validation import require


class VirtualClock:
    """A monotonically nondecreasing simulated clock (seconds)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def advance_to(self, timestamp: float) -> None:
        """Jump to *timestamp*; rejects travel into the past."""
        if timestamp < self._now:
            raise ValueError(
                f"clock cannot go backwards: {timestamp} < {self._now}"
            )
        self._now = timestamp

    def advance_by(self, delta: float) -> None:
        """Advance by a non-negative *delta* seconds."""
        require(delta >= 0.0, f"delta must be non-negative, got {delta}")
        self._now += delta
