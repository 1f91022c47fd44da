"""A minimal, deterministic discrete-event simulator.

Callbacks are executed in timestamp order (FIFO among ties, via a
monotonically increasing sequence number), advancing a shared
:class:`~repro.sim.clock.VirtualClock`.  Virtual time never sleeps, so a
simulated hour of queue traffic runs in milliseconds of wall time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.sim.clock import VirtualClock


class DiscreteEventSimulator:
    """Event-heap simulation over virtual time.

    The heap holds plain ``(time, sequence, action)`` tuples: the unique
    sequence number breaks time ties FIFO, so tuple comparison never
    reaches the action and runs entirely in C.
    """

    def __init__(self, clock: VirtualClock | None = None) -> None:
        self.clock = clock or VirtualClock()
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self.events_executed = 0

    def schedule_at(self, timestamp: float, action: Callable[[], None]) -> None:
        """Run *action* at absolute virtual time *timestamp*."""
        if timestamp < self.clock.now():
            raise ValueError(
                f"cannot schedule in the past: {timestamp} < {self.clock.now()}"
            )
        heapq.heappush(self._heap, (timestamp, next(self._sequence), action))

    def schedule_after(self, delay: float, action: Callable[[], None]) -> None:
        """Run *action* after *delay* seconds of virtual time."""
        if delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        heapq.heappush(
            self._heap,
            (self.clock.now() + delay, next(self._sequence), action),
        )

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def step(self) -> bool:
        """Execute the next event; returns False when the heap is empty."""
        if not self._heap:
            return False
        timestamp, _, action = heapq.heappop(self._heap)
        self.clock.advance_to(timestamp)
        action()
        self.events_executed += 1
        return True

    def run(self, until: float | None = None) -> None:
        """Drain the heap, optionally stopping once virtual time passes *until*.

        Events scheduled *by* executed events are honoured, so cascades
        (queue hop -> consumer -> next queue hop) play out naturally.
        """
        heap = self._heap
        advance_to = self.clock.advance_to
        pop = heapq.heappop
        while heap:
            if until is not None and heap[0][0] > until:
                break
            timestamp, _, action = pop(heap)
            advance_to(timestamp)
            action()
            self.events_executed += 1
