"""Discrete-event simulation of the production pipeline's timing.

The paper reports a median end-to-end latency of ~7 s and a p99 of ~15 s,
and attributes "nearly all" of it to event-propagation delays in message
queues, with graph queries taking "only a few milliseconds".  We cannot run
Twitter's queues, so this package simulates them:

* :mod:`~repro.sim.des` — a classic event-heap simulator over virtual time;
* :mod:`~repro.sim.latency` — per-hop delay distributions, with a
  calibration fit to the paper's reported median/p99 (see
  :func:`~repro.sim.latency.production_queue_model`);
* :mod:`~repro.sim.metrics` — latency breakdowns and funnel counters.

What the end-to-end benchmark *verifies* is not the absolute numbers (those
are fitted) but the decomposition: measured graph-query time must be a
vanishing fraction of total latency, matching the paper's claim.
"""

from repro.sim.clock import VirtualClock
from repro.sim.des import DiscreteEventSimulator
from repro.sim.latency import (
    FixedDelay,
    LogNormalDelay,
    MultiHopDelay,
    UniformDelay,
    production_queue_model,
)
from repro.sim.metrics import FunnelCounter, LatencyBreakdown

__all__ = [
    "VirtualClock",
    "DiscreteEventSimulator",
    "FixedDelay",
    "LogNormalDelay",
    "MultiHopDelay",
    "UniformDelay",
    "production_queue_model",
    "FunnelCounter",
    "LatencyBreakdown",
]
