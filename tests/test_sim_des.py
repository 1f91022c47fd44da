"""Unit tests for the virtual clock, event simulator, and latency models."""

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.des import DiscreteEventSimulator
from repro.sim.latency import (
    FixedDelay,
    LogNormalDelay,
    MultiHopDelay,
    UniformDelay,
    production_queue_model,
)
from repro.util.rng import make_rng
from repro.util.stats import describe


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_advance(self):
        clock = VirtualClock(5.0)
        clock.advance_to(9.0)
        assert clock.now() == 9.0
        clock.advance_by(1.0)
        assert clock.now() == 10.0

    def test_no_time_travel(self):
        clock = VirtualClock(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)
        with pytest.raises(ValueError):
            clock.advance_by(-1.0)


class TestSimulator:
    def test_executes_in_time_order(self):
        sim = DiscreteEventSimulator()
        order = []
        sim.schedule_at(3.0, lambda: order.append("c"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.clock.now() == 3.0
        assert sim.events_executed == 3

    def test_fifo_among_ties(self):
        sim = DiscreteEventSimulator()
        order = []
        for i in range(5):
            sim.schedule_at(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_fifo_among_many_ties(self):
        # 10k same-time events: the sequence number alone orders them, so
        # the heap never compares two actions.
        sim = DiscreteEventSimulator()
        order = []
        for i in range(10_000):
            sim.schedule_at(5.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10_000))
        assert sim.clock.now() == 5.0

    def test_rejects_past_schedules(self):
        sim = DiscreteEventSimulator()
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_after(-0.5, lambda: None)

    def test_cascading_schedules(self):
        sim = DiscreteEventSimulator()
        seen = []

        def first():
            seen.append(("first", sim.clock.now()))
            sim.schedule_after(2.0, second)

        def second():
            seen.append(("second", sim.clock.now()))

        sim.schedule_at(1.0, first)
        sim.run()
        assert seen == [("first", 1.0), ("second", 3.0)]

    def test_run_until(self):
        sim = DiscreteEventSimulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.pending() == 1
        sim.run()
        assert fired == [1, 10]

    def test_cannot_schedule_in_past(self):
        sim = DiscreteEventSimulator(VirtualClock(10.0))
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_after(-1.0, lambda: None)

    def test_step_on_empty_heap(self):
        assert DiscreteEventSimulator().step() is False


class TestDelayModels:
    def test_fixed(self):
        assert FixedDelay(1.5)() == 1.5
        with pytest.raises(ValueError):
            FixedDelay(-1.0)

    def test_uniform_bounds(self):
        model = UniformDelay(1.0, 2.0, make_rng(1))
        samples = [model() for _ in range(500)]
        assert all(1.0 <= s <= 2.0 for s in samples)
        with pytest.raises(ValueError):
            UniformDelay(2.0, 1.0, make_rng(1))

    def test_lognormal_median(self):
        model = LogNormalDelay(median=4.0, sigma=0.5, rng=make_rng(2))
        samples = sorted(model() for _ in range(20_000))
        assert samples[len(samples) // 2] == pytest.approx(4.0, rel=0.05)
        assert all(s > 0 for s in samples)

    def test_multi_hop_sums(self):
        model = MultiHopDelay([FixedDelay(1.0), FixedDelay(2.0)])
        assert model() == 3.0
        with pytest.raises(ValueError):
            MultiHopDelay([])

    def test_production_model_matches_paper_percentiles(self):
        """The calibrated model must land near 7 s median / 15 s p99."""
        model = production_queue_model(make_rng(3))
        stats = describe([model() for _ in range(30_000)])
        assert stats.p50 == pytest.approx(7.0, rel=0.1)
        assert stats.p99 == pytest.approx(15.0, rel=0.12)
