"""One benchmark repetition: the real CLI in a fresh process, instrumented.

Usage: ``python3 perfbench/child.py <spec.json>``.  The spec names the
``repro`` source directory, the CLI argv, whether to trace, and where to
write results.  The driver (``run.py``) starts one of these per
repetition.

Instrumentation is installed on the classes *before* ``cli.main`` builds
the topology, because some components bind bound methods at
construction (the detection consumer's WAL tap is
``durability.log_batch``).  Always on, tracing or not:

* ``StreamingTopology.run`` — its wall time and the ``TopologyReport``;
* ``Broker.process_event`` / ``process_batch`` — every event entering
  detection, in order, with the processing time it was detected at, and
  the moment the first one arrived (the end of set-up);
* ``ShardedServingCache.get_recommendations`` — each point read, timed.

With tracing on, coarse spans wrap the public entry points of each layer
(see ``_span_table``); nothing per candidate is ever wrapped.
"""

from __future__ import annotations

import functools
import io
import json
import sys
import time
from pathlib import Path


def _span_table():
    """``(class, method, span, counter)`` for every traced public call.

    *counter* maps ``(args, result)`` to ``{name: increment}`` and runs
    only for the outermost span of its name.
    """
    from repro.cluster.transport import (
        InProcessTransport,
        SharedMemoryTransport,
        WorkerProcessTransport,
    )
    from repro.delivery.pipeline import DeliveryPipeline
    from repro.delivery.scoring import TopKPerUserBuffer
    from repro.delivery.sharded import ShardedDeliveryPipeline
    from repro.durability.manager import DurabilityManager
    from repro.serving.cache import ShardedServingCache
    from repro.sim.des import DiscreteEventSimulator
    from repro.streaming.consumer import DeliveryCoalescer, DetectionConsumer
    from repro.streaming.queue import MessageQueue

    def events(args, _result):
        return {"cluster.events": len(args[1])}

    def event(_args, _result):
        return {"cluster.events": 1}

    def offered(args, _result):
        return {"delivery.offered": len(args[1])}

    def released(_args, result):
        return {"delivery.released": len(result)}

    def delivered(_args, result):
        return {"delivery.delivered": len(result)}

    def rows(args, _result):
        return {"serving.rows_ingested": len(args[1])}

    def reads(_args, result):
        return {"serving.reads": 1, "serving.hits": int(bool(result))}

    def publishes(_args, _result):
        return {"streaming.publishes": 1}

    table = [
        (DiscreteEventSimulator, "run", "sim.des", None),
        (DetectionConsumer, "__call__", "streaming.consumer", None),
        (DeliveryCoalescer, "__call__", "streaming.coalescer", None),
        (MessageQueue, "publish", "streaming.publish", publishes),
        (TopKPerUserBuffer, "offer_batch", "delivery.rank_offer", offered),
        (TopKPerUserBuffer, "flush", "delivery.rank_flush", released),
        (ShardedServingCache, "ingest_batch", "serving.ingest", rows),
        (ShardedServingCache, "ingest_released", "serving.ingest", rows),
        (ShardedServingCache, "get_recommendations", "serving.read", reads),
        (DurabilityManager, "log_batch", "durability.log_batch", None),
        (DurabilityManager, "snapshot", "durability.snapshot", None),
    ]
    for cls in (DeliveryPipeline, ShardedDeliveryPipeline):
        for method in ("offer_batch", "offer_all"):
            table.append((cls, method, "delivery.funnel", delivered))
    for cls in (InProcessTransport, WorkerProcessTransport, SharedMemoryTransport):
        # Only methods a class defines itself: an inherited one is
        # already wrapped on its base.
        if "submit_batch" in vars(cls):
            table.append((cls, "submit_batch", "cluster.submit", events))
        if "gather_batch" in vars(cls):
            table.append((cls, "gather_batch", "cluster.gather", None))
        if "submit_event" in vars(cls):
            table.append((cls, "submit_event", "cluster.submit", event))
        if "gather_event" in vars(cls):
            table.append((cls, "gather_event", "cluster.gather", None))
    return table


def _spanned(tracer, original, span: str, counter):
    """*original* timed as span *span* while the traced run is open."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.depth:
            # Outside the traced run (set-up, or a forked worker).
            return original(*args, **kwargs)
        outermost = not tracer.is_open(span)
        tracer.enter(span)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.exit()
        if counter is not None and outermost:
            tracer.counts.update(counter(args, result))
        return result

    return wrapper


def _install_spans(tracer) -> None:
    for cls, method, span, counter in _span_table():
        setattr(cls, method, _spanned(tracer, vars(cls)[method], span, counter))


def _install_probes(state: dict, tracer) -> None:
    """The always-on probes: run wall, detection input, read latency."""
    from repro.cluster.broker import Broker
    from repro.serving.cache import ShardedServingCache
    from repro.streaming.pipeline import StreamingTopology

    topology_init = StreamingTopology.__init__
    topology_run = StreamingTopology.run
    broker_event = Broker.process_event
    broker_batch = Broker.process_batch
    cache_get = ShardedServingCache.get_recommendations
    detected: list = state["detected"]
    reads: list = state["reads_ns"]
    perf_ns = time.perf_counter_ns

    @functools.wraps(topology_init)
    def init(self, cluster, *args, **kwargs):
        state["cluster"] = cluster
        topology_init(self, cluster, *args, **kwargs)

    @functools.wraps(topology_run)
    def run(self, events):
        if tracer is not None:
            tracer.enter("topology.run")
        started = state["run_started"] = time.perf_counter()
        try:
            report = topology_run(self, events)
        finally:
            state["run_wall_s"] = time.perf_counter() - started
            if tracer is not None:
                tracer.exit()
        state["topology"] = self
        state["report"] = report
        return report

    def record(events, now) -> None:
        if not detected:
            state["first_event_monotonic"] = time.monotonic()
        detected.append((events, now, time.perf_counter()))

    @functools.wraps(broker_event)
    def process_event(self, event, now=None):
        record([event], now)
        return broker_event(self, event, now=now)

    @functools.wraps(broker_batch)
    def process_batch(self, batch, now=None):
        record(batch, now)
        return broker_batch(self, batch, now=now)

    @functools.wraps(cache_get)
    def get(self, *args, **kwargs):
        started = perf_ns()
        result = cache_get(self, *args, **kwargs)
        reads.append(perf_ns() - started)
        return result

    StreamingTopology.__init__ = init
    StreamingTopology.run = run
    Broker.process_event = process_event
    Broker.process_batch = process_batch
    ShardedServingCache.get_recommendations = get


def _summarize(state: dict, tracer) -> dict:
    report = state["report"]
    topology = state["topology"]
    result = {
        "run_wall_s": state["run_wall_s"],
        "first_event_monotonic": state["first_event_monotonic"],
        "events_ingested": report.events_ingested,
        "candidates_detected": report.candidates_detected,
        "notifications": len(report.notifications),
        "events_shed": topology.consumer.events_shed,
        "partitions_lost_events": state["cluster"].broker.stats.partitions_lost_events,
        "shard_lost_candidates": getattr(
            topology.delivery, "notifications_lost_shards", 0
        ),
        "queries_issued": topology.query_load.queries_issued,
    }
    if topology.durability is not None:
        stats = topology.durability.stats()
        result["wal_bytes"] = stats["wal_bytes"]
        result["snapshots"] = stats["snapshot_count"]
    if tracer is not None:
        result["trace"] = {
            "inclusive": dict(tracer.inclusive),
            "self": dict(tracer.self_time),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
        }
    return result


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import numpy as np

    from measure import Tracer
    from repro import cli

    tracer = Tracer() if spec["trace"] else None
    state: dict = {"detected": [], "reads_ns": []}
    if tracer is not None:
        _install_spans(tracer)
    _install_probes(state, tracer)
    code = cli.main(spec["argv"], out=io.StringIO())
    if code != 0:
        return code
    calls, events, nows, call_wall = [], [], [], []
    for call, (batch, now, at) in enumerate(state["detected"]):
        batch_events = batch if isinstance(batch, list) else batch.to_events()
        events.extend(batch_events)
        calls.extend([call] * len(batch_events))
        nows.extend([now] * len(batch_events))
        call_wall.append(at - state["run_started"])
    np.savez(
        spec["arrays"],
        reads_ns=np.asarray(state["reads_ns"], dtype=np.int64),
        call_wall=np.asarray(call_wall, dtype=np.float64),
        call=np.asarray(calls, dtype=np.int64),
        now=np.asarray(nows, dtype=np.float64),
        created_at=np.asarray([e.created_at for e in events], dtype=np.float64),
        actor=np.asarray([e.actor for e in events], dtype=np.int64),
        target=np.asarray([e.target for e in events], dtype=np.int64),
        action=np.asarray([e.action.value for e in events], dtype=str),
    )
    Path(spec["result"]).write_text(json.dumps(_summarize(state, tracer)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
