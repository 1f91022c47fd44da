"""Query surfaces over the serving cache.

Two front doors onto one read path:

* :class:`ServingFrontend` — a thin asyncio TCP server speaking a
  line-oriented protocol (``GET <user> [k]`` -> one JSON line), the shape
  a production edge service would wrap around the cache.  The cache read
  itself is lock-free and microseconds-scale, so the server never hands
  it off to an executor — the event loop *is* the read thread, and the
  writer never blocks it.
* :class:`QueryLoadGenerator` — the simulated counterpart: point queries
  scheduled on the topology's virtual clock (zipf-skewed users, fixed
  QPS), timing each lookup in *wall-clock* microseconds so the mixed
  read/write runs report real read latency under live ingest, not
  simulated latency.

Both consume anything with the ``get_recommendations(user, k)`` /
``hit_rate`` surface — a single :class:`~repro.serving.cache.ServingCache`
or the sharded wrapper.
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING

from repro.gen.zipf import ZipfSampler
from repro.util.rng import make_rng
from repro.util.validation import require_non_negative, require_positive

if TYPE_CHECKING:
    import asyncio

    from repro.serving.cache import ServedRecommendation, ServingCache
    from repro.sim.des import DiscreteEventSimulator
    from repro.sim.metrics import LatencyBreakdown

__all__ = ["QueryLoadGenerator", "ServingFrontend"]

#: Latency-breakdown stage the query generator records reads under.
READ_STAGE = "serving:read"


class ServingFrontend:
    """Asyncio TCP front-end answering point queries off the serving cache.

    Protocol (newline-delimited, UTF-8):

    * ``GET <user> [k]`` — one JSON reply line
      ``{"user": ..., "recommendations": [[candidate, score, created_at],
      ...]}``;
    * ``STATS`` — one JSON line of cache gauges (users cached, hit rate,
      bytes per user);
    * ``QUIT`` — closes the connection;
    * anything else — ``{"error": ...}`` and the connection stays open.

    The server holds no per-user state of its own; every ``GET`` is one
    lock-free seqlock read against the live cache, safe while a writer
    (the delivery tap) keeps merging flush windows in.
    """

    def __init__(self, cache: "ServingCache") -> None:
        self.cache = cache
        self.queries_served = 0
        self._server: asyncio.AbstractServer | None = None

    @classmethod
    def attach(cls, specs) -> "ServingFrontend":
        """A frontend over worker-resident shard caches, by spec alone.

        *specs* is the ``ShardedDeliveryPipeline.serving.specs`` list (or
        any iterable of :class:`~repro.serving.cache.ServingArenaSpec`) —
        enough to serve reads zero-copy from another process's arenas
        without holding the pipeline or topology object at all, which is
        how a separate edge-server process would mount the cache.
        """
        from repro.serving.cache import ShardedServingCacheReader

        return cls(ShardedServingCacheReader.attach(specs))

    async def get_recommendations(
        self, user: int, k: int | None = None
    ) -> "list[ServedRecommendation]":
        """The async face of the cache read (used by in-process callers)."""
        self.queries_served += 1
        return self.cache.get_recommendations(user, k)

    def stats(self) -> dict[str, float]:
        """Cache gauges, JSON-ready (the ``STATS`` verb and the monitor)."""
        cache = self.cache
        data = {
            "users_cached": float(cache.users_cached),
            "hit_rate": cache.hit_rate,
            "bytes_per_user": cache.bytes_per_user(),
            "queries_served": float(self.queries_served),
        }
        shard_stats = getattr(cache, "shard_stats", None)
        if callable(shard_stats):  # sharded surface: per-shard visibility
            data["shards"] = float(len(shard_stats()))
        return data

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client until EOF / ``QUIT``."""
        import asyncio

        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                reply = self._dispatch(line.decode("utf-8", "replace").strip())
                if reply is None:
                    return
                writer.write(reply.encode("utf-8") + b"\n")
                await writer.drain()
        except asyncio.CancelledError:
            pass  # server stopping with this client mid-read: close quietly
        except ConnectionError:
            pass  # client vanished mid-exchange
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                # Loop teardown may cancel us mid-close, and the client
                # may already be gone — either way the socket is closed
                # and there is nothing left to clean up.
                pass

    def _dispatch(self, line: str) -> str | None:
        """One protocol line -> one JSON reply line (None closes)."""
        parts = line.split()
        verb = parts[0].upper() if parts else ""
        if verb == "QUIT":
            return None
        if verb == "STATS":
            return json.dumps(self.stats())
        if verb == "GET" and len(parts) in (2, 3):
            try:
                user = int(parts[1])
                k = int(parts[2]) if len(parts) == 3 else None
            except ValueError:
                return json.dumps({"error": f"bad GET arguments: {line!r}"})
            self.queries_served += 1
            served = self.cache.get_recommendations(user, k)
            return json.dumps(
                {
                    "user": user,
                    "recommendations": [
                        [rec.candidate, rec.score, rec.created_at]
                        for rec in served
                    ],
                }
            )
        return json.dumps({"error": f"unknown command: {line!r}"})

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        import asyncio

        self._server = await asyncio.start_server(
            self.handle_connection, host, port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        """Stop accepting and close the listening socket (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


class QueryLoadGenerator:
    """Zipf point-query load on the topology's virtual clock.

    Schedules ``qps`` queries per virtual second — users drawn from the
    same zipf popularity skew the stream generator uses (hot users are
    read most, exactly the production access pattern) — against the live
    serving cache, while ingest runs in the same simulation.  Each read
    is timed in wall-clock seconds into the ``serving:read`` breakdown
    stage, so the run's report shows real read latency under ingest.

    Queries are scheduled only up to a fixed *horizon* (not re-armed
    while the simulator has work): a self-rescheduling query event and
    the adaptive controller's self-rescheduling tick would otherwise keep
    each other alive forever.

    Args:
        sim: the topology's simulator.
        cache: anything with ``get_recommendations(user, k)``.
        num_users: user-id space to draw queries from.
        qps: point queries per virtual second.
        breakdown: latency sink for the ``serving:read`` stage.
        k: entries requested per query.
        exponent: zipf skew over user popularity ranks.
        seed: RNG seed (stream label ``"query"``).
    """

    def __init__(
        self,
        sim: "DiscreteEventSimulator",
        cache: "ServingCache",
        num_users: int,
        qps: float,
        breakdown: "LatencyBreakdown",
        k: int | None = None,
        exponent: float = 1.1,
        seed: int = 0,
    ) -> None:
        require_positive(num_users, "num_users")
        require_positive(qps, "qps")
        require_non_negative(exponent, "exponent")
        self._sim = sim
        self._cache = cache
        self._interval = 1.0 / qps
        self._k = k
        self._sampler = ZipfSampler(num_users, exponent, make_rng(seed, "query"))
        self._breakdown = breakdown
        self.queries_issued = 0
        self.queries_hit = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of issued queries that returned a non-empty row."""
        if self.queries_issued == 0:
            return 0.0
        return self.queries_hit / self.queries_issued

    def schedule_until(self, horizon: float) -> int:
        """Schedule the full query timeline up to virtual time *horizon*.

        Returns the number of queries scheduled.  The timeline is fixed
        up front (start-of-run), which keeps the DES event count exact
        and sidesteps the mutual keep-alive hazard described above.
        """
        now = self._sim.clock.now()
        count = 0
        t = now + self._interval
        while t <= horizon:
            self._sim.schedule_at(t, self._issue_one)
            t += self._interval
            count += 1
        return count

    def _issue_one(self) -> None:
        user = self._sampler.sample()
        started = time.perf_counter()
        served = self._cache.get_recommendations(user, self._k)
        self._breakdown.record(READ_STAGE, time.perf_counter() - started)
        self.queries_issued += 1
        if served:
            self.queries_hit += 1
