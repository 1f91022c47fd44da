"""Shared-memory slabs and the ring protocol behind the ``shm`` transports.

The worker-process transports (PR 5) move every batch through a
``multiprocessing`` queue: pickle the columns, write them down a pipe,
read them back, unpickle.  At firehose rates that copy chain *is* the
cost — the committed E18 numbers show per-partition detection work
dropping while wall clock rises, which is pure wire overhead.  This
module provides the replacement wire: fixed-capacity ring buffers in
``multiprocessing.shared_memory`` segments, where a frame is written
once, in place, as flat numpy columns, and the reader decodes zero-copy
views of the very same bytes.

Layout of one ring segment (all offsets 8-aligned)::

    +---------------------------------------------------------------+
    | ring header (64 B):  head u64 | tail u64 | (reserved)         |
    +---------------------------------------------------------------+
    | slot 0: slot header (64 B) | payload (slot_bytes)             |
    |   seq_open u64 | seq_commit u64 | nbytes u64 | (reserved)     |
    +---------------------------------------------------------------+
    | slot 1 ...                                                    |
    +---------------------------------------------------------------+

The protocol is single-producer / single-consumer (one ring per
direction per worker) with a seqlock-style per-slot handoff:

* **writer** — waits until ``head - tail < slots`` (full-ring
  backpressure; the *reader* never blocks the writer mid-copy, only a
  completely full ring does), stamps ``seq_open = head + 1``, writes the
  payload, stamps ``nbytes`` and ``seq_commit = head + 1``, and finally
  publishes ``head = head + 1``.
* **reader** — waits until ``tail < head``, checks
  ``seq_open == seq_commit == tail + 1`` (a mismatch is a torn frame:
  the writer died mid-write or the slot was corrupted), consumes the
  payload *in place*, and releases the slot with ``tail = tail + 1``.
  Nothing about the slot may be touched after release — the writer is
  free to overwrite it immediately.

Memory-ordering note: the counters and sequence stamps are aligned
8-byte stores issued one bytecode at a time by CPython, and the commit
stamp is checked on the read side — on the x86-TSO machines this repo
benches on the handoff is safe without fences; the torn-frame check is
the belt over those braces.

Cleanup discipline: ring segments are created (and therefore owned) by
the parent process only.  Workers *attach* by name and close their
mapping on exit; the parent unlinks every segment in ``close()`` —
including the slabs of workers that died mid-batch (dead-worker slab
reclamation) — and a module-level ``atexit`` sweep unlinks anything a
crashed caller left behind.  A ``kill -9`` skips ``atexit``, so the next
shm transport (or recovery) to start reclaims the segments of creators
that are no longer alive (:func:`reclaim_dead_segments`), and
``/dev/shm`` never accumulates orphans.
The serving arenas (:class:`ShmArena`) extend the discipline to
*worker-created* segments: a worker that allocates a growth segment
derives its name deterministically from a parent-owned control segment,
so the parent can reclaim it by name (:func:`unlink_segment`) even after
a ``kill -9`` left no owner alive.
"""

from __future__ import annotations

import atexit
import os
import secrets
import time
from multiprocessing import shared_memory
from typing import Callable, NamedTuple

import numpy as np

from repro.util.validation import require, require_positive

__all__ = [
    "ARENA_HEADER_BYTES",
    "DEFAULT_SLOTS",
    "DEFAULT_SLOT_BYTES",
    "RING_HEADER_BYTES",
    "SLOT_HEADER_BYTES",
    "TornFrameError",
    "ShmArena",
    "ShmRing",
    "RingPairSpec",
    "shm_available",
    "live_segment_names",
    "reclaim_dead_segments",
    "sweep_segments",
    "unlink_segment",
]

#: Slots per ring lane.  Bounds the pipelining depth a transport can
#: stack (see ``SharedMemoryTransport``): with equal request and reply
#: rings, fewer than ``slots`` outstanding submits guarantees neither
#: endpoint can deadlock on a full ring.
DEFAULT_SLOTS = 8

#: Payload capacity per slot.  A 512-event batch is ~13 KB and a typical
#: grouped reply a few hundred KB; 1 MiB keeps the fallback rate near
#: zero on the benchmarked workloads while costing 16 MiB per worker
#: (two lanes x 8 slots).
DEFAULT_SLOT_BYTES = 1 << 20

RING_HEADER_BYTES = 64
SLOT_HEADER_BYTES = 64

#: Escalating poll sleeps for ring waits: a couple of immediate rechecks,
#: then exponential backoff capped at 1 ms so an idle endpoint yields its
#: core (on one-core hosts the peer needs it) without adding more than
#: ~1 ms of wake-up latency to a multi-millisecond batch.
_POLL_INITIAL = 20e-6
_POLL_MAX = 1e-3

#: Liveness callbacks are only consulted this often (seconds) — they can
#: be as expensive as a waitpid.
_LIVENESS_INTERVAL = 0.05


class TornFrameError(RuntimeError):
    """A slot's sequence stamps are inconsistent with the ring counters.

    Seen when the writer died between opening and committing a frame (or
    the slab was corrupted); the frame's bytes must not be trusted.
    """


class RingPairSpec(NamedTuple):
    """Picklable handle a worker uses to attach its two ring lanes."""

    request_name: str
    reply_name: str
    slots: int
    slot_bytes: int


#: Segments created (owned) by this process, by name.  ``sweep_segments``
#: — called from transport ``close()`` paths and at interpreter exit —
#: unlinks them, so even an abnormal exit leaves ``/dev/shm`` clean.
_OWNED_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_NAME_COUNTER = 0


def _next_segment_name() -> str:
    """A collision-proof, greppable segment name (``/dev/shm/repro_shm_*``)."""
    global _NAME_COUNTER
    _NAME_COUNTER += 1
    return f"repro_shm_{os.getpid()}_{_NAME_COUNTER}_{secrets.token_hex(3)}"


def live_segment_names() -> list[str]:
    """Names of segments this process currently owns (tests, sweeps)."""
    return sorted(_OWNED_SEGMENTS)


def sweep_segments(names: "list[str] | None" = None) -> int:
    """Close + unlink owned segments (all of them when *names* is None).

    Idempotent and tolerant: a segment already unlinked (e.g. by the
    resource tracker after a crash) is skipped silently.  Returns the
    number of segments reclaimed.
    """
    targets = list(_OWNED_SEGMENTS) if names is None else list(names)
    reclaimed = 0
    for name in targets:
        segment = _OWNED_SEGMENTS.pop(name, None)
        if segment is None:
            continue
        try:
            segment.close()
        except BufferError:
            # A caller-held view still pins the mapping; the mapping dies
            # with the views, but the /dev/shm entry must go now.
            pass
        try:
            segment.unlink()
            reclaimed += 1
        except (FileNotFoundError, OSError):
            pass
    return reclaimed


def unlink_segment(name: str) -> bool:
    """Close + unlink one segment by *name*, owned by this process or not.

    The serving-arena reclamation primitive: arena growth segments are
    created by *worker* processes under names derived from a parent-owned
    control segment, so after a ``kill -9`` the parent reclaims them by
    name without ever having held a handle.  Tolerant and idempotent —
    a name that is already gone returns False silently.  Unlinking never
    invalidates existing mappings (POSIX removes the name only), so
    readers attached to the segment keep working.
    """
    segment = _OWNED_SEGMENTS.pop(name, None)
    if segment is None:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError, ValueError):
            return False
    try:
        segment.close()
    except (OSError, BufferError):
        pass
    try:
        segment.unlink()
        return True
    except (FileNotFoundError, OSError):
        return False


atexit.register(sweep_segments)

def reclaim_dead_segments(directory: str = "/dev/shm") -> list[str]:
    """Unlink every ``repro_shm_<pid>_*`` segment whose creator is dead.

    Every segment name embeds its creator's pid (worker-made serving
    data segments embed the parent's, via their control name), and a
    ``kill -9`` skips the creator's ``atexit`` sweep, so shm transports
    and recovery call this on start.  A live pid's segments are never
    touched.  Returns the names unlinked.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    reclaimed = []
    for name in names:
        pid = name.split("_")[2] if name.startswith("repro_shm_") else ""
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
            continue  # alive
        except (PermissionError, OverflowError):
            continue  # another user's live process, or not a pid
        except ProcessLookupError:
            pass
        try:
            os.unlink(os.path.join(directory, name))
            reclaimed.append(name)
        except OSError:
            pass  # raced with another sweeper
    return reclaimed


_SHM_AVAILABLE: bool | None = None


def shm_available() -> bool:
    """Whether POSIX shared memory works on this host (cached probe).

    Containers without a ``/dev/shm`` mount (and some locked-down CI
    sandboxes) fail segment creation; transports and tests gate on this
    so the shm path degrades to a skip instead of an error.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        try:
            probe = shared_memory.SharedMemory(
                create=True, size=64, name=_next_segment_name()
            )
            probe.close()
            probe.unlink()
            _SHM_AVAILABLE = True
        except Exception:
            _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


def _wait(
    poll: Callable[[], object],
    is_peer_alive: Callable[[], bool] | None = None,
    timeout: float | None = None,
) -> object:
    """Poll *poll* until it returns non-None, with backoff and liveness.

    Returns the poll value, or None when *timeout* elapsed or the peer
    died (after one final poll, covering the committed-then-died race).
    """
    value = poll()
    if value is not None:
        return value
    deadline = None if timeout is None else time.monotonic() + timeout
    next_liveness = time.monotonic() + _LIVENESS_INTERVAL
    sleep = _POLL_INITIAL
    while True:
        time.sleep(sleep)
        sleep = min(sleep * 2.0, _POLL_MAX)
        value = poll()
        if value is not None:
            return value
        now = time.monotonic()
        if deadline is not None and now >= deadline:
            return None
        if is_peer_alive is not None and now >= next_liveness:
            if not is_peer_alive():
                return poll()  # final drain: frame committed before death
            next_liveness = now + _LIVENESS_INTERVAL


class ShmRing:
    """One single-producer/single-consumer slot ring in a shm segment.

    Create with :meth:`create` (parent, owns the segment) or
    :meth:`attach` (worker, maps an existing segment).  Each endpoint
    uses exactly one side of the API: ``acquire_slot``/``commit_slot``
    as the writer, ``acquire_frame``/``release_frame`` as the reader.
    """

    __slots__ = ("name", "slots", "slot_bytes", "_shm", "_mem", "_ctrl", "_owner")

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        slots: int,
        slot_bytes: int,
        owner: bool,
    ) -> None:
        self.name = segment.name
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._shm = segment
        self._mem = np.frombuffer(segment.buf, dtype=np.uint8)
        self._ctrl = self._mem[:16].view(np.uint64)  # [head, tail]
        self._owner = owner

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @staticmethod
    def segment_bytes(slots: int, slot_bytes: int) -> int:
        """Total segment size for a ring of the given shape."""
        return RING_HEADER_BYTES + slots * (SLOT_HEADER_BYTES + slot_bytes)

    @classmethod
    def create(cls, slots: int, slot_bytes: int) -> "ShmRing":
        """Allocate a fresh ring segment (parent side; owns the unlink)."""
        require_positive(slots, "slots")
        require_positive(slot_bytes, "slot_bytes")
        require(slot_bytes % 8 == 0, "slot_bytes must be 8-byte aligned")
        name = _next_segment_name()
        segment = shared_memory.SharedMemory(
            create=True, size=cls.segment_bytes(slots, slot_bytes), name=name
        )
        # Fresh POSIX shm is zero-filled, so head = tail = 0 already holds;
        # stamp explicitly anyway — the protocol must not depend on it.
        ring = cls(segment, slots, slot_bytes, owner=True)
        ring._ctrl[0] = 0
        ring._ctrl[1] = 0
        _OWNED_SEGMENTS[name] = segment
        return ring

    @classmethod
    def attach(cls, name: str, slots: int, slot_bytes: int) -> "ShmRing":
        """Map an existing ring segment (worker side; never unlinks)."""
        segment = shared_memory.SharedMemory(name=name)
        return cls(segment, slots, slot_bytes, owner=False)

    def close(self) -> None:
        """Drop this mapping (and unlink when owner).  Idempotent."""
        # The numpy views pin the exported buffer; break them first or
        # SharedMemory.close() raises BufferError.
        self._ctrl = None
        self._mem = None
        if self._owner:
            sweep_segments([self.name])
        else:
            try:
                self._shm.close()
            except (OSError, BufferError):
                pass

    # ------------------------------------------------------------------
    # Shared state reads
    # ------------------------------------------------------------------

    def occupancy(self) -> int:
        """Committed-but-unreleased frames currently in the ring."""
        ctrl = self._ctrl
        return int(ctrl[0]) - int(ctrl[1])

    def _slot_base(self, seq: int) -> int:
        return RING_HEADER_BYTES + (seq % self.slots) * (
            SLOT_HEADER_BYTES + self.slot_bytes
        )

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------

    def try_acquire_slot(self) -> "np.ndarray | None":
        """The next free slot's payload view, or None when the ring is full.

        Opens the slot (``seq_open`` stamped) but publishes nothing until
        :meth:`commit_slot`; abandoning an acquired slot is harmless.
        """
        head = int(self._ctrl[0])
        if head - int(self._ctrl[1]) >= self.slots:
            return None
        base = self._slot_base(head)
        header = self._mem[base : base + 24].view(np.uint64)
        header[0] = head + 1  # seq_open
        payload_base = base + SLOT_HEADER_BYTES
        return self._mem[payload_base : payload_base + self.slot_bytes]

    def acquire_slot(
        self,
        is_peer_alive: Callable[[], bool] | None = None,
        timeout: float | None = None,
    ) -> "np.ndarray | None":
        """Blocking :meth:`try_acquire_slot` (None on timeout/dead peer)."""
        return _wait(self.try_acquire_slot, is_peer_alive, timeout)

    def commit_slot(self, nbytes: int) -> None:
        """Publish the acquired slot's first *nbytes* as one frame."""
        require(0 <= nbytes <= self.slot_bytes, "frame exceeds slot capacity")
        head = int(self._ctrl[0])
        base = self._slot_base(head)
        header = self._mem[base : base + 24].view(np.uint64)
        header[2] = nbytes
        header[1] = head + 1  # seq_commit: payload is complete
        self._ctrl[0] = head + 1  # publish

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------

    def try_acquire_frame(self) -> "np.ndarray | None":
        """The oldest committed frame's payload view, or None when empty.

        Raises:
            TornFrameError: the slot's stamps disagree with the counters.
        """
        tail = int(self._ctrl[1])
        if tail >= int(self._ctrl[0]):
            return None
        seq = tail + 1
        base = self._slot_base(tail)
        header = self._mem[base : base + 24].view(np.uint64)
        if int(header[0]) != seq or int(header[1]) != seq:
            raise TornFrameError(
                f"ring {self.name}: slot for seq {seq} holds "
                f"open={int(header[0])} commit={int(header[1])}"
            )
        nbytes = int(header[2])
        payload_base = base + SLOT_HEADER_BYTES
        return self._mem[payload_base : payload_base + nbytes]

    def acquire_frame(
        self,
        is_peer_alive: Callable[[], bool] | None = None,
        timeout: float | None = None,
    ) -> "np.ndarray | None":
        """Blocking :meth:`try_acquire_frame` (None on timeout/dead peer)."""
        return _wait(self.try_acquire_frame, is_peer_alive, timeout)

    def release_frame(self) -> None:
        """Hand the oldest frame's slot back to the writer.

        Every view returned by ``acquire_frame`` — and everything decoded
        zero-copy from it — is invalid after this call.
        """
        self._ctrl[1] = int(self._ctrl[1]) + 1


class RingPair:
    """One worker's wire: a request ring (parent writes) + reply ring.

    The parent :meth:`create`\\ s the pair (owning both segments) and
    ships the picklable :attr:`spec` to the worker, which
    :meth:`attach`\\ es.  The rings are the worker's sole message
    *ordering* channel; payloads that cannot travel as a frame (control
    tuples, slot-overflow batches) go on the existing mp queues announced
    by a ``FRAME_PICKLE`` marker — queue payload first, marker second, so
    a consumed marker's payload is already in flight.

    The parent-side instance also carries the wire's telemetry counters
    (frames vs. pickle fallbacks), which the transports aggregate into
    ``wire_stats()`` for the monitor.
    """

    __slots__ = (
        "request",
        "reply",
        "frames_shm",
        "frames_fallback",
        "control_pickle",
    )

    def __init__(self, request: ShmRing, reply: ShmRing) -> None:
        self.request = request
        self.reply = reply
        self.frames_shm = 0
        self.frames_fallback = 0
        self.control_pickle = 0

    @classmethod
    def create(
        cls,
        slots: int = DEFAULT_SLOTS,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> "RingPair":
        request = ShmRing.create(slots, slot_bytes)
        try:
            reply = ShmRing.create(slots, slot_bytes)
        except Exception:
            request.close()
            raise
        return cls(request, reply)

    @classmethod
    def attach(cls, spec: RingPairSpec) -> "RingPair":
        request = ShmRing.attach(spec.request_name, spec.slots, spec.slot_bytes)
        reply = ShmRing.attach(spec.reply_name, spec.slots, spec.slot_bytes)
        return cls(request, reply)

    @property
    def spec(self) -> RingPairSpec:
        return RingPairSpec(
            self.request.name,
            self.reply.name,
            self.request.slots,
            self.request.slot_bytes,
        )

    def post_control(
        self,
        queue,
        message: tuple,
        is_peer_alive: Callable[[], bool] | None = None,
        timeout: float | None = 1.0,
    ) -> bool:
        """Send a pickled *message* down the wire (payload, then marker).

        Returns False when no request slot could be acquired (peer dead,
        or ring wedged past *timeout* — the caller's forceful-shutdown
        path covers that).
        """
        from repro.core.wire import FRAME_PICKLE, write_frame

        queue.put(message)
        mem = self.request.acquire_slot(is_peer_alive, timeout)
        if mem is None:
            return False
        self.request.commit_slot(write_frame(mem, FRAME_PICKLE))
        self.control_pickle += 1
        return True

    def close(self) -> None:
        """Drop both ring mappings (owner side also unlinks).  Idempotent."""
        self.request.close()
        self.reply.close()

    #: Parent-side name for :meth:`close`: reclaims the slabs (unlink).
    destroy = close


#: Control-word area at the front of every arena segment: eight ``u64``
#: words whose meaning the arena's protocol defines (the serving arena
#: uses them for its structural seqlock, generation counter, and
#: writer-published gauges).
ARENA_HEADER_BYTES = 64

#: Arena array fields: ``(name, dtype, shape)`` triples.  Offsets are
#: assigned sequentially after the header, each 8-aligned, so any two
#: processes carving the same field list see the same layout.
ArenaFields = "list[tuple[str, np.dtype, tuple[int, ...]]]"


def _arena_layout(fields) -> tuple[int, list[tuple[str, np.dtype, tuple, int]]]:
    """(total segment bytes, [(name, dtype, shape, byte offset)])."""
    offset = ARENA_HEADER_BYTES
    placed = []
    for name, dtype, shape in fields:
        dtype = np.dtype(dtype)
        offset = (offset + 7) & ~7
        placed.append((name, dtype, tuple(shape), offset))
        offset += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    return offset, placed


class ShmArena:
    """One shm segment carving a ``u64`` header plus named numpy arrays.

    The building block under the in-worker serving caches: a writer
    process :meth:`create`\\ s a segment whose layout is a pure function
    of its field list, and any other process :meth:`attach`\\ es the same
    fields (or :meth:`attach_dynamic` when the shapes themselves live in
    the header) and sees the very same bytes as numpy views — no copies,
    no pickling.  Fresh POSIX shm is zero-filled, which the serving
    table's probe loops rely on (an unwritten slot reads as empty).

    Concurrency is the *caller's* protocol: this class only maps memory.
    Ownership follows creation — a created segment lands in the module
    sweep list (unlinked at ``close()``/``atexit``), an attached one is
    never unlinked by :meth:`close`.
    """

    __slots__ = ("name", "_shm", "_mem", "header", "arrays", "_owner")

    def __init__(
        self, segment: shared_memory.SharedMemory, fields, owner: bool
    ) -> None:
        self.name = segment.name
        self._shm = segment
        self._mem = np.frombuffer(segment.buf, dtype=np.uint8)
        self.header = self._mem[:ARENA_HEADER_BYTES].view(np.uint64)
        self._owner = owner
        self.arrays: dict[str, np.ndarray] = {}
        for field_name, dtype, shape, offset in _arena_layout(fields)[1]:
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            self.arrays[field_name] = (
                self._mem[offset : offset + nbytes].view(dtype).reshape(shape)
            )

    @staticmethod
    def segment_bytes(fields) -> int:
        """Total segment size for the given field list."""
        return _arena_layout(fields)[0]

    @classmethod
    def create(cls, fields, name: str | None = None) -> "ShmArena":
        """Allocate a fresh, zero-filled arena segment (creator owns it)."""
        name = name or _next_segment_name()
        segment = shared_memory.SharedMemory(
            create=True, size=cls.segment_bytes(fields), name=name
        )
        _OWNED_SEGMENTS[name] = segment
        return cls(segment, fields, owner=True)

    @classmethod
    def attach(cls, name: str, fields) -> "ShmArena":
        """Map an existing arena with a known field list (never unlinks)."""
        return cls(shared_memory.SharedMemory(name=name), fields, owner=False)

    @classmethod
    def attach_dynamic(cls, name: str, fields_from_header) -> "ShmArena":
        """Attach when the field shapes live in the segment's own header.

        *fields_from_header* receives the ``u64`` header view and returns
        the field list — the serving arena stores (capacity, k) in its
        data header, so a reader can attach any generation knowing only
        its name.
        """
        segment = shared_memory.SharedMemory(name=name)
        header = (
            np.frombuffer(segment.buf, dtype=np.uint8)[:ARENA_HEADER_BYTES]
            .view(np.uint64)
        )
        fields = fields_from_header(header)
        del header
        return cls(segment, fields, owner=False)

    def nbytes(self) -> int:
        """Mapped bytes (the full segment)."""
        return 0 if self._mem is None else int(self._mem.nbytes)

    def release(self) -> None:
        """Drop this handle's views without closing mapping or name.

        For creators that only needed to allocate + zero-init: ownership
        stays in the module sweep list (the name is reclaimed later by
        ``sweep_segments``/``unlink_segment``), while other handles keep
        attaching by name.
        """
        self.header = None
        self.arrays = {}
        self._mem = None

    def try_close_mapping(self) -> bool:
        """Release views and close the mapping if nothing else exports it.

        For retiring an old generation whose *name* is already unlinked:
        the mapping can only be unmapped once every external numpy view
        into it has died (``mmap`` refuses while exported pointers
        exist).  Returns True once the mapping is closed; the caller
        retries later on False — never letting the segment reach GC with
        live views, which would spray ``BufferError`` from ``__del__``.
        """
        self.release()
        try:
            self._shm.close()
            return True
        except BufferError:
            return False
        except OSError:
            return True  # already closed

    def close(self) -> None:
        """Drop this mapping (and unlink when owner).  Idempotent."""
        self.release()
        if self._owner:
            sweep_segments([self.name])
        else:
            try:
                self._shm.close()
            except (OSError, BufferError):
                pass

    def __del__(self) -> None:
        # Drop our views before the SharedMemory slot is torn down —
        # otherwise its __del__ hits the mmap while our exports are
        # still alive and sprays an ignored BufferError.
        try:
            self.release()
        except Exception:
            pass
