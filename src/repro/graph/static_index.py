"""The paper's **S** structure: inverse follower adjacency, sorted & static.

S answers one query: *given B, which A's follow B?* — with the A lists kept
sorted so the detector can intersect them cheaply.  Mirroring production:

* S is **bulk loaded** from an offline snapshot of the ``A -> B`` follow
  edges (the paper computes these offline "to take advantage of rich
  features to prune the graph") and is immutable afterwards;
* each user's *influencer list* (the B's an A follows) may be truncated to
  the top-``influencer_limit`` entries by weight, which both improves
  candidate quality and bounds S's memory;
* a partition holds only the A's it owns, so construction accepts a
  ``sources`` mask over user ids.

Both backends are built from the one columnar kernel,
:func:`invert_edge_columns`, which turns ``(A, B)`` edge columns into a
``(keys, offsets, arena)`` triple with keys in ascending B order.

Two interchangeable storage backends implement the same query API:

* :class:`StaticFollowerIndex` (``packed``) — one ``array('q')`` buffer per
  B, the closest pure-Python analogue to primitive arrays;
* :class:`CsrFollowerIndex` (``csr``) — a single ``int64`` numpy arena plus
  an offsets table (CSR-style), so
  ``followers_of`` is a true zero-copy arena slice with no per-key buffer
  object.  An append-and-compact overlay keeps incremental graph updates
  possible without giving up the contiguous layout.

Both expose ``follower_array(b)`` — a zero-copy ``int64`` numpy view of B's
follower list (``None`` when empty) — which is what the batched detector
consumes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.graph.csr import sorted_unique_pairs
from repro.graph.ids import UserId
from repro.util.memory import approx_bytes_of_int_list
from repro.util.validation import require, require_positive

#: Selectable S storage backends (``build_follower_snapshot(backend=...)``).
S_BACKENDS = ("packed", "csr")


def _with_npz_suffix(path: Path) -> Path:
    """*path* with the ``.npz`` suffix ``np.savez`` would write to."""
    if path.name.endswith(".npz"):
        return path
    return path.with_name(path.name + ".npz")


def _row_starts(column: np.ndarray) -> np.ndarray:
    """Start positions of the runs of equal values in a grouped column."""
    if not len(column):
        return _EMPTY_NDARRAY
    return np.flatnonzero(np.r_[True, column[1:] != column[:-1]])


def invert_edge_columns(
    src: np.ndarray,
    dst: np.ndarray,
    influencer_limit: int | None = None,
    weights: np.ndarray | None = None,
    sources: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert ``(A, B)`` follow-edge columns into S's ``(keys, offsets, arena)``.

    The one bulk-load kernel behind both S backends: keep the edges whose
    A is set in the *sources* mask (indexed by user id), collapse
    duplicates, keep each A's first ``influencer_limit`` B's by
    ``(-weight, B)`` (uniform *weights* when omitted, so ties and the
    unweighted cap go to the lower B), then invert with one stable sort
    on B.  Row ``i``, ``arena[offsets[i]:offsets[i + 1]]``, holds the
    A's following ``keys[i]`` in ascending order; keys ascend too.
    """
    if influencer_limit is not None:
        require_positive(influencer_limit, "influencer_limit")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if influencer_limit is None:
        weights = None
    if sources is not None:
        keep = np.asarray(sources, dtype=bool)[src]
        src, dst = src[keep], dst[keep]
        if weights is not None:
            weights = weights[keep]
    unique = sorted_unique_pairs(src, dst)
    src, dst = src[unique], dst[unique]
    if weights is not None:
        weights = weights[unique]
    if influencer_limit is not None:
        if weights is not None:
            order = np.lexsort((dst, -weights, src))
            src, dst = src[order], dst[order]
        starts = _row_starts(src)
        lengths = np.diff(np.r_[starts, len(src)])
        rank = np.arange(len(src)) - np.repeat(starts, lengths)
        kept = rank < influencer_limit
        src, dst = src[kept], dst[kept]
    # Stable on B: each row's A's keep their ascending order.
    order = np.argsort(dst, kind="stable")
    arena = src[order]
    dst = dst[order]
    starts = _row_starts(dst)
    return dst[starts], np.r_[starts, len(dst)].astype(np.int64), arena


def _row_columns(
    rows: Mapping[UserId, Sequence[UserId]],
) -> tuple[np.ndarray, np.ndarray]:
    """A ``B -> A's`` mapping as ``(A, B)`` edge columns."""
    parts = [np.asarray(a_list, dtype=np.int64) for a_list in rows.values()]
    dst = np.repeat(np.fromiter(rows, np.int64, len(rows)), [len(p) for p in parts])
    return (np.concatenate(parts) if parts else _EMPTY_NDARRAY), dst


class _BulkLoaded:
    """The boxed-pairs entry point both S backends share."""

    @classmethod
    def from_follow_edges(
        cls,
        edges: Iterable[tuple[UserId, UserId]],
        influencer_limit: int | None = None,
        edge_weight: Callable[[UserId, UserId], float] | None = None,
        sources: np.ndarray | None = None,
    ):
        """Bulk-load S from ``(A, B)`` follow edges (*A follows B*).

        See :func:`invert_edge_columns` for the argument semantics;
        *edge_weight* scores one ``(A, B)`` edge for the influencer cap.
        """
        pairs = np.fromiter(edges, dtype=np.dtype((np.int64, 2)))
        weights = None
        if edge_weight is not None and influencer_limit is not None:
            weights = np.fromiter(
                (edge_weight(a, b) for a, b in pairs.tolist()), np.float64, len(pairs)
            )
        return cls.from_arrays(
            *invert_edge_columns(
                pairs[:, 0], pairs[:, 1], influencer_limit, weights, sources
            )
        )


def build_follower_index(
    src: np.ndarray,
    dst: np.ndarray,
    backend: str = "csr",
    influencer_limit: int | None = None,
    weights: np.ndarray | None = None,
    sources: np.ndarray | None = None,
) -> "StaticFollowerIndex | CsrFollowerIndex":
    """S in the *backend* layout from follow-edge columns.

    See :func:`invert_edge_columns` for the remaining arguments.
    """
    require(
        backend in S_BACKENDS,
        f"unknown S backend {backend!r}; expected one of {S_BACKENDS}",
    )
    index_cls = CsrFollowerIndex if backend == "csr" else StaticFollowerIndex
    return index_cls.from_arrays(
        *invert_edge_columns(src, dst, influencer_limit, weights, sources)
    )


class StaticFollowerIndex(_BulkLoaded):
    """Immutable map ``B -> sorted packed array of A's that follow B``."""

    backend = "packed"

    def __init__(self, followers: Mapping[UserId, array]) -> None:
        """Wrap an already-built mapping; prefer :meth:`from_follow_edges`.

        Args:
            followers: mapping from followed account ``B`` to a sorted
                ``array('q')`` of follower ids.  The mapping is used as-is
                (not copied); callers hand over ownership.
        """
        self._followers = dict(followers)
        self._num_edges = sum(len(a_list) for a_list in self._followers.values())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls, keys: np.ndarray, offsets: np.ndarray, arena: np.ndarray
    ) -> "StaticFollowerIndex":
        """Slice an :func:`invert_edge_columns` triple into per-B buffers."""
        followers = {}
        bounds = offsets.tolist()
        for row, b in enumerate(keys.tolist()):
            buffer = array("q")
            buffer.frombytes(arena[bounds[row] : bounds[row + 1]].tobytes())
            followers[b] = buffer
        return cls(followers)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def followers_of(self, b: UserId) -> array:
        """Sorted follower ids of *b* (empty array if unknown)."""
        result = self._followers.get(b)
        if result is None:
            return _EMPTY
        return result

    def follower_array(self, b: UserId) -> np.ndarray | None:
        """Sorted follower ids of *b* as a zero-copy int64 numpy view.

        Returns ``None`` when *b* has no loaded followers — the batched
        detector's memo-friendly contract (see
        :meth:`~repro.core.diamond.DiamondDetector.process_batch`).
        """
        a_list = self._followers.get(b)
        if not a_list:
            return None
        return np.frombuffer(a_list, dtype=np.int64)

    def has_edge(self, a: UserId, b: UserId) -> bool:
        """True iff *a* follows *b* in the loaded snapshot (binary search)."""
        a_list = self._followers.get(b)
        if not a_list:
            return False
        position = bisect_left(a_list, a)
        return position < len(a_list) and a_list[position] == a

    def __contains__(self, b: UserId) -> bool:
        return b in self._followers

    def sources(self) -> Iterable[UserId]:
        """All B's with at least one loaded follower."""
        return self._followers.keys()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def num_targets(self) -> int:
        """Number of distinct B's in the index."""
        return len(self._followers)

    @property
    def num_edges(self) -> int:
        """Total loaded ``A -> B`` edges."""
        return self._num_edges

    def memory_bytes(self) -> int:
        """Approximate heap footprint of the packed adjacency lists."""
        total = 0
        for a_list in self._followers.values():
            total += approx_bytes_of_int_list(a_list)
        # Dict slots: key pointer + value pointer + hash, ~100B/entry is a
        # fair CPython estimate including the boxed key.
        total += len(self._followers) * 100
        return total

    def degree_histogram(self) -> dict[int, int]:
        """Map ``follower-count -> number of B's with that count``."""
        histogram: dict[int, int] = {}
        for a_list in self._followers.values():
            degree = len(a_list)
            histogram[degree] = histogram.get(degree, 0) + 1
        return histogram


class CsrFollowerIndex(_BulkLoaded):
    """CSR-arena S backend: all follower lists in one contiguous int64 array.

    Per-B state shrinks to one dict slot holding a row number; the follower
    ids themselves live back-to-back in a single numpy arena, so

    * ``followers_of`` / ``follower_array`` return zero-copy arena slices
      (no per-key buffer object, no conversion on the batched hot path);
    * memory per edge is exactly 8 bytes plus one offsets slot per B.

    The arena is immutable, matching the paper's periodically-bulk-loaded
    S — but incremental updates stay possible through an **append-and-
    compact** overlay: :meth:`append_follow_edges` buffers new edges per B,
    queries merge the overlay on demand (cached), and :meth:`compact`
    folds the overlay back into a fresh contiguous arena.  Appends auto-
    compact once the overlay reaches :attr:`compact_threshold` edges, so
    sustained update streams converge back to pure-arena layout.
    """

    backend = "csr"

    #: Default overlay size (edges) that triggers an automatic compact.
    DEFAULT_COMPACT_THRESHOLD = 4096

    def __init__(self, followers: Mapping[UserId, Sequence[UserId]]) -> None:
        """Pack an already-inverted ``B -> sorted distinct A's`` mapping.

        Prefer :meth:`from_follow_edges`, which also applies the
        influencer cap and partition mask, or :meth:`from_arrays`.
        """
        self._adopt(*invert_edge_columns(*_row_columns(followers)))
        #: Overlay size (edges) that triggers an automatic :meth:`compact`.
        self.compact_threshold = self.DEFAULT_COMPACT_THRESHOLD

    def _adopt(
        self, keys: np.ndarray, offsets: np.ndarray, arena: np.ndarray
    ) -> None:
        """Make ``(keys, offsets, arena)`` the arena, with an empty overlay."""
        self._arena = arena
        self._offsets = offsets
        #: Python-int row bounds for scalar lookups (a ``tolist`` upfront is
        #: far cheaper than boxing two numpy scalars per followers_of call).
        self._bounds: list[int] = offsets.tolist()
        self._rows: dict[UserId, int] = dict(zip(keys.tolist(), range(len(keys))))
        # Overlay state for the append-and-compact update path.
        self._pending: dict[UserId, set[UserId]] = {}
        self._pending_edges = 0
        self._merged_cache: dict[UserId, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls, keys: np.ndarray, offsets: np.ndarray, arena: np.ndarray
    ) -> "CsrFollowerIndex":
        """Adopt a ``(keys, offsets, arena)`` triple as-is (no copy).

        The triple is :func:`invert_edge_columns`' output or a
        :meth:`save_npz` snapshot's contents.
        """
        index = cls.__new__(cls)
        index._adopt(keys, offsets, arena)
        index.compact_threshold = cls.DEFAULT_COMPACT_THRESHOLD
        return index

    # ------------------------------------------------------------------
    # Arena snapshots (near-instant periodic reloads)
    # ------------------------------------------------------------------

    def save_npz(self, path: str | Path) -> None:
        """Serialize ``(keys, offsets, arena)`` to an ``.npz`` snapshot.

        The production S is "loaded into the system periodically"; dumping
        the packed arena directly means the next load is three array reads
        instead of re-inverting (and re-sorting) every follow edge.  Any
        pending appended edges are compacted in first, so the snapshot is
        always pure-arena.  Uncompressed on purpose — load speed is the
        whole point, and int64 id columns barely compress anyway.
        """
        self.compact()
        keys = np.fromiter(self._rows, dtype=np.int64, count=len(self._rows))
        # np.savez appends ".npz" to suffixless paths on write; normalize
        # here so save_npz(p) / from_snapshot(p) round-trip on the same p.
        np.savez(
            _with_npz_suffix(Path(path)),
            keys=keys,
            offsets=self._offsets,
            arena=self._arena,
        )

    @classmethod
    def from_snapshot(cls, path: str | Path) -> "CsrFollowerIndex":
        """Load an index directly from a :meth:`save_npz` arena snapshot.

        The arrays are adopted as-is (no inversion, no sorting, no
        per-row packing), so reload cost is dominated by the ``.npz`` read
        itself.  Round-trips are exact: the loaded index serves identical
        queries to the one that was saved.
        """
        path = Path(path)
        if not path.exists():
            path = _with_npz_suffix(path)
        with np.load(path) as data:
            return cls.from_arrays(
                data["keys"],
                data["offsets"].astype(np.int64, copy=False),
                data["arena"].astype(np.int64, copy=False),
            )

    # ------------------------------------------------------------------
    # Incremental updates (append-and-compact)
    # ------------------------------------------------------------------

    def append_follow_edges(self, edges: Iterable[tuple[UserId, UserId]]) -> int:
        """Add ``(A, B)`` follow edges on top of the loaded arena.

        Duplicates of already-loaded or already-appended edges are ignored.
        Queries observe appended edges immediately (merged on demand); the
        arena itself is only rewritten by :meth:`compact`, which runs
        automatically once the overlay holds :attr:`compact_threshold`
        edges.  Note the influencer cap is applied at bulk-load time only —
        callers streaming updates are expected to cap upstream, as the
        production offline pipeline does.

        **Not for indexes bound to live detectors**: the serving stack
        treats a bound S as immutable (detectors memoize follower arrays
        until ``rebind_static``), so appending to a bound index would let
        the batched and per-event paths observe different graphs.  Append
        on the loading side, then swap the index in via the engine's
        ``reload_static_index`` — the same discipline as any offline
        reload.

        Returns the number of genuinely new edges added.
        """
        added = 0
        for a, b in edges:
            if self._base_has_edge(a, b):
                continue
            pending = self._pending.get(b)
            if pending is None:
                pending = self._pending[b] = set()
            if a in pending:
                continue
            pending.add(a)
            self._pending_edges += 1
            self._merged_cache.pop(b, None)
            added += 1
        if self._pending_edges >= self.compact_threshold:
            self.compact()
        return added

    def compact(self) -> None:
        """Fold the append overlay back into one contiguous arena."""
        if not self._pending_edges:
            return
        rows = {b: self.followers_of(b) for b in self.sources()}
        self._adopt(*invert_edge_columns(*_row_columns(rows)))

    @property
    def pending_edges(self) -> int:
        """Appended edges not yet folded into the arena."""
        return self._pending_edges

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def followers_of(self, b: UserId) -> np.ndarray:
        """Sorted follower ids of *b* (empty array if unknown).

        A zero-copy arena slice unless *b* has pending appended edges, in
        which case a merged (and cached) array is returned.
        """
        row = self._rows.get(b)
        if self._pending:
            merged = self._lookup_merged(b, row)
            if merged is not None:
                return merged
        if row is None:
            return _EMPTY_NDARRAY
        bounds = self._bounds
        return self._arena[bounds[row] : bounds[row + 1]]

    def follower_array(self, b: UserId) -> np.ndarray | None:
        """Like :meth:`followers_of` but ``None`` when *b* is empty."""
        result = self.followers_of(b)
        if len(result):
            return result
        return None

    def has_edge(self, a: UserId, b: UserId) -> bool:
        """True iff *a* follows *b* (binary search in the arena slice)."""
        if self._base_has_edge(a, b):
            return True
        pending = self._pending.get(b)
        return pending is not None and a in pending

    def _base_has_edge(self, a: UserId, b: UserId) -> bool:
        row = self._rows.get(b)
        if row is None:
            return False
        bounds = self._bounds
        lo, hi = bounds[row], bounds[row + 1]
        position = bisect_left(self._arena, a, lo, hi)
        return position < hi and self._arena[position] == a

    def _lookup_merged(self, b: UserId, row: int | None) -> np.ndarray | None:
        """The merged base+overlay list for *b*, or None if no overlay."""
        merged = self._merged_cache.get(b)
        if merged is not None:
            return merged
        pending = self._pending.get(b)
        if pending is None:
            return None
        merged = self._merged(b, row)
        self._merged_cache[b] = merged
        return merged

    def _merged(self, b: UserId, row: int | None) -> np.ndarray:
        """Base slice of *b* merged with its pending appends, sorted."""
        pending = self._pending.get(b)
        if row is None:
            base = _EMPTY_NDARRAY
        else:
            bounds = self._bounds
            base = self._arena[bounds[row] : bounds[row + 1]]
        if not pending:
            return base
        extra = np.fromiter(pending, dtype=np.int64, count=len(pending))
        merged = np.concatenate((base, extra))
        merged.sort()
        return merged

    def __contains__(self, b: UserId) -> bool:
        return b in self._rows or b in self._pending

    def sources(self) -> Iterator[UserId]:
        """All B's with at least one loaded follower."""
        yield from self._rows
        for b in self._pending:
            if b not in self._rows:
                yield b

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def num_targets(self) -> int:
        """Number of distinct B's in the index."""
        extra = sum(1 for b in self._pending if b not in self._rows)
        return len(self._rows) + extra

    @property
    def num_edges(self) -> int:
        """Total loaded ``A -> B`` edges (arena + overlay)."""
        return len(self._arena) + self._pending_edges

    def memory_bytes(self) -> int:
        """Approximate heap footprint of arena, offsets, and row dict."""
        total = int(self._arena.nbytes) + int(self._offsets.nbytes)
        # One boxed bound per offsets slot plus ~60B per row-dict entry
        # (key + small-int row value); far below packed's ~100B + buffer
        # object per B.
        total += len(self._bounds) * 32 + len(self._rows) * 60
        total += self._pending_edges * 80  # boxed overlay sets
        return total

    def degree_histogram(self) -> dict[int, int]:
        """Map ``follower-count -> number of B's with that count``."""
        histogram: dict[int, int] = {}
        if self._pending:
            for b in self.sources():
                degree = len(self.followers_of(b))
                histogram[degree] = histogram.get(degree, 0) + 1
            return histogram
        degrees = np.diff(self._offsets)
        for degree, count in zip(*np.unique(degrees, return_counts=True)):
            histogram[int(degree)] = int(count)
        return histogram


_EMPTY = array("q")
_EMPTY_NDARRAY = np.empty(0, dtype=np.int64)
_EMPTY_NDARRAY.setflags(write=False)
