"""Offline graph snapshots: the system's bulk-load input.

Production computes the ``A -> B`` edges offline ("this allows us to take
advantage of rich features to prune the graph") and loads them into the
serving system periodically.  A :class:`GraphSnapshot` models that artifact:
the forward follow adjacency plus optional per-edge weights (our stand-in
for the proprietary ranking features), with save/load so experiments can
reuse generated graphs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.graph.csr import CsrGraph
from repro.graph.ids import UserId
from repro.graph.static_index import (
    CsrFollowerIndex,
    StaticFollowerIndex,
    build_follower_index,
)


class GraphSnapshot:
    """A frozen follow graph: CSR forward adjacency + optional edge weights."""

    def __init__(
        self,
        graph: CsrGraph,
        edge_weights: dict[tuple[UserId, UserId], float] | None = None,
    ) -> None:
        """Wrap a built CSR graph.

        Args:
            graph: forward adjacency — ``neighbors(a)`` are the accounts
                *a* follows.
            edge_weights: optional affinity scores used by the influencer
                cap; missing edges default to weight 0.
        """
        self.graph = graph
        self.edge_weights = edge_weights or {}

    # ------------------------------------------------------------------
    # Construction / IO
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[UserId, UserId]],
        num_nodes: int | None = None,
        edge_weights: dict[tuple[UserId, UserId], float] | None = None,
    ) -> "GraphSnapshot":
        """Build a snapshot from ``(A, B)`` follow pairs."""
        return cls(CsrGraph.from_edges(edges, num_nodes), edge_weights)

    @classmethod
    def from_arrays(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int | None = None,
    ) -> "GraphSnapshot":
        """Build a snapshot from aligned edge columns (no boxed pairs).

        The chunked generator's entry point; weights are not supported on
        this path (the multi-million-user graphs it exists for never
        score edges).
        """
        return cls(CsrGraph.from_arrays(src, dst, num_nodes))

    def save(self, path: str | Path) -> None:
        """Persist to a compressed ``.npz`` file (CSR arrays + weights)."""
        np.savez_compressed(Path(path), **self.arrays())

    def arrays(self) -> dict[str, np.ndarray]:
        """The arrays :meth:`save` writes, by name.

        :meth:`load` reads them back from compressed and uncompressed
        ``.npz`` files alike.
        """
        weight_keys = np.array(
            [[a, b] for (a, b) in self.edge_weights], dtype=np.int64
        ).reshape(-1, 2)
        weight_values = np.array(list(self.edge_weights.values()), dtype=np.float64)
        return {
            "indptr": self.graph._indptr,
            "indices": self.graph._indices,
            "weight_keys": weight_keys,
            "weight_values": weight_values,
        }

    @classmethod
    def load(cls, path: str | Path) -> "GraphSnapshot":
        """Load a snapshot previously written by :meth:`save`."""
        with np.load(Path(path)) as data:
            graph = CsrGraph(data["indptr"], data["indices"])
            keys = data["weight_keys"]
            values = data["weight_values"]
        weights = {
            (int(keys[i, 0]), int(keys[i, 1])): float(values[i])
            for i in range(len(values))
        }
        return cls(graph, weights)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def num_users(self) -> int:
        """Vertex count."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Follow-edge count."""
        return self.graph.num_edges

    def followings_of(self, a: UserId) -> np.ndarray:
        """Sorted accounts that *a* follows."""
        return self.graph.neighbors(a)

    def follow_edges(self) -> Iterator[tuple[UserId, UserId]]:
        """Iterate all ``(A, B)`` pairs."""
        return self.graph.edges()

    def weight_of(self, a: UserId, b: UserId) -> float:
        """Affinity weight of edge ``a -> b`` (0.0 when unscored)."""
        return self.edge_weights.get((a, b), 0.0)

    def weight_column(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
        """:meth:`weight_of` every ``(src, dst)`` edge; None when unscored."""
        if not self.edge_weights:
            return None
        n = self.num_users
        pairs = np.array(list(self.edge_weights), dtype=np.int64).reshape(-1, 2)
        values = np.fromiter(self.edge_weights.values(), np.float64, len(pairs))
        # Encode pairs as a * n + b; scored pairs outside the graph's id
        # range can never match an edge, so they are dropped first.
        inside = np.all((pairs >= 0) & (pairs < n), axis=1)
        codes = pairs[inside, 0] * n + pairs[inside, 1]
        if not len(codes):
            return np.zeros(len(src))
        order = np.argsort(codes)
        codes, values = codes[order], values[inside][order]
        wanted = src * n + dst
        position = np.searchsorted(codes, wanted).clip(max=len(codes) - 1)
        return np.where(codes[position] == wanted, values[position], 0.0)


def build_follower_snapshot(
    snapshot: GraphSnapshot,
    influencer_limit: int | None = None,
    sources: np.ndarray | None = None,
    backend: str = "csr",
) -> StaticFollowerIndex | CsrFollowerIndex:
    """Invert a snapshot into the serving-side S structure.

    This is the "periodic offline load" step of the paper: take the forward
    ``A -> B`` snapshot, apply the per-user influencer cap using the
    snapshot's edge weights, restrict to a partition's A's, and emit the
    inverse sorted-follower index.  The CSR arrays feed the columnar
    kernel (:func:`~repro.graph.static_index.invert_edge_columns`)
    directly; no edge is ever boxed.

    Args:
        snapshot: the offline forward graph.
        influencer_limit: per-A cap on retained followings.
        sources: partition membership as a boolean mask over user ids.
        backend: ``"csr"`` (default) builds the single-arena
            :class:`~repro.graph.static_index.CsrFollowerIndex`;
            ``"packed"`` builds the per-key
            :class:`~repro.graph.static_index.StaticFollowerIndex`.
            Query results are identical either way.
    """
    src, dst = snapshot.graph.edge_columns()
    weights = None
    if influencer_limit is not None:
        weights = snapshot.weight_column(src, dst)
    return build_follower_index(
        src, dst, backend, influencer_limit, weights, sources
    )
