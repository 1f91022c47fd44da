"""The columnar S load against the dict-based reference inversion.

Every production path that builds S — ``from_follow_edges``,
``build_follower_snapshot``, ``MotifEngine.from_snapshot``,
``Cluster.build`` and ``Cluster.reload_snapshot`` — runs the one
vectorised kernel, ``invert_edge_columns``.  End-to-end detection
oracles share that kernel, so they cannot catch a bug in it; this
module pins it against the original per-edge inversion (group by A,
influencer cap by ``(-weight, B)``, partition predicate, invert, sort),
kept here as the executable spec.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig, HashPartitioner, ModuloPartitioner
from repro.core import MotifEngine
from repro.graph import (
    CsrFollowerIndex,
    GraphSnapshot,
    StaticFollowerIndex,
    build_follower_snapshot,
)
from repro.graph.static_index import invert_edge_columns

NUM_IDS = 24


def reference_inversion(
    edges: Iterable[tuple[int, int]],
    influencer_limit: int | None = None,
    edge_weight: Callable[[int, int], float] | None = None,
    include_source: Callable[[int], bool] | None = None,
) -> dict[int, list[int]]:
    """``(A, B)`` edges -> ``B -> sorted distinct A's``, one edge at a time."""
    followings: dict[int, set[int]] = {}
    for a, b in edges:
        if include_source is not None and not include_source(a):
            continue
        followings.setdefault(a, set()).add(b)

    inverse: dict[int, list[int]] = {}
    for a, b_set in followings.items():
        kept: Iterable[int] = b_set
        if influencer_limit is not None and len(b_set) > influencer_limit:
            if edge_weight is None:
                kept = sorted(b_set)[:influencer_limit]
            else:
                kept = sorted(
                    b_set, key=lambda b: (-edge_weight(a, b), b)
                )[:influencer_limit]
        for b in kept:
            inverse.setdefault(b, []).append(a)
    for a_list in inverse.values():
        a_list.sort()
    return inverse


def assert_matches_reference(index, reference: dict[int, list[int]]) -> None:
    assert set(index.sources()) == set(reference)
    assert index.num_edges == sum(len(row) for row in reference.values())
    for b in range(NUM_IDS + 1):
        assert list(index.followers_of(b)) == reference.get(b, [])


edge_lists = st.lists(
    st.tuples(st.integers(0, NUM_IDS - 1), st.integers(0, NUM_IDS - 1)),
    max_size=150,
)
limits = st.one_of(st.none(), st.integers(1, 5))
# Few distinct values, so weight ties (broken by the lower B) are common.
weight_maps = st.one_of(
    st.none(),
    st.dictionaries(
        st.tuples(st.integers(0, NUM_IDS - 1), st.integers(0, NUM_IDS - 1)),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        max_size=80,
    ),
)
masks = st.one_of(st.none(), st.lists(st.booleans(), min_size=NUM_IDS, max_size=NUM_IDS))


def _weight_fn(weights):
    if weights is None:
        return None
    return lambda a, b: weights.get((a, b), 0.0)


@settings(max_examples=150, deadline=None)
@given(edges=edge_lists, limit=limits, weights=weight_maps, mask=masks)
def test_kernel_matches_reference(edges, limit, weights, mask):
    edge_weight = _weight_fn(weights)
    sources = None if mask is None else np.array(mask)
    reference = reference_inversion(
        edges,
        limit,
        edge_weight,
        None if mask is None else (lambda a: mask[a]),
    )
    for cls in (CsrFollowerIndex, StaticFollowerIndex):
        index = cls.from_follow_edges(edges, limit, edge_weight, sources)
        assert_matches_reference(index, reference)


@settings(max_examples=100, deadline=None)
@given(edges=edge_lists, limit=limits, mask=masks)
def test_kernel_triple_is_ascending_csr(edges, limit, mask):
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    keys, offsets, arena = invert_edge_columns(
        pairs[:, 0],
        pairs[:, 1],
        limit,
        sources=None if mask is None else np.array(mask),
    )
    assert np.all(np.diff(keys) > 0)
    assert offsets[0] == 0 and offsets[-1] == len(arena)
    assert len(offsets) == len(keys) + 1
    for row in range(len(keys)):
        assert np.all(np.diff(arena[offsets[row] : offsets[row + 1]]) > 0)
        assert offsets[row + 1] > offsets[row]


@settings(max_examples=100, deadline=None)
@given(edges=edge_lists, limit=limits, weights=weight_maps, mask=masks)
def test_csr_and_packed_answer_identically(edges, limit, weights, mask):
    edge_weight = _weight_fn(weights)
    sources = None if mask is None else np.array(mask)
    csr = CsrFollowerIndex.from_follow_edges(edges, limit, edge_weight, sources)
    packed = StaticFollowerIndex.from_follow_edges(edges, limit, edge_weight, sources)
    assert list(csr.sources()) == list(packed.sources())
    assert csr.num_targets == packed.num_targets
    assert csr.num_edges == packed.num_edges
    assert csr.degree_histogram() == packed.degree_histogram()
    for b in range(NUM_IDS + 1):
        assert list(csr.followers_of(b)) == list(packed.followers_of(b))
        csr_array, packed_array = csr.follower_array(b), packed.follower_array(b)
        assert (csr_array is None) == (packed_array is None)
        if csr_array is not None:
            assert csr_array.tolist() == packed_array.tolist()
        for a in range(NUM_IDS):
            assert csr.has_edge(a, b) == packed.has_edge(a, b)


def _snapshot(edges, weights) -> GraphSnapshot:
    return GraphSnapshot.from_edges(edges, num_nodes=NUM_IDS, edge_weights=weights)


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists, limit=limits, weights=weight_maps, mask=masks)
def test_snapshot_load_matches_reference(edges, limit, weights, mask):
    snapshot = _snapshot(edges, weights)
    weight = snapshot.weight_of if snapshot.edge_weights else None
    reference = reference_inversion(
        snapshot.follow_edges(),
        limit,
        weight,
        None if mask is None else (lambda a: mask[a]),
    )
    sources = None if mask is None else np.array(mask)
    for backend in ("csr", "packed"):
        index = build_follower_snapshot(snapshot, limit, sources, backend)
        assert_matches_reference(index, reference)
    engine = MotifEngine.from_snapshot(snapshot, influencer_limit=limit)
    assert_matches_reference(
        engine.static_index,
        reference_inversion(snapshot.follow_edges(), limit, weight),
    )


def _shards(cluster: Cluster) -> list:
    return [rs.replicas[0].engine.static_index for rs in cluster.replica_sets]


@pytest.mark.parametrize("num_partitions", [1, 2, 4, 20])
@pytest.mark.parametrize("partitioner_cls", [HashPartitioner, ModuloPartitioner])
@settings(max_examples=15, deadline=None)
@given(
    edges=edge_lists,
    reload_edges=edge_lists,
    limit=limits,
    weights=weight_maps,
)
def test_cluster_shards_match_reference(
    partitioner_cls, num_partitions, edges, reload_edges, limit, weights
):
    partitioner = partitioner_cls(num_partitions)
    cluster = Cluster.build(
        _snapshot(edges, weights),
        config=ClusterConfig(num_partitions=num_partitions, influencer_limit=limit),
        partitioner=partitioner,
    )

    def check(snapshot: GraphSnapshot) -> None:
        weight = snapshot.weight_of if snapshot.edge_weights else None
        for p, shard in enumerate(_shards(cluster)):
            reference = reference_inversion(
                snapshot.follow_edges(),
                limit,
                weight,
                lambda a: partitioner.partition_of(a) == p,
            )
            assert_matches_reference(shard, reference)

    check(_snapshot(edges, weights))
    reloaded = _snapshot(reload_edges, weights)
    assert cluster.reload_snapshot(reloaded, influencer_limit=limit) == num_partitions
    check(reloaded)


def test_weight_column_ignores_pairs_outside_the_graph():
    snapshot = GraphSnapshot.from_edges(
        [(0, 1), (0, 2), (1, 2)],
        edge_weights={(0, 2): 0.5, (1, 2): 0.25, (2, 0): 9.0, (7, 1): 3.0},
    )
    src, dst = snapshot.graph.edge_columns()
    assert snapshot.weight_column(src, dst).tolist() == [0.0, 0.5, 0.25]
