"""Unit tests for graph snapshots and the offline S bulk-load path."""

import numpy as np
import pytest

from repro.graph.ids import Edge, TimestampedEdge
from repro.graph.snapshot import GraphSnapshot, build_follower_snapshot

EDGES = [(0, 10), (1, 10), (1, 11), (2, 11)]


class TestIds:
    def test_edge_validation(self):
        Edge(0, 1)
        with pytest.raises(ValueError):
            Edge(-1, 0)
        with pytest.raises(ValueError):
            TimestampedEdge(0.0, 0, -2)

    def test_edge_reversed(self):
        assert Edge(1, 2).reversed() == Edge(2, 1)

    def test_timestamped_edge_accessors(self):
        edge = TimestampedEdge(5.0, 1, 2)
        assert edge.edge == Edge(1, 2)
        assert edge.timestamp == 5.0

    def test_ordering_by_timestamp(self):
        early = TimestampedEdge(1.0, 9, 9)
        late = TimestampedEdge(2.0, 0, 0)
        assert early < late


class TestSnapshot:
    def test_views(self):
        snap = GraphSnapshot.from_edges(EDGES, num_nodes=12)
        assert snap.num_users == 12
        assert snap.num_edges == 4
        assert list(snap.followings_of(1)) == [10, 11]
        assert sorted(snap.follow_edges()) == sorted(EDGES)

    def test_weights_default_zero(self):
        snap = GraphSnapshot.from_edges(EDGES, edge_weights={(0, 10): 0.7})
        assert snap.weight_of(0, 10) == 0.7
        assert snap.weight_of(1, 10) == 0.0

    def test_save_load_roundtrip(self, tmp_path):
        weights = {(0, 10): 0.5, (2, 11): 0.25}
        snap = GraphSnapshot.from_edges(EDGES, num_nodes=12, edge_weights=weights)
        path = tmp_path / "snapshot.npz"
        snap.save(path)
        loaded = GraphSnapshot.load(path)
        assert loaded.num_users == snap.num_users
        assert sorted(loaded.follow_edges()) == sorted(snap.follow_edges())
        assert loaded.edge_weights == weights

    def test_save_load_without_weights(self, tmp_path):
        snap = GraphSnapshot.from_edges(EDGES)
        path = tmp_path / "plain.npz"
        snap.save(path)
        loaded = GraphSnapshot.load(path)
        assert loaded.edge_weights == {}
        assert loaded.num_edges == 4


class TestBuildFollowerSnapshot:
    def test_inverts_to_s_structure(self):
        snap = GraphSnapshot.from_edges(EDGES)
        s = build_follower_snapshot(snap)
        assert list(s.followers_of(10)) == [0, 1]
        assert list(s.followers_of(11)) == [1, 2]

    def test_influencer_limit_uses_snapshot_weights(self):
        # User 1 follows 10 (weight .9) and 11 (weight .1); cap 1 keeps 10.
        weights = {(1, 10): 0.9, (1, 11): 0.1}
        snap = GraphSnapshot.from_edges(EDGES, edge_weights=weights)
        s = build_follower_snapshot(snap, influencer_limit=1)
        assert 1 in s.followers_of(10)
        assert 1 not in s.followers_of(11)

    def test_partition_predicate(self):
        snap = GraphSnapshot.from_edges(EDGES)
        s = build_follower_snapshot(snap, sources=np.arange(snap.num_users) == 2)
        assert list(s.followers_of(11)) == [2]
        assert list(s.followers_of(10)) == []
