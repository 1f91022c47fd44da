"""Unit + property tests for candidate scoring and top-k selection.

The buffer is columnar (offers accumulate as numpy columns, flush runs a
vectorized per-recipient top-k); :func:`reference_flush` is the boxed
per-candidate model it must match — the dict-of-dicts implementation the
vectorized path replaced, kept here as the semantic oracle for winners,
tie-breaking, and flush order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recommendation import (
    Recommendation,
    RecommendationBatch,
    RecommendationGroup,
)
from repro.delivery import TopKPerUserBuffer, witness_score
from repro.delivery.scoring import decayed_scores


def rec(recipient=1, candidate=2, created_at=0.0, witnesses=3):
    return Recommendation(
        recipient=recipient,
        candidate=candidate,
        created_at=created_at,
        via=tuple(range(100, 100 + witnesses)),
    )


def reference_flush(offers, k, half_life, now):
    """The per-candidate reference: dict buffers + boxed sort at flush."""
    buffers: dict[int, dict[int, Recommendation]] = {}
    for offered in offers:
        per_user = buffers.setdefault(offered.recipient, {})
        existing = per_user.get(offered.candidate)
        if existing is None or len(offered.via) > len(existing.via):
            per_user[offered.candidate] = offered
    released = []
    for recipient in sorted(buffers):
        candidates = list(buffers[recipient].values())
        candidates.sort(
            key=lambda r: (-witness_score(r, now, half_life), r.candidate)
        )
        released.extend(candidates[:k])
    return released


class TestWitnessScore:
    def test_more_witnesses_score_higher(self):
        now = 0.0
        few = witness_score(rec(witnesses=3), now)
        many = witness_score(rec(witnesses=7), now)
        assert many > few

    def test_decays_with_half_life(self):
        fresh = witness_score(rec(created_at=0.0), now=0.0, half_life=100.0)
        aged = witness_score(rec(created_at=0.0), now=100.0, half_life=100.0)
        assert aged == pytest.approx(fresh / 2.0)

    def test_future_created_at_clamped(self):
        # Clock skew: a candidate "from the future" scores as fresh.
        score = witness_score(rec(created_at=50.0), now=0.0)
        assert score == witness_score(rec(created_at=0.0), now=0.0)

    def test_empty_via_scores_as_one_witness(self):
        bare = Recommendation(recipient=1, candidate=2, created_at=0.0)
        assert witness_score(bare, now=0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            witness_score(rec(), now=0.0, half_life=0.0)


class TestTopKPerUserBuffer:
    def test_releases_top_k_by_score(self):
        buffer = TopKPerUserBuffer(k=2)
        buffer.offer(rec(candidate=10, witnesses=3))
        buffer.offer(rec(candidate=11, witnesses=7))
        buffer.offer(rec(candidate=12, witnesses=5))
        released = buffer.flush(now=0.0)
        assert [r.candidate for r in released] == [11, 12]

    def test_users_independent(self):
        buffer = TopKPerUserBuffer(k=1)
        buffer.offer(rec(recipient=1, candidate=10))
        buffer.offer(rec(recipient=2, candidate=20))
        released = buffer.flush(now=0.0)
        assert {(r.recipient, r.candidate) for r in released} == {
            (1, 10), (2, 20),
        }

    def test_dedup_keeps_strongest_instance(self):
        buffer = TopKPerUserBuffer(k=5)
        buffer.offer(rec(candidate=10, witnesses=3))
        buffer.offer(rec(candidate=10, witnesses=8))  # re-fire, stronger
        buffer.offer(rec(candidate=10, witnesses=4))
        released = buffer.flush(now=0.0)
        assert len(released) == 1
        assert len(released[0].via) == 8
        assert buffer.pending() == 0

    def test_freshness_breaks_witness_ties(self):
        buffer = TopKPerUserBuffer(k=1, half_life=60.0)
        buffer.offer(rec(candidate=10, created_at=0.0, witnesses=4))
        buffer.offer(rec(candidate=11, created_at=300.0, witnesses=4))
        released = buffer.flush(now=300.0)
        assert released[0].candidate == 11  # same witnesses, much fresher

    def test_flush_clears_state(self):
        buffer = TopKPerUserBuffer(k=1)
        buffer.offer(rec())
        buffer.flush(now=0.0)
        assert buffer.flush(now=1.0) == []
        assert buffer.offered == 1

    @given(
        offers=st.lists(
            st.tuples(
                st.integers(0, 3),    # recipient
                st.integers(0, 10),   # candidate
                st.integers(1, 9),    # witnesses
            ),
            max_size=50,
        ),
        k=st.integers(1, 4),
    )
    def test_never_releases_more_than_k_per_user(self, offers, k):
        buffer = TopKPerUserBuffer(k=k)
        for recipient, candidate, witnesses in offers:
            buffer.offer(rec(recipient=recipient, candidate=candidate, witnesses=witnesses))
        released = buffer.flush(now=0.0)
        per_user: dict[int, int] = {}
        for r in released:
            per_user[r.recipient] = per_user.get(r.recipient, 0) + 1
        assert all(count <= k for count in per_user.values())
        # And no duplicate (recipient, candidate) pairs escape.
        pairs = [(r.recipient, r.candidate) for r in released]
        assert len(pairs) == len(set(pairs))


# ---------------------------------------------------------------------------
# Columnar flush == per-candidate reference (the vectorized-scoring oracle)
# ---------------------------------------------------------------------------

def group_strategy():
    """One detection group, tuned to collide recipients and candidates."""
    return st.builds(
        lambda recipients, candidate, created_at, witnesses: RecommendationGroup(
            recipients,
            candidate=candidate,
            created_at=created_at,
            via=tuple(range(200, 200 + witnesses)),
        ),
        recipients=st.lists(st.integers(0, 5), min_size=1, max_size=6),
        candidate=st.integers(0, 7),
        created_at=st.floats(0.0, 5_000.0, allow_nan=False),
        witnesses=st.integers(0, 5),
    )


def identity(recommendation):
    return (
        recommendation.recipient,
        recommendation.candidate,
        recommendation.created_at,
        recommendation.via,
    )


class TestColumnarFlushEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        batches=st.lists(
            st.lists(group_strategy(), min_size=0, max_size=4), min_size=1, max_size=4
        ),
        k=st.integers(1, 3),
        half_life=st.floats(10.0, 10_000.0, allow_nan=False),
        now=st.floats(0.0, 10_000.0, allow_nan=False),
    )
    def test_offer_batch_flush_matches_reference(self, batches, k, half_life, now):
        """Columnar accumulate + vectorized flush == dict model, exactly:
        same winners (including which duplicate instance won), same
        tie-breaking, same flush order."""
        buffer = TopKPerUserBuffer(k=k, half_life=half_life)
        boxed: list[Recommendation] = []
        for groups in batches:
            batch = RecommendationBatch(groups)
            buffer.offer_batch(batch)
            boxed.extend(batch)
        expected = reference_flush(boxed, k, half_life, now)
        assert buffer.offered == len(boxed)
        released = buffer.flush(now)
        assert [identity(r) for r in released] == [identity(r) for r in expected]
        assert buffer.pending() == 0

    @settings(max_examples=60, deadline=None)
    @given(
        offers=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.integers(0, 6),
                st.integers(0, 5),
                st.floats(0.0, 1_000.0, allow_nan=False),
            ),
            max_size=40,
        ),
        groups=st.lists(group_strategy(), max_size=3),
        k=st.integers(1, 3),
    )
    def test_interleaved_scalar_and_batch_offers_match_reference(
        self, offers, groups, k
    ):
        """Scalar offers and columnar groups share one buffer; the global
        offer order decides which duplicate instance survives."""
        buffer = TopKPerUserBuffer(k=k)
        boxed: list[Recommendation] = []
        half = len(offers) // 2
        for recipient, candidate, witnesses, created_at in offers[:half]:
            offered = rec(
                recipient=recipient, candidate=candidate,
                created_at=created_at, witnesses=witnesses,
            )
            buffer.offer(offered)
            boxed.append(offered)
        batch = RecommendationBatch(groups)
        buffer.offer_batch(batch)
        boxed.extend(batch)
        for recipient, candidate, witnesses, created_at in offers[half:]:
            offered = rec(
                recipient=recipient, candidate=candidate,
                created_at=created_at, witnesses=witnesses,
            )
            buffer.offer(offered)
            boxed.append(offered)
        expected = reference_flush(boxed, k, 1_800.0, now=500.0)
        released = buffer.flush(now=500.0)
        assert [identity(r) for r in released] == [identity(r) for r in expected]

    def test_pending_counts_distinct_pairs_across_chunk_kinds(self):
        buffer = TopKPerUserBuffer(k=2)
        buffer.offer(rec(recipient=1, candidate=10))
        buffer.offer_batch(
            RecommendationBatch(
                [RecommendationGroup([1, 2], candidate=10, created_at=0.0)]
            )
        )
        assert buffer.pending() == 2  # (1, 10) deduped across chunk kinds
        assert buffer.offered == 3

    def test_scalar_score_matches_vectorized_bitwise(self):
        """witness_score delegates to the columnar kernel, so sort keys
        computed either way are bit-identical (numpy's SIMD exp2 does not
        round like libm pow in the last ulp — one code path, no ties
        broken differently)."""
        rng = np.random.default_rng(7)
        created = rng.uniform(0.0, 5_000.0, 500)
        witnesses = rng.integers(0, 9, 500)
        now, half_life = 5_100.0, 333.0
        vector = decayed_scores(witnesses, created, now, half_life)
        for i in range(500):
            boxed = Recommendation(
                recipient=1,
                candidate=2,
                created_at=float(created[i]),
                via=tuple(range(int(witnesses[i]))),
            )
            assert witness_score(boxed, now, half_life) == vector[i]


class TestRankedRelease:
    """flush returns a columnar RankedRelease; boxing it must reproduce
    the per-candidate reference exactly, order included."""

    @settings(max_examples=100, deadline=None)
    @given(
        batches=st.lists(
            st.lists(group_strategy(), min_size=0, max_size=4), min_size=1, max_size=4
        ),
        k=st.integers(1, 3),
        now=st.floats(0.0, 10_000.0, allow_nan=False),
    )
    def test_boxed_release_equals_reference(self, batches, k, now):
        buffer = TopKPerUserBuffer(k=k)
        boxed: list[Recommendation] = []
        for groups in batches:
            batch = RecommendationBatch(groups)
            buffer.offer_batch(batch)
            boxed.extend(batch)
        release = buffer.flush(now)
        expected = reference_flush(boxed, k, 1_800.0, now)
        assert [identity(r) for r in release] == [identity(r) for r in expected]
        # The columns and the boxed view agree row for row.
        assert release.recipients.tolist() == [r.recipient for r in expected]
        assert release.candidates.tolist() == [r.candidate for r in expected]
        assert release.witnesses.tolist() == [len(r.via) for r in expected]
        assert release.created_at.tolist() == [r.created_at for r in expected]
        assert release.scores.tolist() == [
            witness_score(r, now, 1_800.0) for r in expected
        ]
        # The lazy groups iterate as the same boxed sequence.
        assert [identity(r) for r in RecommendationBatch(release.groups)] == [
            identity(r) for r in expected
        ]
        picked = np.arange(len(release))[::2]
        assert [identity(r) for r in release.select(picked)] == [
            identity(expected[i]) for i in picked.tolist()
        ]

    def test_empty_flush_is_an_empty_release(self):
        release = TopKPerUserBuffer(k=2).flush(now=3.0)
        assert len(release) == 0
        assert release == []
        assert release.groups == []
        assert len(release.columns()) == 0

    def test_scores_at_reuses_or_rescores(self):
        buffer = TopKPerUserBuffer(k=2, half_life=60.0)
        buffer.offer(rec(candidate=10, created_at=0.0, witnesses=2))
        release = buffer.flush(now=60.0)
        assert release.scores_at(60.0, 60.0) is release.scores
        assert release.scores_at(120.0, 60.0).tolist() == [0.5]


class TestArgpartitionPrecut:
    """The large-buffer argpartition pre-cut must be invisible in output."""

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(
            st.lists(group_strategy(), min_size=0, max_size=4),
            min_size=1,
            max_size=4,
        ),
        k=st.integers(1, 3),
        now=st.floats(0.0, 10_000.0, allow_nan=False),
    )
    def test_precut_flush_matches_pure_lexsort(self, batches, k, now):
        plain = TopKPerUserBuffer(k=k, precut_threshold=10**9)
        precut = TopKPerUserBuffer(k=k, precut_threshold=1)
        for groups in batches:
            plain.offer_batch(RecommendationBatch(groups))
            precut.offer_batch(RecommendationBatch(groups))
        assert [identity(r) for r in precut.flush(now)] == [
            identity(r) for r in plain.flush(now)
        ]

    def test_precut_keeps_boundary_score_ties(self):
        # 6 candidates for one user, 4 tied at the cut score: the pre-cut
        # must keep every tied row so the candidate-id tie-break decides.
        buffer = TopKPerUserBuffer(k=2, precut_threshold=1)
        groups = [
            RecommendationGroup([1], candidate=c, created_at=0.0, via=(9,))
            for c in (15, 11, 13, 14, 12, 10)
        ]
        buffer.offer_batch(RecommendationBatch(groups))
        released = buffer.flush(now=0.0)
        assert [r.candidate for r in released] == [10, 11]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            TopKPerUserBuffer(k=2, precut_threshold=0)
