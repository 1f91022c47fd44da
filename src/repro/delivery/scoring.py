"""Candidate scoring and top-k selection under the fatigue budget.

The fatigue filter caps pushes per user per day; production must then
choose *which* candidates spend the budget.  The natural score for a
diamond candidate combines:

* **corroboration** — how many fresh witnesses completed the motif (a
  candidate seen via 7 followings beats one seen via 3); and
* **freshness** — exponentially decayed age, because "what's hot" cools.

:class:`TopKPerUserBuffer` batches raw candidates per recipient over a
short window and releases only each user's top-k, which is how a ranked
delivery stage slots between detection and the fatigue filter.

The buffer is *columnar*: offers accumulate as
:class:`~repro.core.recommendation.RecommendationGroup` references — a
viral trigger's whole audience lands as one array — and
:meth:`~TopKPerUserBuffer.flush` computes every user's top-k with a
handful of vectorized passes (lexsort over recipient-grouped segments,
with a per-segment argpartition pre-cut once the buffer outgrows
:data:`PRECUT_THRESHOLD`).  The winners leave as a :class:`RankedRelease`:
columns in release order that the funnel and the serving cache consume
directly, so only the funnel's survivors are ever boxed.  Semantics are
identical to the per-candidate reference path
(``tests/test_delivery_scoring.py`` enforces winners, tie-breaking, and
flush order with Hypothesis).

>>> from repro.core.recommendation import RecommendationBatch, RecommendationGroup
>>> buffer = TopKPerUserBuffer(k=1)
>>> buffer.offer_batch(RecommendationBatch([
...     RecommendationGroup([1, 2], candidate=10, created_at=0.0, via=(5,)),
...     RecommendationGroup([1], candidate=11, created_at=0.0, via=(5, 6)),
... ]))
>>> [(rec.recipient, rec.candidate) for rec in buffer.flush(now=0.0)]
[(1, 11), (2, 10)]
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.recommendation import (
    CandidateColumns,
    Recommendation,
    RecommendationBatch,
    RecommendationGroup,
)
from repro.util.validation import require_positive

#: Buffers below this many deduped rows flush with the pure ranking
#: lexsort; at or above it each recipient segment is first cut down to
#: its top-k score range with an O(n) introselect, so the O(n log n)
#: sort only sees potential winners (crossover measured by the E17c
#: record in docs/BENCHMARKS.md).
PRECUT_THRESHOLD = 4096


def decayed_scores(
    witnesses: np.ndarray,
    created_at: np.ndarray,
    now: float,
    half_life: float = 1_800.0,
) -> np.ndarray:
    """Corroboration x freshness scores for aligned candidate columns.

    The canonical score computation: ``max(witnesses, 1)`` scaled by
    ``2 ** (-age / half_life)``.  :func:`witness_score` delegates here so
    the scalar and vectorized paths agree bit for bit (``np.exp2`` keeps
    one code path; mixing in ``math.pow`` would not — numpy's SIMD
    kernels round differently in the last ulp).
    """
    require_positive(half_life, "half_life")
    ages = np.maximum(now - created_at, 0.0)
    return np.maximum(witnesses, 1).astype(np.float64) * np.exp2(
        -ages / half_life
    )


def witness_score(
    rec: Recommendation, now: float, half_life: float = 1_800.0
) -> float:
    """Corroboration x freshness score for one candidate.

    ``len(rec.via)`` is the witness count at emission time; age decays
    with the given *half_life* in seconds.  Candidates with no recorded
    witnesses (foreign detectors) score as single-witness.
    """
    return float(
        decayed_scores(
            np.array([len(rec.via)], dtype=np.int64),
            np.array([rec.created_at], dtype=np.float64),
            now,
            half_life,
        )[0]
    )


class RankedRelease:
    """One top-k flush's winners, columnar, in release order.

    Aligned ``recipients``, ``candidates``, ``scores``, ``witnesses`` and
    ``created_at`` columns, one row per winner, plus the index of each
    winner's source group, whose shared metadata (motif, action, witness
    tuple) boxing needs.  ``scores`` were computed at ``now`` with
    ``half_life``.

    It speaks the funnel's batch protocol — ``len``, :meth:`columns`,
    :meth:`select`, iteration, and a lazy :attr:`groups` list for the
    delivery shard split and the wire — so a flush feeds
    ``offer_batch`` and the serving cache without boxing anything the
    funnel drops.
    """

    def __init__(
        self,
        sources: list[RecommendationGroup],
        source_ids: np.ndarray,
        columns: tuple[np.ndarray, ...],
        now: float,
        half_life: float,
    ) -> None:
        (
            self.recipients,
            self.candidates,
            self.scores,
            self.witnesses,
            self.created_at,
        ) = columns
        self.now = now
        self.half_life = half_life
        self._sources = sources
        self._source_ids = source_ids
        self._groups: list[RecommendationGroup] | None = None

    def __len__(self) -> int:
        return len(self.recipients)

    def columns(self) -> CandidateColumns:
        """The (recipients, candidates) funnel columns."""
        return CandidateColumns(self.recipients, self.candidates)

    def scores_at(self, now: float, half_life: float) -> np.ndarray:
        """The winners' scores as of *now* under *half_life* (the flush's
        own column when both match)."""
        if now == self.now and half_life == self.half_life:
            return self.scores
        return decayed_scores(self.witnesses, self.created_at, now, half_life)

    def select(self, indices: np.ndarray) -> list[Recommendation]:
        """Box only the winners at the ascending release *indices*."""
        sources = self._sources
        out: list[Recommendation] = []
        for recipient, source in zip(
            self.recipients[indices].tolist(),
            self._source_ids[indices].tolist(),
        ):
            group = sources[source]
            out.append(
                Recommendation(
                    recipient=recipient,
                    candidate=group.candidate,
                    created_at=group.created_at,
                    motif=group.motif,
                    action=group.action,
                    via=group.via,
                )
            )
        return out

    def to_recommendations(self) -> list[Recommendation]:
        """Every winner boxed, in release order."""
        return self.select(np.arange(len(self)))

    def __iter__(self) -> Iterator[Recommendation]:
        return iter(self.to_recommendations())

    def __getitem__(self, i: int) -> Recommendation:
        return self.select(np.arange(len(self))[[i]])[0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RankedRelease, RecommendationBatch, list, tuple)):
            return self.to_recommendations() == list(other)
        return NotImplemented

    @property
    def groups(self) -> list[RecommendationGroup]:
        """The release as detection groups, in release order (cached).

        Consecutive winners from one source group share its metadata, so
        each such run becomes one group over its recipient slice.
        """
        groups = self._groups
        if groups is None:
            ids = self._source_ids
            starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]]) if len(ids) else ids
            stops = np.r_[starts[1:], len(ids)]
            sources = self._sources
            groups = self._groups = [
                sources[source].with_recipients(self.recipients[start:stop])
                for source, start, stop in zip(
                    ids[starts].tolist(), starts.tolist(), stops.tolist()
                )
            ]
        return groups


class TopKPerUserBuffer:
    """Batch candidates per recipient; flush releases each user's best k.

    Dedups by (recipient, candidate) within the buffer, keeping the
    first-offered instance with the highest witness count (later offers
    replace only on *strictly more* witnesses), so a re-firing motif does
    not crowd out distinct candidates.

    Offers are O(1) appends — a whole detection group lands as one
    reference, a scalar offer as one list append (re-columned into groups
    before the next group or the flush) — and all selection work happens
    in :meth:`flush`, vectorized over the accumulated columns.
    """

    def __init__(
        self,
        k: int = 2,
        half_life: float = 1_800.0,
        precut_threshold: int = PRECUT_THRESHOLD,
    ) -> None:
        """Create a buffer releasing at most *k* candidates per user.

        *precut_threshold* is the deduped-row count at which flush
        switches from the pure ranking lexsort to the per-recipient
        argpartition pre-cut (see :data:`PRECUT_THRESHOLD`).
        """
        require_positive(k, "k")
        require_positive(half_life, "half_life")
        require_positive(precut_threshold, "precut_threshold")
        self.k = k
        self.half_life = half_life
        self.precut_threshold = precut_threshold
        #: Offered groups, in offer order.
        self._groups: list[RecommendationGroup] = []
        #: Scalar offers not yet re-columned into ``_groups``.
        self._boxed: list[Recommendation] = []
        self._buffered = 0
        self.offered = 0

    def offer(self, rec: Recommendation) -> None:
        """Add one raw (boxed) candidate to the buffer."""
        self.offered += 1
        self._buffered += 1
        self._boxed.append(rec)

    def offer_batch(self, batch: RecommendationBatch) -> None:
        """Offer every candidate of a columnar batch, in order.

        Equivalent to per-candidate :meth:`offer` calls, but nothing is
        boxed: each group is buffered by reference and its shared
        metadata expands to columns only at :meth:`flush`.
        """
        size = len(batch)
        self.offered += size
        self._buffered += size
        self._seal()
        self._groups.extend(batch.groups)

    def _seal(self) -> None:
        """Re-column the pending scalar offers, keeping offer order."""
        if self._boxed:
            self._groups.extend(
                RecommendationBatch.from_recommendations(self._boxed).groups
            )
            self._boxed = []

    @staticmethod
    def _dedup(
        recipients: np.ndarray, candidates: np.ndarray, witnesses: np.ndarray
    ) -> np.ndarray:
        """Flat indices surviving the (recipient, candidate) dedup, sorted
        by recipient.

        The per-candidate rule — replace only on strictly more witnesses —
        keeps, for each pair, the *first* occurrence of its maximum
        witness count; a stable lexsort on (recipient, candidate,
        -witnesses) puts exactly that occurrence first in each pair's run.
        """
        order = np.lexsort((-witnesses, candidates, recipients))
        sorted_recipients = recipients[order]
        sorted_candidates = candidates[order]
        first_in_pair = np.r_[
            True,
            (sorted_recipients[1:] != sorted_recipients[:-1])
            | (sorted_candidates[1:] != sorted_candidates[:-1]),
        ]
        return order[first_in_pair]

    def _precut(
        self, recipients: np.ndarray, scores: np.ndarray
    ) -> np.ndarray | None:
        """Indices surviving the per-recipient argpartition pre-cut.

        ``recipients`` arrives recipient-sorted (from :meth:`_dedup`),
        so each recipient's rows form one contiguous segment.  Segments
        larger than *k* are cut to the rows scoring at least the
        segment's k-th best — *including* every boundary tie, so the
        ranking lexsort's (-score, candidate) tie-break still sees every
        row that could place in the top k and returns exactly the uncut
        sort's winners.  Returns ``None`` below :attr:`precut_threshold`,
        where one lexsort is cheaper than the extra pass.
        """
        if len(recipients) < self.precut_threshold:
            return None
        seg_first = np.r_[True, recipients[1:] != recipients[:-1]]
        bounds = np.r_[np.flatnonzero(seg_first), len(recipients)]
        keep = np.ones(len(recipients), dtype=bool)
        k = self.k
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            size = stop - start
            if size <= k:
                continue
            segment = scores[start:stop]
            kth_best = np.partition(segment, size - k)[size - k]
            keep[start:stop] = segment >= kth_best
        return np.flatnonzero(keep)

    def pending(self) -> int:
        """Distinct (recipient, candidate) pairs currently buffered."""
        if not self._buffered:
            return 0
        self._seal()
        columns = RecommendationBatch(self._groups).expand(
            "candidate", "num_witnesses"
        )
        return len(self._dedup(*columns))

    def flush(self, now: float) -> RankedRelease:
        """Release each user's top-k by score; clears the buffers.

        Release order is (recipient, descending score, candidate) so
        downstream filters see each user's best candidate first — the
        fatigue filter then spends the budget on the highest-scoring
        ones.  Nothing is boxed: the winners leave as columns, and
        everything below the cut is dropped with the buffers.
        """
        self._seal()
        batch = RecommendationBatch(self._groups)
        self._groups = []
        self._buffered = 0
        recipients, candidates, witnesses, created_at = batch.expand(
            "candidate", "num_witnesses", "created_at"
        )
        winners = np.empty(0, dtype=np.int64)
        scores = np.empty(0, dtype=np.float64)
        if len(recipients):
            kept = self._dedup(recipients, candidates, witnesses)
            kept_scores = decayed_scores(
                witnesses[kept], created_at[kept], now, self.half_life
            )
            survivors = self._precut(recipients[kept], kept_scores)
            if survivors is not None:
                kept = kept[survivors]
                kept_scores = kept_scores[survivors]
            kept_recipients = recipients[kept]
            ranking = np.lexsort((candidates[kept], -kept_scores, kept_recipients))
            ranked_recipients = kept_recipients[ranking]
            run_first = np.r_[True, ranked_recipients[1:] != ranked_recipients[:-1]]
            run_starts = np.flatnonzero(run_first)
            run_ids = np.cumsum(run_first) - 1
            rank_in_run = np.arange(len(ranking)) - run_starts[run_ids]
            win = ranking[rank_in_run < self.k]
            winners = kept[win]
            scores = kept_scores[win]
        source_ids = np.searchsorted(batch.offsets(), winners, side="right") - 1
        return RankedRelease(
            batch.groups,
            source_ids,
            (
                recipients[winners],
                candidates[winners],
                scores,
                witnesses[winners],
                created_at[winners],
            ),
            now,
            self.half_life,
        )
