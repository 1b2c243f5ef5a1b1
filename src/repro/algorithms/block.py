"""Block-based TA / BPA / BPA2 — the reference single-node variants.

The paper's middleware cost model charges per *access*, but every real
source (disk page, columnar slice, network round trip) serves a block of
entries for nearly the price of one.  These variants process ``width``
positions per round:

* one **sorted block** per list (``ta-block`` / ``bpa-block``) or one
  **direct block** per non-exhausted list — up to ``width`` direct
  accesses, each at the best position + 1, marks advancing the best
  position between them (``bpa2-block``);
* then **deduplicated** random probes: each distinct newly-surfaced item
  is completed exactly once, in every list that did not surface it this
  round (unlike classic TA's Lemma 2 accounting, which re-probes seen
  items).

``ta-block`` and ``bpa-block`` share one sorted-block loop: BPA adds
only the originator's best positions, and its bound scores the local
scores at them instead of the last ones seen.

Stop tests run once per block round with the round-end threshold, which
is never larger than any intermediate one, so the returned top-k is an
exact global top-k: the classic algorithm's ranked scores, and its
items unless an item outside its answer ties its k-th score;
``tests/differential/test_block_variants.py`` holds them to that, and
proves these reference implementations bit-identical (tallies and
rounds included) to the unified round-plan engine over every
transport.

``width=1`` degenerates to a memoized per-entry algorithm — still exact,
but with fewer random accesses than the paper's accounting, which is why
these register under their own names instead of replacing TA/BPA/BPA2.
"""

from __future__ import annotations

from repro.algorithms.base import TopKAlgorithm, TopKBuffer, register
from repro.core.best_position import make_tracker
from repro.errors import InvalidQueryError
from repro.exec.plan import BestPositions, BlockRound
from repro.lists.accessor import DatabaseAccessor
from repro.scoring import ScoringFunction
from repro.types import ItemId, Position, Score

_INF = float("inf")


class _BlockAlgorithm(TopKAlgorithm):
    """Shared validation and probe plumbing for the block variants."""

    def __init__(self, *, width: int = 8, tracker: str = "bitarray") -> None:
        if width < 1:
            raise InvalidQueryError(f"block width must be >= 1, got {width}")
        self._width = width
        self._tracker_kind = tracker

    @property
    def width(self) -> int:
        """Positions processed per block round."""
        return self._width

    @staticmethod
    def _probe(
        accessor: DatabaseAccessor, block: BlockRound
    ) -> list[list[tuple[Score, Position]]]:
        """Batched probes per list for the round's needs, filled into
        ``block``; returns each list's ``(score, position)`` pairs."""
        probed: list[list[tuple[Score, Position]]] = []
        for j, items in enumerate(block.probe_needs()):
            if items:
                scores, positions = accessor[j].lookup_many(items)
                pairs = [(float(s), int(p)) for s, p in zip(scores, positions)]
                block.fill(j, items, pairs)
                probed.append(pairs)
            else:
                probed.append([])
        return probed


class _SortedBlockAlgorithm(_BlockAlgorithm):
    """The sorted-block loop of ``ta-block`` and ``bpa-block``: BPA's
    only additions are the originator's :class:`BestPositions`, and its
    bound scores the local scores at the best positions."""

    #: the stop bound's ``extras`` key; ``"lambda"`` makes the loop BPA's
    bound_name = "threshold"

    def _execute(self, accessor: DatabaseAccessor, k, scoring):
        m, n = accessor.m, accessor.n
        buffer = TopKBuffer(k)
        seen: set[ItemId] = set()
        last: list[Score] = [0.0] * m
        best = None
        if self.bound_name == "lambda":
            best = BestPositions(self._tracker_kind, m, n)
        position = 0
        rounds = 0
        while True:
            rounds += 1
            count = min(self._width, n - position)
            block = BlockRound(m, seen)
            for i in range(m):
                entries = accessor[i].sorted_block(count)
                last[i] = entries[-1].score
                block.add(i, [(entry.item, entry.score) for entry in entries])
                if best is not None:
                    best.note(i, [(entry.score, entry.position) for entry in entries])
            position += count
            probed = self._probe(accessor, block)
            if best is not None:
                for j, pairs in enumerate(probed):
                    best.note(j, pairs)
            block.complete(buffer, scoring)
            bound = scoring(last if best is None else best.bound_scores())
            if buffer.all_at_least(bound) or position >= n:
                return buffer.ranked(), rounds, position, {
                    self.bound_name: bound,
                    "block_width": self._width,
                }


@register
class BlockTA(_SortedBlockAlgorithm):
    """TA with block sorted access and deduplicated completion."""

    name = "ta-block"


@register
class BlockBPA(_SortedBlockAlgorithm):
    """BPA with block sorted access; best positions at the originator."""

    name = "bpa-block"
    bound_name = "lambda"


@register
class BlockBPA2(_BlockAlgorithm):
    """BPA2 with block direct access; best positions at the sources.

    Every list's direct block is independent of the others (probes land
    only at the end of the round), so a distributed transport can
    overlap all of them — the property the pipelined wire protocol
    exploits.
    """

    name = "bpa2-block"

    def _execute(self, accessor: DatabaseAccessor, k, scoring):
        m, n = accessor.m, accessor.n
        buffer = TopKBuffer(k)
        seen: set[ItemId] = set()
        trackers = [make_tracker(self._tracker_kind, n) for _ in range(m)]
        exhausted = [False] * m
        rounds = 0

        while True:
            rounds += 1
            progressed = False
            block = BlockRound(m, seen)
            for i in range(m):
                if exhausted[i]:
                    continue
                surfaced = []
                for _ in range(self._width):
                    pos = trackers[i].best_position + 1
                    if pos > n:
                        break
                    entry = accessor[i].direct_at(pos)
                    trackers[i].mark(pos)
                    surfaced.append((entry.item, entry.score))
                    progressed = True
                block.add(i, surfaced)
                if trackers[i].best_position >= n:
                    exhausted[i] = True
            for j, probed in enumerate(self._probe(accessor, block)):
                for _score, pos in probed:
                    trackers[j].mark(pos)
            block.complete(buffer, scoring)
            lam = scoring(
                [
                    _INF
                    if trackers[i].best_position == 0
                    else accessor[i].source.score_at(trackers[i].best_position)
                    for i in range(m)
                ]
            )
            if buffer.all_at_least(lam):
                break
            if not progressed:
                break
        stop_position = max(
            (tracker.best_position for tracker in trackers), default=0
        )
        return buffer.ranked(), rounds, stop_position, {
            "block_width": self._width,
        }
