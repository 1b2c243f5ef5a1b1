"""The shared walk down a snapshot's lists, and TA/BPA's stop-depth search.

After ``p`` rounds of parallel sorted access, TA and BPA have seen
exactly the rows ranked at depth ``<= p`` in some list, so both stop
tests depend on ``p`` alone.  TA's threshold is the scoring of the local
scores at depth ``p``; BPA's lambda is the scoring of the local scores at
the best positions, and the best position in list ``j`` is the number of
leading entries of list ``j`` whose row was first seen at depth
``<= p``.  Three pieces serve both algorithms and the planner:

* :class:`TotalsMemo` — per scoring semantics, row -> overall score,
  filled on first touch;
* :class:`FirstSeenPrefix` — per snapshot and scoring-independent, the
  rows seen by each depth, extended lazily in the planner walk's steps
  (:func:`step_end`);
* :func:`stop_depth_search` — the first depth ``p*`` at which the k-th
  best total of the rows seen by ``p*`` reaches the bound at ``p*`` (or
  ``n``), with the top ``k`` of those rows in :class:`TopKBuffer` order.

The search is exact for every scoring.  For the stock sums (exactly
:class:`~repro.scoring.SumScoring` and
:class:`~repro.scoring.WeightedSumScoring`, see :func:`is_stock_sum`)
the bound never rises with ``p`` — the products are IEEE multiplies by
non-negative weights and the sum is correctly rounded — so the stop test
is monotone in ``p`` and the search gallops and then bisects, with one
scalar bound call per probe.  Any other scoring, a subclass included,
may not be monotone in floating point, so it is checked depth by depth,
one scalar call each, as the reference algorithms check it.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from heapq import heappush, heapreplace
from typing import Callable

import numpy as np

from repro.errors import ScoringError
from repro.scoring import ScoringFunction, SumScoring, WeightedSumScoring
from repro.types import Score, ScoredItem

#: Guards everything derived lazily from one snapshot: its layout, its
#: per-scoring memo table and its :class:`FirstSeenPrefix`.  Module-level,
#: not an attribute, so databases stay picklable for process-pool shard
#: workers.
_LAYOUT_LOCK = threading.Lock()

#: Marks a row whose total has not been computed yet.
UNFILLED = float("nan")

#: The stop bound's arguments by depth: ``bound_scores(depth)`` is an
#: ``(n, m)`` array whose row ``p - 1`` is the local scores the bound
#: aggregates after ``p`` rounds, valid for every ``p <= depth``
#: (:meth:`FirstSeenPrefix.threshold_scores` or
#: :meth:`FirstSeenPrefix.lambda_scores`).
BoundScores = Callable[[int], np.ndarray]


def is_stock_sum(scoring: ScoringFunction) -> bool:
    """Whether ``scoring`` is exactly a stock sum.

    Exactly these types, never a subclass (the choice never looks at
    ``__call__``, so a subclass keeps its own semantics): their ``batch``
    form returns ``__call__``'s floats bit for bit, and their output
    never rises when an input falls.
    """
    return type(scoring) in (SumScoring, WeightedSumScoring)


def step_end(depth: int, n: int) -> int:
    """Where the walk's step from ``depth`` ends: steps grow with depth."""
    return min(n, depth + max(32, depth // 2))


class TotalsMemo:
    """Row -> overall score under one scoring, filled on first touch.

    ``totals[row]`` is NaN until some reader fills it, then the exact
    float ``scoring`` returns for the row's local scores passed as a
    list in list order — the floats of the snapshot's score matrix,
    which are the ones the reference algorithms aggregate, so a memo
    read is bit-identical to per-item aggregation.  :meth:`fill` scores
    one row through the scoring's ``__call__``; :meth:`fill_rows` scores
    a batch of rows, in one NumPy pass for the stock sums (the same
    floats, see :mod:`repro.scoring.batch`).  Fills are idempotent:
    racing readers compute the same float, so concurrent queries need no
    lock.  ``totals`` is an ``array('d')``, so NumPy can read and write
    it in place (``np.frombuffer``).

    A scoring that returns NaN raises :class:`~repro.errors.ScoringError`
    naming the item: a NaN overall score has no rank.
    """

    __slots__ = ("scoring", "totals", "_columns", "_ids")

    def __init__(self, scoring: ScoringFunction, totals: array) -> None:
        self.scoring = scoring
        self.totals = totals
        #: the ``(m, n)`` score matrix and the row -> id array, bound on
        #: first hand-out
        self._columns: np.ndarray | None = None
        self._ids: np.ndarray | None = None

    def fill(self, row: int) -> Score:
        """Compute, store and return the total of one row."""
        total = self.scoring(self._columns[:, row].tolist())
        if total != total:
            raise self._unranked(row)
        self.totals[row] = total
        return total

    def fill_rows(self, rows: np.ndarray) -> None:
        """:meth:`fill` every row of ``rows`` in one gather.

        The stock sums score the gathered ``(m, len(rows))`` block
        through their ``batch`` form, which calls ``__call__`` only for
        the rare rows it cannot certify; every other scoring is called
        once per row.
        """
        scoring = self.scoring
        block = self._columns[:, rows]
        if is_stock_sum(scoring):
            filled = scoring.batch(block)
        else:
            filled = np.fromiter(
                map(scoring, block.T.tolist()), dtype=np.float64, count=len(rows)
            )
        unranked = np.isnan(filled)
        if unranked.any():
            raise self._unranked(int(rows[unranked.argmax()]))
        np.frombuffer(self.totals, dtype=np.float64)[rows] = filled

    def _unranked(self, row: int) -> ScoringError:
        return ScoringError(
            f"{self.scoring!r} scores item {int(self._ids[row])} NaN; "
            "a NaN overall score has no rank"
        )


class FirstSeenPrefix:
    """Which rows parallel sorted access has seen by each depth.

    One per snapshot (:meth:`repro.columnar.ColumnarDatabase.first_seen_prefix`),
    independent of the scoring, and extended lazily in the planner walk's
    steps under the layout lock.  After a step that ends at depth ``D``:

    * ``rows[:count]`` are the rows seen by ``D`` (ranked at depth
      ``<= D`` in some list), in the order the steps collected them, and
      ``depths[:count]`` their first-seen depths (1-based) — final, since
      every list has been read to ``D``;
    * :meth:`through` gives ``count`` for the step covering a depth, so
      the rows seen by depth ``p`` are those of ``rows[:through(p)]``
      whose depth is ``<= p``;
    * row ``p - 1`` of :meth:`threshold_scores` holds every list's local
      score at depth ``p``: TA's threshold argument.

    BPA's best positions come from the running maximum of first-seen
    depth along each list, extended only as far as seen rows reach; row
    ``p - 1`` of :meth:`lambda_scores` holds the local scores at the best
    positions after ``p`` rounds, BPA's lambda argument.  Readers never
    take the lock: a step writes the arrays first and publishes its
    ``(end, count)`` last.
    """

    __slots__ = (
        "n",
        "ids",
        "rows",
        "depths",
        "_lists",
        "_first_seen",
        "_ends",
        "_counts",
        "_scores",
        "_runmax",
        "_reach",
        "_best",
        "_best_scores",
        "_best_depth",
    )

    def __init__(self, database) -> None:
        # ``database`` is the snapshot, a ColumnarDatabase (which imports
        # this module, so the type stays unnamed here).
        n, m = database.n, database.m
        self.n = n
        #: row -> item id (ascending id order)
        self.ids: np.ndarray = database.uids_array
        #: rows in collection order, ``count`` of them valid
        self.rows = np.empty(n, dtype=np.int64)
        #: first-seen depth of ``rows[i]``
        self.depths = np.empty(n, dtype=np.int64)
        self._lists = database.lists
        #: row -> first-seen depth; unseen rows hold the sentinel n + 1
        self._first_seen = np.full(n, n + 1, dtype=np.int64)
        #: step end depths and the rows collected by each, published
        #: counts first (readers index counts by a search over ends)
        self._ends = [0]
        self._counts = [0]
        #: depth - 1 -> every list's local score at that depth
        self._scores = np.empty((n, m), dtype=np.float64)
        #: per list: running maximum of first-seen depth, valid up to
        #: ``_reach[i]`` (the first row unseen when it was extended)
        self._runmax: np.ndarray | None = None
        self._reach = [0] * m
        #: depth - 1 -> best position in every list, and the local scores
        #: there, up to ``_best_depth``
        self._best: np.ndarray | None = None
        self._best_scores: np.ndarray | None = None
        self._best_depth = 0

    def through(self, depth: int) -> int:
        """Extend to cover ``depth`` (``<= n``); the number of rows
        collected by the step that covers it."""
        if self._ends[-1] < depth:
            with _LAYOUT_LOCK:
                while self._ends[-1] < depth:
                    self._step()
        return self._counts[bisect_left(self._ends, depth)]

    def _step(self) -> None:
        depth = self._ends[-1]
        end = step_end(depth, self.n)
        first_seen, sentinel = self._first_seen, self.n + 1
        block_depths = np.arange(depth + 1, end + 1)
        start = count = self._counts[-1]
        for i, lst in enumerate(self._lists):
            rows = lst.rows_of(lst.items_array[depth:end])
            seen = first_seen[rows]
            new = rows[seen == sentinel]  # distinct: each row is collected once
            first_seen[rows] = np.minimum(seen, block_depths)
            self.rows[count : count + len(new)] = new
            count += len(new)
            self._scores[depth:end, i] = lst.scores_array[depth:end]
        self.depths[start:count] = first_seen[self.rows[start:count]]
        self._counts.append(count)
        self._ends.append(end)

    def threshold_scores(self, depth: int) -> np.ndarray:
        """``(n, m)``; row ``p - 1`` is the local scores at depth ``p``,
        valid for every ``p <= depth``."""
        self.through(depth)
        return self._scores

    def lambda_scores(self, depth: int) -> np.ndarray:
        """``(n, m)``; row ``p - 1`` is the local scores at the best
        positions after ``p`` rounds, valid for every ``p <= depth``."""
        self.through(depth)
        if self._best_depth < depth:
            with _LAYOUT_LOCK:
                while self._best_depth < depth:
                    self._extend_best()
        return self._best_scores

    def best_positions(self, depth: int) -> tuple[int, ...]:
        """BPA's best positions after ``depth`` rounds: per list, the
        number of leading entries first seen at or above ``depth``."""
        self.lambda_scores(depth)
        return tuple(self._best[depth - 1].tolist())

    def _extend_best(self) -> None:
        depth, n = self._ends[-1], self.n
        if self._runmax is None:
            self._runmax = np.empty((len(self._lists), n), dtype=np.int64)
            self._best = np.empty((n, len(self._lists)), dtype=np.int64)
            self._best_scores = np.empty((n, len(self._lists)), dtype=np.float64)
        done = self._best_depth
        depths = np.arange(done + 1, depth + 1)
        lookahead = max(32, depth // 2)
        for i, lst in enumerate(self._lists):
            runmax = self._runmax[i]
            start = self._reach[i]
            while start < n:
                end = min(n, max(start, depth) + lookahead)
                seen = self._first_seen[lst.rows_of(lst.items_array[start:end])]
                unseen = np.flatnonzero(seen > depth)
                stop = int(unseen[0]) if len(unseen) else len(seen)
                carry = int(runmax[start - 1]) if start else 0
                runmax[start : start + stop] = np.maximum(
                    np.maximum.accumulate(seen[:stop]), carry
                )
                start += stop
                if len(unseen):
                    break  # a best position never passes an unseen row
            self._reach[i] = start
            best = np.searchsorted(runmax[:start], depths, side="right")
            self._best[done:depth, i] = best
            self._best_scores[done:depth, i] = lst.scores_array[best - 1]
        self._best_depth = depth


def stop_depth_search(
    prefix: FirstSeenPrefix, memo: TotalsMemo, k: int, bound_scores: BoundScores
) -> tuple[int, Score, tuple[ScoredItem, ...]]:
    """``(p*, bound at p*, top k of the rows seen by p*)``.

    ``p*`` is the first depth at which at least ``k`` seen rows total at
    least the bound, which :class:`TopKBuffer`'s ``all_at_least`` tests
    after every round, or ``n`` when no depth does.  The answer is in
    :class:`TopKBuffer` order: score descending, then id ascending.
    """
    covered = _Covered(prefix, memo)
    if is_stock_sum(memo.scoring):
        depth, bound = _gallop(covered, k, bound_scores)
    else:
        depth, bound = _scan(covered, k, bound_scores)
    return depth, bound, covered.top_k(k, depth)


class _Covered:
    """The rows of the prefix steps one search has reached, with their
    totals (NaN where not scored yet)."""

    __slots__ = ("prefix", "memo", "totals", "count", "rows", "depths", "scored", "unscored")

    def __init__(self, prefix: FirstSeenPrefix, memo: TotalsMemo) -> None:
        self.prefix, self.memo = prefix, memo
        self.totals = np.frombuffer(memo.totals, dtype=np.float64)
        self.count = 0

    def cover(self, depth: int) -> None:
        """Reach the prefix step that covers ``depth``."""
        count = self.prefix.through(depth)
        if count > self.count:
            self.count = count
            self.rows = self.prefix.rows[:count]
            self.depths = self.prefix.depths[:count]
            self.scored = self.totals[self.rows]
            self.unscored = bool(np.isnan(self.scored).any())

    def hits(self, depth: int, bound: Score) -> int:
        """How many scored rows seen by ``depth`` total at least ``bound``."""
        return np.count_nonzero((self.depths <= depth) & (self.scored >= bound))

    def score(self, depth: int) -> bool:
        """Score the rows seen by ``depth`` that are not yet; whether any were."""
        unfilled = (self.depths <= depth) & np.isnan(self.scored)
        if not unfilled.any():
            return False
        self.memo.fill_rows(self.rows[unfilled])
        self.scored = self.totals[self.rows]
        self.unscored = bool(np.isnan(self.scored).any())
        return True

    def top_k(self, k: int, depth: int) -> tuple[ScoredItem, ...]:
        """The k best rows seen by ``depth``: score descending, id ascending."""
        self.cover(depth)
        if self.unscored:
            self.score(depth)
        seen = self.depths <= depth
        rows, scored = self.rows[seen], self.scored[seen]
        kth = np.partition(scored, len(scored) - k)[len(scored) - k]
        best = scored >= kth
        rows, scored = rows[best], scored[best]
        order = np.lexsort((rows, -scored))[:k]  # rows ascend with item ids
        return tuple(
            map(
                ScoredItem,
                self.prefix.ids[rows[order]].tolist(),
                scored[order].tolist(),
            )
        )


def _gallop(covered: _Covered, k: int, bound_scores: BoundScores) -> tuple[int, Score]:
    """Galloping search, then bisection, for a bound that never rises.

    Starts at the first depth with ``k`` seen rows and probes ``p, p+1,
    p+3, p+7, ...`` until the stop test holds, then bisects between the
    last two probes.  A probe counts only rows whose totals are filled,
    and fills the rest only when those fall short of ``k``, so a probe
    past ``p*`` seldom scores rows the answer does not need.
    """
    n, scoring = covered.prefix.n, covered.memo.scoring

    def holds(depth: int) -> tuple[bool, Score]:
        covered.cover(depth)
        bound = scoring(bound_scores(depth)[depth - 1].tolist())
        hits = covered.hits(depth, bound)
        if hits < k and covered.unscored and covered.score(depth):
            hits = covered.hits(depth, bound)  # with the rows just scored
        return hits >= k, bound

    covered.cover(k)  # depth k has seen at least k rows
    low = int(np.partition(covered.depths, k - 1)[k - 1]) - 1  # < k seen
    probe, stride = low + 1, 1
    while True:
        stop, bound = holds(probe)
        if stop or probe == n:  # the reference stops at n in any case
            break
        low, probe, stride = probe, min(n, probe + stride), 2 * stride
    high, high_bound = probe, bound
    while high - low > 1:
        middle = (low + high) // 2
        stop, bound = holds(middle)
        if stop:
            high, high_bound = middle, bound
        else:
            low = middle
    return high, high_bound


def _scan(covered: _Covered, k: int, bound_scores: BoundScores) -> tuple[int, Score]:
    """Depth by depth, one scalar bound call each, for any scoring.

    Rows are scored in first-seen order, so a scoring that fails (or
    returns NaN) on some row fails exactly when the reference algorithm
    would reach that row.
    """
    prefix, memo = covered.prefix, covered.memo
    n, scoring = prefix.n, memo.scoring
    totals, fill = memo.totals, memo.fill
    kept: list[Score] = []  # min-heap of the k best totals seen
    depth = 0
    while True:
        end = step_end(depth, n)
        start, stop = prefix.through(depth), prefix.through(end)
        order = np.argsort(prefix.depths[start:stop], kind="stable")
        rows = prefix.rows[start:stop][order].tolist()
        firsts = prefix.depths[start:stop][order].tolist()
        arguments = bound_scores(end)[depth:end].tolist()
        index = 0
        for depth, argument in enumerate(arguments, start=depth + 1):
            while index < len(rows) and firsts[index] == depth:
                row = rows[index]
                index += 1
                total = totals[row]
                if total != total:  # NaN: first touch of this row
                    total = fill(row)
                if len(kept) < k:
                    heappush(kept, total)
                elif total > kept[0]:
                    heapreplace(kept, total)
            bound = scoring(argument)
            if len(kept) == k and kept[0] >= bound:
                return depth, bound
        if depth == n:
            return n, bound
