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

The memo's contract.  ``totals[row]`` is NaN until some reader fills
it, then the exact float the scoring returns for the row; answers,
tallies and ``extras`` read nothing else.  For a stock sum (exactly
:class:`~repro.scoring.SumScoring` or
:class:`~repro.scoring.WeightedSumScoring`, see :func:`is_stock_sum`)
the memo also keeps approximate totals of the prefix's rows, in the
prefix's order, extended lazily as readers cover more of it,
and one margin ``mu`` for all of them
(:func:`repro.scoring.batch.approximation_margin`): every approximation
lies within ``mu`` of its row's total.  Approximations only decide
comparisons.  A total compared with a value more than ``mu`` away is
settled by its approximation; only the rows inside that band are summed
exactly.  They belong to one snapshot's prefix, so a patch carries the
exact totals forward but never the approximations.  A memo whose margin
is infinite — a ±inf or NaN score, magnitudes where ``math.fsum`` may
overflow, or any scoring but a stock sum — keeps no approximations and
sums every row it compares.

The search is exact for every scoring.  For the stock sums the bound
never rises with ``p`` — the products are IEEE multiplies by
non-negative weights and the sum is correctly rounded — so the stop test
is monotone in ``p`` and the search gallops and then bisects, with one
scalar bound call per probe.  A probe counts rows by their
approximations, and the answer sums exactly only the rows whose
approximations come within ``2 * mu`` of the k-th approximation or
above it: about ``k`` rows, in one batch.  Any other scoring, a subclass
included, may not be monotone in floating point, and a memo with an
infinite margin has no approximations, so both are checked depth by
depth, one scalar call each, as the reference algorithms check it.
"""

from __future__ import annotations

import math
import threading
from array import array
from bisect import bisect_left
from heapq import heappush, heapreplace
from typing import Callable

import numpy as np

from repro.errors import ScoringError
from repro.scoring import ScoringFunction, SumScoring, WeightedSumScoring
from repro.scoring.batch import approximate_sums, approximation_margin
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


def kth_largest(values: np.ndarray, k: int) -> float:
    """The k-th largest of ``values`` (``1 <= k <= len(values)``)."""
    return np.partition(values, len(values) - k)[len(values) - k]


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

    For a stock sum, :meth:`approximations` gives approximate totals of
    the first-seen prefix's rows, all within :meth:`margin` of the
    totals (see the module docstring).

    A scoring that returns NaN raises :class:`~repro.errors.ScoringError`
    naming the item: a NaN overall score has no rank.
    """

    __slots__ = (
        "scoring",
        "totals",
        "_columns",
        "_ids",
        "_margin",
        "_weights",
        "_approx",
        "_approximated",
    )

    def __init__(self, scoring: ScoringFunction, totals: array) -> None:
        self.scoring = scoring
        self.totals = totals
        #: the ``(m, n)`` score matrix, the row -> id array and a
        #: weighted sum's ``(m, 1)`` weights (``None`` for any other
        #: scoring), bound on first hand-out (:meth:`_bind`)
        self._columns: np.ndarray | None = None
        self._ids: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        #: the approximations' error bound, set on first read
        self._margin: float | None = None
        #: approximate totals of the prefix's rows in the prefix's order,
        #: the first ``_approximated`` of them valid (published last)
        self._approx = np.empty(0)
        self._approximated = 0

    def _bind(self, columns: np.ndarray, ids: np.ndarray) -> None:
        """Bind the snapshot's score matrix and ids, and the weights
        :meth:`approximations` multiplies by."""
        self._columns, self._ids = columns, ids
        scoring = self.scoring
        if type(scoring) is WeightedSumScoring and len(scoring.weights) == len(columns):
            self._weights = np.array(scoring.weights)[:, np.newaxis]

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
        block = self._columns.take(rows, axis=1)  # C-contiguous, unlike [:, rows]
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

    def totals_of(self, rows: np.ndarray) -> np.ndarray:
        """The totals of ``rows``, the unfilled ones filled in one
        :meth:`fill_rows` batch."""
        totals = np.frombuffer(self.totals, dtype=np.float64)
        scored = totals[rows]
        unfilled = np.isnan(scored)
        if unfilled.any():
            self.fill_rows(rows[unfilled])
            scored = totals[rows]
        return scored

    def margin(self, prefix: "FirstSeenPrefix") -> float:
        """``mu``: every approximation lies within it of its row's total.

        Infinite when the memo keeps no approximations: its scoring is
        not a stock sum, its weights do not match the snapshot's lists,
        or :func:`~repro.scoring.batch.approximation_margin` refuses the
        lists' magnitudes (``prefix`` is this memo's snapshot's).
        """
        margin = self._margin
        if margin is None:
            margin = math.inf
            scoring = self.scoring
            if is_stock_sum(scoring) and prefix.n:
                weights = None
                if type(scoring) is WeightedSumScoring:
                    weights = scoring.weights
                if weights is None or len(weights) == len(self._columns):
                    margin = approximation_margin(prefix.magnitudes(), weights)
            self._margin = margin
        return margin

    def approximations(self, prefix: "FirstSeenPrefix", count: int) -> np.ndarray:
        """Approximate totals of ``prefix.rows[:count]``, in that order.

        Valid only for a memo whose :meth:`margin` is finite.  Extended
        under the layout lock, values first and ``count`` last, so
        readers never take the lock (as :class:`FirstSeenPrefix` does);
        a grown array keeps every value already published.
        """
        if self._approximated < count:
            with _LAYOUT_LOCK:
                while self._approximated < count:
                    done, approx = self._approximated, self._approx
                    if len(approx) < count:  # grow geometrically, up to n
                        approx = np.empty(min(prefix.n, max(count, 2 * len(approx))))
                        approx[:done] = self._approx[:done]
                    block = self._columns.take(prefix.rows[done:count], axis=1)
                    approx[done:count] = approximate_sums(block, self._weights)
                    self._approx = approx
                    self._approximated = count
        return self._approx[:count]

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
      ``<= D`` in some list), by first-seen depth (ties in the order the
      step collected them), and ``depths[:count]`` their first-seen
      depths (1-based), final, since every list has been read to ``D``;
    * :meth:`through` gives ``count`` for the step covering a depth, and
      :meth:`seen_by` the number of rows seen by a depth, so the rows
      seen by depth ``p`` are ``rows[:seen_by(p)]``;
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
        "_magnitudes",
        "_first_seen",
        "_seen",
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
        #: rows by first-seen depth, ``count`` of them valid
        self.rows = np.empty(n, dtype=np.int64)
        #: first-seen depth of ``rows[i]``
        self.depths = np.empty(n, dtype=np.int64)
        self._lists = database.lists
        self._magnitudes: list[float] | None = None
        #: row -> first-seen depth; unseen rows hold the sentinel n + 1
        self._first_seen = np.full(n, n + 1, dtype=np.int64)
        #: depth -> how many rows it has seen, up to the collected depth
        self._seen = np.zeros(n + 1, dtype=np.int64)
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

    def magnitudes(self) -> list[float]:
        """Per list, its largest ``|score|`` (``n >= 1``): lists are
        score-descending and NaN sorts last, so it sits at one of the
        two ends.  Computed once."""
        magnitudes = self._magnitudes
        if magnitudes is None:
            ends = [(lst.scores_array[0], lst.scores_array[-1]) for lst in self._lists]
            magnitudes = self._magnitudes = np.abs(ends).max(axis=1).tolist()
        return magnitudes

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
        new = self.rows[start:count]
        depths = first_seen[new]
        order = np.argsort(depths, kind="stable")
        self.rows[start:count] = new[order]
        self.depths[start:count] = depths = depths[order]
        self._seen[depth + 1 : end + 1] = start + np.searchsorted(
            depths, block_depths, side="right"
        )
        self._counts.append(count)
        self._ends.append(end)

    def seen_by(self, depth: int) -> int:
        """How many rows ``depth`` rounds have seen: the rows seen are
        ``rows[:seen_by(depth)]``."""
        self.through(depth)
        return int(self._seen[depth])

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
    margin = memo.margin(prefix)
    if margin < math.inf:
        depth, bound = _gallop(prefix, memo, margin, k, bound_scores)
    else:
        depth, bound = _scan(prefix, memo, k, bound_scores)
    return depth, bound, _top_k(prefix, memo, margin, k, depth)


def _top_k(
    prefix: FirstSeenPrefix, memo: TotalsMemo, margin: float, k: int, depth: int
) -> tuple[ScoredItem, ...]:
    """The k best rows seen by ``depth``: score descending, id ascending.

    With approximations (a finite ``margin``), a row whose approximation
    falls more than ``2 * margin`` below the k-th approximation totals
    less than the k-th total, so only the others are summed.  Without,
    every row seen is (the per-depth search has filled them all).
    """
    seen = prefix.seen_by(depth)
    rows = prefix.rows[:seen]
    if margin < math.inf:
        approx = memo.approximations(prefix, seen)
        rows = rows[approx >= kth_largest(approx, k) - 2 * margin]
    scored = memo.totals_of(rows)
    best = scored >= kth_largest(scored, k)
    rows, scored = rows[best], scored[best]
    order = np.lexsort((rows, -scored))[:k]  # rows ascend with item ids
    return tuple(
        map(ScoredItem, prefix.ids[rows[order]].tolist(), scored[order].tolist())
    )


def _gallop(
    prefix: FirstSeenPrefix,
    memo: TotalsMemo,
    margin: float,
    k: int,
    bound_scores: BoundScores,
) -> tuple[int, Score]:
    """Galloping search, then bisection, for a bound that never rises.

    Starts at the first depth with ``k`` seen rows and probes ``p, p+1,
    p+3, p+7, ...`` until the stop test holds, then bisects between the
    last two probes.  A probe counts rows by their approximations: one
    at least ``margin`` above the bound totals at least the bound, one
    more than ``margin`` below it totals less.  Only when the rows above
    fall short of ``k`` and the band between could make up the rest are
    the band's rows summed, so a probe seldom sums any row.
    """
    n, scoring = prefix.n, memo.scoring

    def holds(depth: int) -> tuple[bool, Score]:
        seen = prefix.seen_by(depth)
        approx = memo.approximations(prefix, prefix.through(depth))[:seen]
        bound = scoring(bound_scores(depth)[depth - 1].tolist())
        high, low = bound + margin, bound - margin
        hits = np.count_nonzero(approx >= high)
        if hits < k and np.count_nonzero(approx >= low) >= k:
            band = prefix.rows[:seen][(approx >= low) & (approx < high)]
            hits += np.count_nonzero(memo.totals_of(band) >= bound)
        return hits >= k, bound

    prefix.through(k)  # depth k has seen at least k rows
    low = int(prefix.depths[k - 1]) - 1  # the deepest depth with fewer
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


def _scan(
    prefix: FirstSeenPrefix, memo: TotalsMemo, k: int, bound_scores: BoundScores
) -> tuple[int, Score]:
    """Depth by depth, one scalar bound call each, for any scoring.

    Rows are scored in first-seen order, so a scoring that fails (or
    returns NaN) on some row fails exactly when the reference algorithm
    would reach that row.
    """
    n, scoring = prefix.n, memo.scoring
    totals, fill = memo.totals, memo.fill
    kept: list[Score] = []  # min-heap of the k best totals seen
    depth = 0
    while True:
        end = step_end(depth, n)
        start, stop = prefix.through(depth), prefix.through(end)
        rows = prefix.rows[start:stop].tolist()
        firsts = prefix.depths[start:stop].tolist()
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
