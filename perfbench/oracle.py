"""The benchmark's own exact oracle over a mirror of the served data.

The library's oracles (``brute_force_topk``, ``fresh_topk``,
``brute_force_reverse_topk``) scan every item with interpreted scoring
calls: 25 ms at n=2,000 and 150 ms at n=10,000 per top-k, and a reverse
answer over 64 users costs 64 of those.  Checking every answer of a run
that way would take longer than the run.  This oracle gives the same
answers faster and keeps its own copy of the data, so a bug in the
program's storage cannot hide a wrong answer:

* a NumPy pass computes approximate aggregates and keeps every item
  within ``MARGIN`` of the approximate k-th score;
* those candidates are scored with the scoring callable itself, on the
  same floats in list order, and ranked by ``(-score, id)``.

The approximate and exact aggregates of an ``m``-term weighted sum differ
by a few ulps, far below ``MARGIN``, so no true top-k item is ever
filtered out and the result equals the brute-force answer bit for bit.
The benchmark's tests hold it equal to the library's oracles.
"""

from __future__ import annotations

import numpy as np

from repro.scoring import SumScoring, WeightedSumScoring

#: Relative slack of the candidate filter (see the module docstring).
MARGIN = 1e-9


def weights_of(scoring, m: int) -> np.ndarray:
    """The weight vector of a (weighted) sum scoring."""
    if isinstance(scoring, SumScoring):
        return np.ones(m)
    if isinstance(scoring, WeightedSumScoring):
        return np.asarray(scoring.weights, dtype=np.float64)
    raise TypeError(f"the oracle handles (weighted) sums, got {scoring!r}")


class Mirror:
    """The benchmark's copy of a database, updated by every write it issues.

    Rows are dense; a removed item's row is refilled by the last row.
    """

    def __init__(self, database) -> None:
        self.m = database.m
        items = sorted(database.item_ids)
        capacity = 2 * len(items) + 16
        self._matrix = np.zeros((capacity, self.m))
        self._ids = np.zeros(capacity, dtype=np.int64)
        self._row = {item: row for row, item in enumerate(items)}
        self._count = len(items)
        self._ids[: self._count] = items
        for index, lst in enumerate(database.lists):
            rows = [self._row[item] for item in lst.items()]
            self._matrix[rows, index] = list(lst.scores())

    def local_scores(self, item) -> tuple[float, ...]:
        return tuple(self._matrix[self._row[item]].tolist())

    def update_score(self, list_index: int, item, score: float) -> None:
        self._matrix[self._row[item], list_index] = score

    def insert_item(self, item, scores) -> None:
        if self._count == len(self._ids):
            self._matrix = np.concatenate([self._matrix, np.zeros_like(self._matrix)])
            self._ids = np.concatenate([self._ids, np.zeros_like(self._ids)])
        row = self._count
        self._matrix[row] = scores
        self._ids[row] = item
        self._row[item] = row
        self._count += 1

    def remove_item(self, item) -> None:
        row = self._row.pop(item)
        last = self._count - 1
        if row != last:
            self._matrix[row] = self._matrix[last]
            moved = int(self._ids[last])
            self._ids[row] = moved
            self._row[moved] = row
        self._count = last

    def topk(self, k: int, scoring) -> tuple[tuple, tuple]:
        """The exact ranked top-k as ``(item ids, scores)``."""
        live = self._matrix[: self._count]
        approx = live @ weights_of(scoring, self.m)
        return self._refine(live, approx, k, scoring)

    def reverse(self, item, k: int, users) -> tuple[str, ...]:
        """Users (``(name, scoring)`` pairs) whose exact top-k holds ``item``."""
        live = self._matrix[: self._count]
        weights = np.array([weights_of(scoring, self.m) for _, scoring in users])
        approx = live @ weights.T
        matched = [
            name
            for column, (name, scoring) in enumerate(users)
            if item in self._refine(live, approx[:, column], k, scoring)[0]
        ]
        return tuple(sorted(matched))

    def _refine(self, live, approx, k, scoring) -> tuple[tuple, tuple]:
        count = len(approx)
        k = min(k, count)
        if k < 1:
            return (), ()
        kth = np.partition(approx, count - k)[count - k]
        rows = np.flatnonzero(approx >= kth - MARGIN * (1.0 + abs(kth)))
        ranked = sorted(
            (
                (scoring(live[row].tolist()), int(self._ids[row]))
                for row in rows.tolist()
            ),
            key=lambda pair: (-pair[0], pair[1]),
        )[:k]
        return (
            tuple(item for _, item in ranked),
            tuple(score for score, _ in ranked),
        )
