"""A columnar database: ``m`` :class:`ColumnarList` columns, one item set.

Drop-in twin of :class:`repro.lists.database.Database` — the same
validation, the same introspection API — so
:class:`repro.lists.accessor.DatabaseAccessor` and every registered
algorithm accept either backend interchangeably.  The columnar extras
feed the vectorized engine:

* :meth:`score_matrix` — the ``(m, n)`` local-score matrix, one column
  per item (in ascending item-id order);
* :meth:`position_matrix` — the ``(m, n)`` matrix of 0-based ranks;
* :meth:`totals_memo` — per scoring semantics, a :class:`TotalsMemo`
  of per-item overall scores, filled on first touch and shared by the
  planner's statistics and the kernels, so a scoring pays only for the
  rows some algorithm actually reaches (for the stock sums, exact sums
  only for the rows an approximation cannot place).  The snapshot keeps
  at most :func:`scoring_capacity` of them (least recently used go
  first);
* :meth:`first_seen_prefix` — the scoring-independent
  :class:`FirstSeenPrefix` (which rows parallel sorted access has seen by
  each depth), the one walk the planner, the TA/BPA kernels and the
  round traces share;
* :meth:`layout` — the scalar-indexable :class:`DatabaseLayout` the
  replaying kernels (BPA2, NRA, QC) read, derived once per snapshot on
  first read (a patched successor derives its own).

Conversions: :meth:`from_database` / :meth:`to_database` move between
the backends, carrying explicit labels only; both directions preserve
the canonical (score desc, item asc) layout bit-for-bit, which the
differential suite under ``tests/differential/`` asserts.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.columnar.columnar_list import ColumnarList
from repro.columnar.walk import _LAYOUT_LOCK, UNFILLED, FirstSeenPrefix, TotalsMemo
from repro.errors import InconsistentListsError, UnknownItemError
from repro.scoring import ScoringFunction, scoring_key
from repro.types import ItemId, Score

#: Most scorings whose per-scoring state one snapshot keeps: its
#: :class:`TotalsMemo` table, and the planner's statistics.
MAX_SCORINGS = 64
#: Rows the memos of one snapshot may hold between them, so memory stays
#: flat in ``n`` as well as in the number of scorings: the full
#: :data:`MAX_SCORINGS` up to n = 20,000, proportionally fewer above.
MAX_MEMO_ROWS = MAX_SCORINGS * 20_000


def scoring_capacity(n: int) -> int:
    """How many scorings' per-scoring state to keep for ``n`` items.

    This bounds a snapshot's memos in bytes.  A memo holds ``n`` totals
    (8 bytes each) and, for a stock sum, approximations of the prefix's
    rows: at worst one more float per row.  So the memo table holds at
    most ``16 * n * scoring_capacity(n) <= 16 * MAX_MEMO_ROWS`` bytes
    (20.5 MB), half of that for totals.
    """
    return max(1, min(MAX_SCORINGS, MAX_MEMO_ROWS // max(1, n)))


class DatabaseLayout:
    """Scalar-indexable views of one database's canonical layout.

    The plain-list translation of :meth:`ColumnarDatabase.position_matrix`
    and the score columns (scalar indexing on lists is ~3x faster than
    NumPy element access), derived once per database and shared by the
    kernels that replay access by access (BPA2, NRA, QC).  Treat every
    field as read-only: the lists are aliased across all consumers.
    """

    __slots__ = ("ids", "rows_at", "pos1_by_row", "score_at")

    def __init__(self, database: "ColumnarDatabase") -> None:
        position_matrix = database.position_matrix()
        #: row -> item id (ascending id order; "row" is the dense index).
        self.ids: list[int] = database.uids_array.tolist()
        #: per list: 0-based position -> row of the item ranked there.
        self.rows_at: list[list[int]] = []
        #: per list: 0-based position -> local score (descending).
        self.score_at: list[list[float]] = []
        for i, columnar_list in enumerate(database.lists):
            ranks = position_matrix[i]
            self.rows_at.append(ranks.argsort().tolist())
            self.score_at.append(columnar_list.scores_array.tolist())
        #: row -> its 1-based position in every list (list order).
        self.pos1_by_row: list[list[int]] = (position_matrix.T + 1).tolist()


class ColumnarDatabase:
    """An immutable collection of ``m`` columnar lists over ``n`` items.

    Args:
        lists: the columnar lists; all must contain exactly the same items.
        labels: optional mapping from item id to a display label.
    """

    __slots__ = (
        "_lists",
        "_labels",
        "_item_ids",
        "_score_matrix",
        "_position_matrix",
        "_layout",
        "_prefix",
        "_memos",
    )

    def __init__(
        self,
        lists: Sequence[ColumnarList],
        *,
        labels: Mapping[ItemId, str] | None = None,
    ) -> None:
        if not lists:
            raise InconsistentListsError("a database needs at least one list")
        # A patched snapshot's lists share one id array: only that very
        # object skips the comparison.
        reference = lists[0]._uids
        for columnar_list in lists[1:]:
            uids = columnar_list._uids
            if uids is not reference and not np.array_equal(uids, reference):
                raise InconsistentListsError(
                    "all lists of a database must contain the same items "
                    f"(list {columnar_list.name or '?'} differs)"
                )
        self._lists: tuple[ColumnarList, ...] = tuple(lists)
        self._labels = dict(labels) if labels else {}
        self._item_ids: frozenset[ItemId] | None = None
        self._score_matrix: np.ndarray | None = None
        self._position_matrix: np.ndarray | None = None
        self._layout: DatabaseLayout | None = None
        self._prefix: FirstSeenPrefix | None = None
        #: scoring key -> :class:`TotalsMemo`, least recently used first
        self._memos: OrderedDict[tuple, TotalsMemo] = OrderedDict()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_score_rows(
        cls,
        score_rows: Sequence[Sequence[Score]],
        *,
        labels: Mapping[ItemId, str] | None = None,
    ) -> "ColumnarDatabase":
        """Build a database from ``m`` dense score vectors.

        ``score_rows[i][d]`` is the local score of item ``d`` in list ``i``
        — the same entry point as ``Database.from_score_rows``.
        """
        lists = [
            ColumnarList.from_scores(row, name=f"L{i + 1}")
            for i, row in enumerate(score_rows)
        ]
        return cls(lists, labels=labels)

    @classmethod
    def from_ranked_lists(
        cls,
        ranked: Sequence[Sequence[tuple[ItemId, Score]]],
        *,
        labels: Mapping[ItemId, str] | None = None,
    ) -> "ColumnarDatabase":
        """Build a database from explicit per-list rankings."""
        lists = [
            ColumnarList(entries, name=f"L{i + 1}")
            for i, entries in enumerate(ranked)
        ]
        return cls(lists, labels=labels)

    @classmethod
    def from_database(cls, database) -> "ColumnarDatabase":
        """Convert a row-oriented :class:`repro.lists.database.Database`,
        with its explicit labels (a disk database holds none)."""
        lists = [
            ColumnarList.from_sorted_list(sorted_list)
            for sorted_list in database.lists
        ]
        return cls(lists, labels=getattr(database, "_labels", None))

    def to_database(self):
        """Convert back to the pure-Python backend."""
        from repro.lists.database import Database
        from repro.lists.sorted_list import SortedList

        lists = [
            SortedList(
                zip(columnar_list.items(), columnar_list.scores()),
                name=columnar_list.name,
            )
            for columnar_list in self._lists
        ]
        return Database(lists, labels=self._labels or None)

    # ------------------------------------------------------------------
    # Introspection (Database-compatible)
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of lists."""
        return len(self._lists)

    @property
    def n(self) -> int:
        """Number of items per list."""
        return len(self._lists[0])

    @property
    def lists(self) -> tuple[ColumnarList, ...]:
        """The underlying columnar lists."""
        return self._lists

    @property
    def item_ids(self) -> frozenset[ItemId]:
        """The shared item id set, built on first read (O(n)).

        Membership tests should use :meth:`has_item`, which needs no
        set; a patched snapshot whose set nobody reads never builds one.
        """
        ids = self._item_ids
        if ids is None:
            ids = self._item_ids = frozenset(self.uids_array.tolist())
        return ids

    def has_item(self, item: ItemId) -> bool:
        """``item in item_ids``, without building the set: one id lookup
        in the first list (O(1) on ids ``0..n-1``, a binary search
        otherwise)."""
        return self._lists[0]._row_of(item) is not None

    def label(self, item: ItemId) -> str:
        """Display label of ``item`` (falls back to ``"item <id>"``)."""
        return self._labels.get(item, f"item {item}")

    def __len__(self) -> int:
        return len(self._lists)

    def __iter__(self) -> Iterator[ColumnarList]:
        return iter(self._lists)

    def __getitem__(self, index: int) -> ColumnarList:
        return self._lists[index]

    def local_scores(self, item: ItemId) -> tuple[Score, ...]:
        """The item's local score in every list, in list order.

        Read from the arrays (the item has one row in every list), so
        no list builds its scalar mirrors for it.
        """
        first = self._lists[0]
        row = first._row_of(item)
        if row is None:
            raise UnknownItemError(
                f"item {item} not in list {first.name or '?'}"
            )
        return tuple(
            float(columnar_list._scores[columnar_list._rank_by_row[row]])
            for columnar_list in self._lists
        )

    def positions(self, item: ItemId) -> tuple[int, ...]:
        """The item's 1-based position in every list, in list order."""
        return tuple(
            columnar_list.position_of(item) for columnar_list in self._lists
        )

    def iter_items(self) -> Iterable[ItemId]:
        """All item ids in ascending order."""
        return self.uids_array.tolist()

    # ------------------------------------------------------------------
    # Columnar extras: whole-database matrices for the vectorized engine
    # ------------------------------------------------------------------

    @property
    def uids_array(self) -> np.ndarray:
        """Item ids in ascending order; the matrices' column order."""
        return self._lists[0].uids_array

    def score_matrix(self) -> np.ndarray:
        """``(m, n)`` float64 matrix: ``[i, row]`` = local score in list
        ``i`` of the item with id ``uids_array[row]``.  Cached.
        """
        if self._score_matrix is None:
            matrix = np.empty((self.m, self.n), dtype=np.float64)
            for i, columnar_list in enumerate(self._lists):
                matrix[i] = columnar_list.scores_array[columnar_list.rank_by_row]
            matrix.flags.writeable = False
            self._score_matrix = matrix
        return self._score_matrix

    def position_matrix(self) -> np.ndarray:
        """``(m, n)`` int64 matrix of 0-based ranks per item row.  Cached."""
        if self._position_matrix is None:
            matrix = np.empty((self.m, self.n), dtype=np.int64)
            for i, columnar_list in enumerate(self._lists):
                matrix[i] = columnar_list.rank_by_row
            matrix.flags.writeable = False
            self._position_matrix = matrix
        return self._position_matrix

    def layout(self) -> DatabaseLayout:
        """The scalar-indexable :class:`DatabaseLayout`.  Cached.

        Thread-safe: concurrent first queries (``submit_async`` worker
        threads) derive the layout once and share one object.  The lock
        is module-level, not an attribute, so databases stay picklable
        for the process-pool shard workers.
        """
        if self._layout is None:
            with _LAYOUT_LOCK:
                if self._layout is None:
                    self._layout = DatabaseLayout(self)
        return self._layout

    def first_seen_prefix(self) -> FirstSeenPrefix:
        """The scoring-independent :class:`FirstSeenPrefix`, created
        empty on first use and extended by whoever reads deeper (the
        planner's walk, the TA and BPA kernels).  Every snapshot starts
        with its own, patched ones included."""
        if self._prefix is None:
            with _LAYOUT_LOCK:
                if self._prefix is None:
                    self._prefix = FirstSeenPrefix(self)
        return self._prefix

    def totals_memo(self, scoring: ScoringFunction) -> TotalsMemo:
        """The :class:`TotalsMemo` of ``scoring``'s semantics (see
        :func:`repro.scoring.scoring_key`), created empty on first use.

        The table keeps the :func:`scoring_capacity` most recently used
        memos.  Thread-safe, under the layout lock (``submit_async``
        worker threads share snapshots).
        """
        key = scoring_key(scoring)
        memos = self._memos
        with _LAYOUT_LOCK:
            memo = memos.get(key)
            if memo is None:
                memo = TotalsMemo(scoring, array("d", [UNFILLED]) * self.n)
                memos[key] = memo
                while len(memos) > scoring_capacity(self.n):
                    memos.popitem(last=False)
            else:
                memos.move_to_end(key)
            if memo._columns is None:
                memo._bind(self.score_matrix(), self.uids_array)
        return memo

    def carry_memos(
        self, successor: "ColumnarDatabase", touched_rows: Sequence[int]
    ) -> None:
        """Copy every memo to a successor snapshot with the same rows, in
        which only ``touched_rows`` changed their local scores: every
        other row keeps its total (same floats in, same float out).  The
        approximations stay behind: they follow this snapshot's prefix,
        and the successor starts its own."""
        with _LAYOUT_LOCK:
            memos = list(self._memos.items())
        for key, memo in memos:
            totals = array("d", memo.totals)
            for row in touched_rows:
                totals[row] = UNFILLED
            successor._memos[key] = TotalsMemo(memo.scoring, totals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnarDatabase m={self.m} n={self.n}>"
