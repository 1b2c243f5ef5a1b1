"""One sorted list stored as contiguous NumPy columns.

:class:`ColumnarList` is the columnar twin of
:class:`repro.lists.sorted_list.SortedList`: the same canonical layout
(score descending, ties broken by ascending item id), the same scalar
access primitives (``entry_at`` / ``lookup`` / ``position_of``), and the
same typed errors — so :class:`repro.lists.accessor.ListAccessor` and
every algorithm built on it run unchanged.  On top of the scalar
protocol it exposes vectorized fast paths over the raw arrays:

* :meth:`lookup_many` — batched random access, one NumPy gather;
* :meth:`block` — block sorted-access prefetch of a position range;
* :attr:`scores_array` / :attr:`items_array` — zero-copy column views.

Scalar accesses read from plain-list mirrors of the columns: algorithms
doing per-entry Python loops pay list-indexing cost (same as the
pure-Python backend) instead of NumPy scalar-boxing cost, keeping the
generic path competitive while the array views feed the vectorized one.
The mirrors are built on the first scalar read that needs them
(``entry_at``, ``lookup``, ``items``, ``scores``, ``entries``), not when
the list is made: a patched snapshot's lists are mostly read through the
arrays, and ``len``, ``position_of``, ``rows_of`` and ``block`` never
need the mirrors.

Item ids compare by value, as keys of ``SortedList``'s dict index do:
``1``, ``np.int64(1)``, ``1.0`` and ``True`` all name item 1, and
``1.5`` names no item, whether or not the ids are exactly ``0..n-1``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import (
    DatabaseError,
    DuplicateItemError,
    InvalidPositionError,
    UnknownItemError,
)
from repro.lists.accessor import ListMirrors
from repro.types import ItemId, ListEntry, Position, Score

_INT64 = np.dtype(np.int64)


class ColumnarList:
    """An immutable sorted list backed by ``items``/``scores`` arrays.

    Args:
        entries: `(item, score)` pairs in any order; sorted by
            (score desc, item asc), exactly like ``SortedList``.
        name: optional label used in reports (e.g. ``"L1"``).
    """

    __slots__ = (
        "_items",
        "_scores",
        "_uids",
        "_rank_by_row",
        "_dense",
        "_name",
        "_n",
        "_items_list",
        "_scores_list",
        "_mirrors",
    )

    def __init__(
        self,
        entries: Iterable[tuple[ItemId, Score]],
        *,
        name: str = "",
    ) -> None:
        pairs = list(entries)
        items = np.asarray([pair[0] for pair in pairs], dtype=np.int64)
        scores = np.asarray([pair[1] for pair in pairs], dtype=np.float64)
        self._init_from_arrays(items, scores, name)

    def _init_from_arrays(
        self, items: np.ndarray, scores: np.ndarray, name: str
    ) -> None:
        nan = np.isnan(scores)
        if nan.any():
            raise DatabaseError(
                f"item {int(items[nan.argmax()])} in list {name or '?'} "
                "has a NaN local score"
            )
        # Canonical layout: lexsort's last key is primary, so this sorts
        # by score descending, then item id ascending — byte-identical to
        # SortedList's ``sorted(..., key=lambda p: (-p[1], p[0]))``.
        order = np.lexsort((items, -scores))
        self._items = np.ascontiguousarray(items[order])
        self._scores = np.ascontiguousarray(scores[order])
        self._name = name
        n = self._n = self._items.shape[0]
        self._uids = np.sort(items)
        if n and not (np.diff(self._uids) > 0).all():
            duplicated = self._uids[:-1][np.diff(self._uids) == 0]
            raise DuplicateItemError(
                f"item {int(duplicated[0])} appears more than once "
                f"in list {name or '?'}"
            )
        self._dense = bool(
            n == 0 or (int(self._uids[0]) == 0 and int(self._uids[-1]) == n - 1)
        )
        # rank_by_row[row] = 0-based rank of the item with id uids[row].
        rank_by_row = np.empty(n, dtype=np.int64)
        rows_in_rank_order = (
            self._items if self._dense
            else np.searchsorted(self._uids, self._items)
        )
        rank_by_row[rows_in_rank_order] = np.arange(n, dtype=np.int64)
        self._rank_by_row = rank_by_row
        # Plain-list mirrors for the scalar access primitives, built on
        # first use.
        self._items_list: list[int] | None = None
        self._scores_list: list[float] | None = None
        self._mirrors: ListMirrors | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_scores(cls, scores: Sequence[Score], *, name: str = "") -> "ColumnarList":
        """Build a list from a dense score vector indexed by item id."""
        vector = np.asarray(scores, dtype=np.float64)
        instance = cls.__new__(cls)
        instance._init_from_arrays(
            np.arange(vector.shape[0], dtype=np.int64), vector, name
        )
        return instance

    @classmethod
    def from_arrays(
        cls,
        items: np.ndarray,
        scores: np.ndarray,
        *,
        name: str = "",
    ) -> "ColumnarList":
        """Build a list from parallel id/score arrays (any order).

        The arrays are copied into the canonical layout; this is the
        allocation-free twin of the pair-iterable constructor, used by
        the shard builder to slice one database into many.
        """
        instance = cls.__new__(cls)
        instance._init_from_arrays(
            np.asarray(items, dtype=np.int64),
            np.asarray(scores, dtype=np.float64),
            name,
        )
        return instance

    @classmethod
    def _from_canonical(
        cls,
        items: np.ndarray,
        scores: np.ndarray,
        uids: np.ndarray,
        rank_by_row: np.ndarray,
        dense: bool,
        name: str,
    ) -> "ColumnarList":
        """Adopt arrays already in the canonical layout, unverified.

        The snapshot patcher and loader hand over columns they have
        *proven* canonical (rank order is (score desc, item asc), ``uids``
        is the sorted id set, ``rank_by_row`` inverts the rank
        permutation) — re-running ``_init_from_arrays``'s lexsort would
        throw that work away.  Callers certify the invariants; nothing is
        validated here.
        """
        instance = cls.__new__(cls)
        instance._items = np.ascontiguousarray(items, dtype=np.int64)
        instance._scores = np.ascontiguousarray(scores, dtype=np.float64)
        instance._uids = np.ascontiguousarray(uids, dtype=np.int64)
        instance._rank_by_row = np.ascontiguousarray(
            rank_by_row, dtype=np.int64
        )
        instance._dense = bool(dense)
        instance._name = name
        instance._n = instance._items.shape[0]
        instance._items_list = None
        instance._scores_list = None
        instance._mirrors = None
        return instance

    @classmethod
    def from_sorted_list(cls, sorted_list) -> "ColumnarList":
        """Convert a :class:`repro.lists.sorted_list.SortedList`."""
        instance = cls.__new__(cls)
        instance._init_from_arrays(
            np.asarray(sorted_list.items(), dtype=np.int64),
            np.asarray(sorted_list.scores(), dtype=np.float64),
            sorted_list.name,
        )
        return instance

    # ------------------------------------------------------------------
    # Introspection (SortedList-compatible)
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable list label."""
        return self._name

    def __len__(self) -> int:
        return self._n

    def __contains__(self, item: ItemId) -> bool:
        return self._row_of(item) is not None

    def items(self) -> tuple[ItemId, ...]:
        """All item ids in rank order (best first)."""
        return tuple(self._item_mirror())

    def scores(self) -> tuple[Score, ...]:
        """All local scores in rank order (descending)."""
        return tuple(self._score_mirror())

    def entries(self) -> Iterator[ListEntry]:
        """Iterate the whole list as :class:`ListEntry` records."""
        items, scores = self._item_mirror(), self._score_mirror()
        for idx, (item, score) in enumerate(zip(items, scores)):
            yield ListEntry(position=idx + 1, item=item, score=score)

    def _item_mirror(self) -> list[int]:
        """The plain-list mirror of the item column, built on first use.

        Racing readers may each build one; they are equal, and the
        last assignment wins.
        """
        items = self._items_list
        if items is None:
            items = self._items_list = self._items.tolist()
        return items

    def _score_mirror(self) -> list[float]:
        """The plain-list mirror of the score column, built on first use."""
        scores = self._scores_list
        if scores is None:
            scores = self._scores_list = self._scores.tolist()
        return scores

    def mirrors(self) -> ListMirrors:
        """Plain-list mirrors by position plus an id -> position dict,
        built on first use and kept (the list owners serve from them)."""
        mirrors = self._mirrors
        if mirrors is None:
            mirrors = self._mirrors = ListMirrors.build(
                self._items.tolist(), self._scores.tolist()
            )
        return mirrors

    # ------------------------------------------------------------------
    # Scalar access primitives (SortedList-compatible)
    # ------------------------------------------------------------------

    def entry_at(self, position: Position) -> ListEntry:
        """The entry at a 1-based position (direct access primitive)."""
        if not 1 <= position <= self._n:
            raise InvalidPositionError(
                f"position {position} out of range 1..{self._n}"
            )
        items, scores = self._items_list, self._scores_list
        if items is None or scores is None:
            items, scores = self._item_mirror(), self._score_mirror()
        idx = position - 1
        return ListEntry(position=position, item=items[idx], score=scores[idx])

    def score_at(self, position: Position) -> Score:
        """Local score at a 1-based position."""
        return self.entry_at(position).score

    def item_at(self, position: Position) -> ItemId:
        """Item id at a 1-based position."""
        return self.entry_at(position).item

    def position_of(self, item: ItemId) -> Position:
        """1-based position of ``item`` (random access primitive)."""
        row = self._row_of(item)
        if row is None:
            raise UnknownItemError(f"item {item} not in list {self._name or '?'}")
        return int(self._rank_by_row[row]) + 1

    def lookup(self, item: ItemId) -> tuple[Score, Position]:
        """Local score and position of ``item`` (random access primitive)."""
        position = self.position_of(item)
        scores = self._scores_list
        if scores is None:
            scores = self._score_mirror()
        return scores[position - 1], position

    def _row_of(self, item: ItemId) -> int | None:
        """Row (into ``uids_array``) of the id equal to ``item``, if any."""
        # Any value equal to an id names it (np.int64(1), 1.0, True), as
        # on SortedList's dict index, on dense and sparse ids alike.
        try:
            key = int(item)
        except (TypeError, ValueError, OverflowError):
            return None
        if key != item:
            return None
        n = self._n
        if self._dense:
            return key if 0 <= key < n else None
        row = int(self._uids.searchsorted(key))
        if row < n and int(self._uids[row]) == key:
            return row
        return None

    # ------------------------------------------------------------------
    # Vectorized fast paths
    # ------------------------------------------------------------------

    @property
    def scores_array(self) -> np.ndarray:
        """Read-only float64 view of the scores in rank order."""
        view = self._scores.view()
        view.flags.writeable = False
        return view

    @property
    def items_array(self) -> np.ndarray:
        """Read-only int64 view of the item ids in rank order."""
        view = self._items.view()
        view.flags.writeable = False
        return view

    @property
    def uids_array(self) -> np.ndarray:
        """Read-only int64 view of the item ids in ascending id order."""
        view = self._uids.view()
        view.flags.writeable = False
        return view

    @property
    def rank_by_row(self) -> np.ndarray:
        """0-based rank of each item, indexed by its row in ``uids_array``."""
        view = self._rank_by_row.view()
        view.flags.writeable = False
        return view

    @property
    def dense_ids(self) -> bool:
        """Whether the item ids are exactly ``0..n-1``."""
        return self._dense

    def rows_of(self, items: np.ndarray) -> np.ndarray:
        """Dense row index (into ``uids_array``) of each item id."""
        items = np.asarray(items)
        if items.dtype != _INT64:
            if items.size and items.dtype.kind not in "iu":
                # Casting would truncate 1.5 to item 1; ids are integers.
                raise UnknownItemError(
                    f"item ids must be integers, got {items.dtype} "
                    f"in list {self._name or '?'}"
                )
            items = items.astype(np.int64)
        n = self._n
        if self._dense:
            if items.size and (int(items.min()) < 0 or int(items.max()) >= n):
                bad = items[(items < 0) | (items >= n)]
                raise UnknownItemError(
                    f"item {int(bad[0])} not in list {self._name or '?'}"
                )
            return items
        rows = np.searchsorted(self._uids, items)
        ok = (rows < n) & (self._uids[np.minimum(rows, n - 1)] == items)
        if not bool(ok.all()):
            bad = items[~ok]
            raise UnknownItemError(
                f"item {int(bad[0])} not in list {self._name or '?'}"
            )
        return rows

    def lookup_many(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched random access: (scores, 1-based positions) per item."""
        ranks = self._rank_by_row[self.rows_of(items)]
        return self._scores[ranks], ranks + 1

    def block(
        self, start: Position, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block sorted-access prefetch of positions ``start..start+count-1``.

        Returns ``(positions, items, scores)`` arrays, clipped at the end
        of the list.  ``start`` is 1-based like every position.
        """
        if start < 1:
            raise InvalidPositionError(f"block start must be >= 1, got {start}")
        if count < 0:
            raise InvalidPositionError(f"block count must be >= 0, got {count}")
        stop = min(start - 1 + count, self._n)
        # Contiguous read-only views, no index gather: the round-plan
        # engine's sorted waves read straight out of the canonical layout.
        positions = np.arange(start, stop + 1, dtype=np.int64)
        items = self._items[start - 1 : stop]
        items.flags.writeable = False
        scores = self._scores[start - 1 : stop]
        scores.flags.writeable = False
        return positions, items, scores

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self._name or "ColumnarList"
        return f"<{label} (columnar): {self._n} items>"
