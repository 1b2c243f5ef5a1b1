"""An updatable sorted list with the same read API as SortedList.

Entries are keyed ``(-score, item)`` in an order-statistic treap, so the
list order matches :class:`repro.lists.sorted_list.SortedList` exactly
(score descending, ties by ascending item id) while ``insert`` /
``update`` / ``remove`` cost O(log n).  Reads are:

* ``entry_at(position)`` — treap ``select`` (direct/sorted access);
* ``position_of(item)`` / ``lookup(item)`` — treap ``rank`` on the
  item's current key (random access).

Because the read surface matches ``SortedList``, the metered accessors
and every algorithm in the library work on dynamic lists unchanged.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.dynamic.treap import OrderStatisticTreap
from repro.errors import (
    DatabaseError,
    DuplicateItemError,
    InvalidPositionError,
    UnknownItemError,
)
from repro.types import ItemId, ListEntry, Position, Score


class DynamicSortedList:
    """A sorted list supporting O(log n) score updates."""

    __slots__ = ("_treap", "_score_of", "_name")

    def __init__(
        self, entries: Iterable[tuple[ItemId, Score]] = (), *, name: str = ""
    ) -> None:
        self._treap = OrderStatisticTreap()
        self._score_of: dict[ItemId, Score] = {}
        self._name = name
        for item, score in entries:
            self.insert(item, score)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def insert(self, item: ItemId, score: Score) -> None:
        """Add a new item; raises :class:`DuplicateItemError` if present."""
        if item in self._score_of:
            raise DuplicateItemError(
                f"item {item} already in list {self._name or '?'}"
            )
        score = float(score)
        if score != score:
            raise self._nan_error(item)
        self._score_of[item] = score
        self._treap.insert((-score, item))

    def update(self, item: ItemId, score: Score) -> None:
        """Change an item's score; raises if the item is unknown."""
        old = self._score_of.get(item)
        if old is None:
            raise UnknownItemError(f"item {item} not in list {self._name or '?'}")
        score = float(score)
        if score != score:
            raise self._nan_error(item)
        if score == old:
            return
        self._treap.delete((-old, item))
        self._treap.insert((-score, item))
        self._score_of[item] = score

    def remove(self, item: ItemId) -> None:
        """Delete an item; raises if unknown."""
        old = self._score_of.pop(item, None)
        if old is None:
            raise UnknownItemError(f"item {item} not in list {self._name or '?'}")
        self._treap.delete((-old, item))

    def apply_delta(self, item: ItemId, delta: Score) -> None:
        """Adjust an item's score by ``delta`` (monitoring convenience)."""
        current = self._score_of.get(item)
        if current is None:
            raise UnknownItemError(f"item {item} not in list {self._name or '?'}")
        self.update(item, current + delta)

    def _nan_error(self, item: ItemId) -> DatabaseError:
        # A NaN key would break the treap's ordering: it compares false
        # both ways, so it has no rank.
        return DatabaseError(
            f"item {item} in list {self._name or '?'} has a NaN local score"
        )

    # ------------------------------------------------------------------
    # SortedList-compatible read API
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable list label."""
        return self._name

    def __len__(self) -> int:
        return len(self._score_of)

    def __contains__(self, item: ItemId) -> bool:
        return item in self._score_of

    def entry_at(self, position: Position) -> ListEntry:
        """The entry at a 1-based position."""
        if not 1 <= position <= len(self):
            raise InvalidPositionError(
                f"position {position} out of range 1..{len(self)}"
            )
        neg_score, item = self._treap.select(position)
        return ListEntry(position=position, item=item, score=-neg_score)

    def score_at(self, position: Position) -> Score:
        """Local score at a 1-based position."""
        return self.entry_at(position).score

    def item_at(self, position: Position) -> ItemId:
        """Item id at a 1-based position."""
        return self.entry_at(position).item

    def position_of(self, item: ItemId) -> Position:
        """1-based position of ``item``."""
        score = self._score_of.get(item)
        if score is None:
            raise UnknownItemError(f"item {item} not in list {self._name or '?'}")
        return self._treap.rank((-score, item))

    def lookup(self, item: ItemId) -> tuple[Score, Position]:
        """Local score and position of ``item`` (random access)."""
        position = self.position_of(item)  # raises UnknownItemError if absent
        return self._score_of[item], position

    def items(self) -> tuple[ItemId, ...]:
        """All item ids in rank order (best first)."""
        return tuple(item for _neg, item in self._treap)

    def scores(self) -> tuple[Score, ...]:
        """All scores in rank order (descending)."""
        return tuple(-neg for neg, _item in self._treap)

    def entries(self) -> Iterator[ListEntry]:
        """Iterate the whole list as :class:`ListEntry` records."""
        for index, (neg_score, item) in enumerate(self._treap):
            yield ListEntry(position=index + 1, item=item, score=-neg_score)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self._name or "DynamicSortedList"
        return f"<{label}: {len(self)} items (dynamic)>"
