"""One sorted list: items ranked descending by local score.

Positions are 1-based (position 1 = highest score), matching the paper.
Ties between equal scores are broken by ascending item id so that every
database has exactly one canonical list layout — important for
reproducible experiments and for encoding the paper's figures verbatim.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

from repro.btree import BPlusTree
from repro.errors import (
    DatabaseError,
    DuplicateItemError,
    InvalidPositionError,
    UnknownItemError,
)
from repro.lists.accessor import ListMirrors
from repro.types import ItemId, ListEntry, Position, Score


class SortedList:
    """An immutable sorted list of `(item, local_score)` pairs.

    Args:
        entries: `(item, score)` pairs in any order; they are sorted by
            (score desc, item asc).
        name: optional label used in reports (e.g. ``"L1"``).
        index_kind: ``"dict"`` (default) keeps an O(1) hash index from item
            to position; ``"btree"`` uses :class:`repro.btree.BPlusTree`,
            matching the paper's assumption of a tree index whose lookups
            cost ``log n``.
    """

    __slots__ = ("_items", "_scores", "_index", "_name", "_index_kind", "_mirrors")

    def __init__(
        self,
        entries: Iterable[tuple[ItemId, Score]],
        *,
        name: str = "",
        index_kind: str = "dict",
    ) -> None:
        pairs = sorted(entries, key=lambda pair: (-pair[1], pair[0]))
        self._items: tuple[ItemId, ...] = tuple(item for item, _score in pairs)
        self._scores: tuple[Score, ...] = tuple(float(score) for _item, score in pairs)
        if any(map(math.isnan, self._scores)):
            item = next(
                item for item, score in zip(self._items, self._scores)
                if math.isnan(score)
            )
            raise DatabaseError(
                f"item {item} in list {name or '?'} has a NaN local score"
            )
        self._name = name
        self._index_kind = index_kind
        if len(set(self._items)) != len(self._items):
            seen: set[ItemId] = set()
            for item in self._items:
                if item in seen:
                    raise DuplicateItemError(
                        f"item {item} appears more than once in list {name or '?'}"
                    )
                seen.add(item)
        if index_kind == "dict":
            self._index: Mapping[ItemId, int] | BPlusTree = {
                item: idx for idx, item in enumerate(self._items)
            }
        elif index_kind == "btree":
            tree = BPlusTree(order=64)
            for idx, item in enumerate(self._items):
                tree.insert(item, idx)
            self._index = tree
        else:
            raise ValueError(f"unknown index kind: {index_kind!r}")
        self._mirrors: ListMirrors | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_scores(
        cls, scores: Sequence[Score], *, name: str = "", index_kind: str = "dict"
    ) -> "SortedList":
        """Build a list from a dense score vector indexed by item id."""
        return cls(
            ((item, score) for item, score in enumerate(scores)),
            name=name,
            index_kind=index_kind,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable list label."""
        return self._name

    @property
    def index_kind(self) -> str:
        """Which item→position index backs random access."""
        return self._index_kind

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: ItemId) -> bool:
        if isinstance(self._index, BPlusTree):
            return item in self._index
        return item in self._index

    def items(self) -> tuple[ItemId, ...]:
        """All item ids in rank order (best first)."""
        return self._items

    def scores(self) -> tuple[Score, ...]:
        """All local scores in rank order (descending)."""
        return self._scores

    def entries(self) -> Iterator[ListEntry]:
        """Iterate the whole list as :class:`ListEntry` records."""
        for idx, (item, score) in enumerate(zip(self._items, self._scores)):
            yield ListEntry(position=idx + 1, item=item, score=score)

    def mirrors(self) -> ListMirrors:
        """Plain-list mirrors of the list, built on first use and kept.

        Racing readers may each build one; they are equal, and the last
        assignment wins.
        """
        mirrors = self._mirrors
        if mirrors is None:
            mirrors = self._mirrors = ListMirrors.build(self._items, self._scores)
        return mirrors

    # ------------------------------------------------------------------
    # The three access modes (uncounted primitives; see ListAccessor)
    # ------------------------------------------------------------------

    def entry_at(self, position: Position) -> ListEntry:
        """The entry at a 1-based position (direct access primitive)."""
        if not 1 <= position <= len(self._items):
            raise InvalidPositionError(
                f"position {position} out of range 1..{len(self._items)}"
            )
        idx = position - 1
        return ListEntry(position=position, item=self._items[idx], score=self._scores[idx])

    def score_at(self, position: Position) -> Score:
        """Local score at a 1-based position."""
        return self.entry_at(position).score

    def item_at(self, position: Position) -> ItemId:
        """Item id at a 1-based position."""
        return self.entry_at(position).item

    def position_of(self, item: ItemId) -> Position:
        """1-based position of ``item`` (random access primitive)."""
        if isinstance(self._index, BPlusTree):
            idx = self._index.get(item, None)
        else:
            idx = self._index.get(item)
        if idx is None:
            raise UnknownItemError(f"item {item} not in list {self._name or '?'}")
        return idx + 1

    def lookup(self, item: ItemId) -> tuple[Score, Position]:
        """Local score and position of ``item`` (random access primitive)."""
        position = self.position_of(item)
        return self._scores[position - 1], position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self._name or "SortedList"
        return f"<{label}: {len(self._items)} items>"
