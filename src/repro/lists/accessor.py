"""Counting wrappers around sorted lists.

Algorithms never touch a list implementation directly; they go through a
:class:`ListAccessor`, which meters every sorted/random/direct access.
This keeps the paper's cost metrics honest — the counts in a
:class:`repro.types.TopKResult` are what the algorithm actually did, not
an after-the-fact estimate.

The accessor is backend-agnostic: anything satisfying
:class:`SortedListLike` works — the pure-Python
:class:`repro.lists.sorted_list.SortedList` (hash/B+tree indexed) and
the NumPy-backed :class:`repro.columnar.ColumnarList` are the two
shipped backends.  The middleware framing is Fagin et al.'s: lists are
abstract sources supporting sorted and random access, so storage can be
swapped without touching algorithm semantics.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol, Sequence, runtime_checkable

from repro.errors import ExhaustedListError, UnknownItemError
from repro.types import AccessTally, ItemId, ListEntry, Position, Score


@runtime_checkable
class SortedListLike(Protocol):
    """The source protocol every list backend implements.

    Positions are 1-based; the layout is canonical (score descending,
    ties broken by ascending item id) so both backends produce identical
    access sequences — the invariant ``tests/differential/`` enforces.
    """

    @property
    def name(self) -> str:
        """Human-readable list label."""
        ...

    def __len__(self) -> int:
        ...

    def entry_at(self, position: Position) -> ListEntry:
        """The entry at a 1-based position."""
        ...

    def score_at(self, position: Position) -> Score:
        """Local score at a 1-based position."""
        ...

    def lookup(self, item: ItemId) -> tuple[Score, Position]:
        """Local score and 1-based position of ``item``."""
        ...


class ListMirrors(NamedTuple):
    """Plain-list copies of one list, to serve a request without a call
    per entry.

    ``items`` and ``scores`` hold the list in rank order, indexed by
    1-based position (index 0 holds ``None``), so a position, a range
    of positions and a slice need no offset; ``positions`` maps each
    item id to its position, naming exactly the ids the list's own
    ``lookup`` names (a dict compares keys by value, as ``SortedList``'s
    index does).  The immutable lists build theirs once, on first use,
    and keep them (``SortedList.mirrors``, ``ColumnarList.mirrors``),
    so every owner node and every query over a list shares one copy.
    """

    items: list[ItemId | None]
    scores: list[Score | None]
    positions: dict[ItemId, Position]

    @classmethod
    def build(
        cls, items: Sequence[ItemId], scores: Sequence[Score]
    ) -> "ListMirrors":
        """Mirrors of a list given its ids and scores in rank order."""
        return cls(
            [None, *items],
            [None, *scores],
            dict(zip(items, range(1, len(items) + 1))),
        )


def list_mirrors(source: SortedListLike) -> ListMirrors:
    """The mirrors of ``source``: its own kept ones, or a fresh copy read
    entry by entry for a source that keeps none (a dynamic list may
    change between queries, a disk list keeps no copy in memory)."""
    kept = getattr(source, "mirrors", None)
    if kept is not None:
        return kept()
    entries = [source.entry_at(position) for position in range(1, len(source) + 1)]
    return ListMirrors.build(
        [entry.item for entry in entries], [entry.score for entry in entries]
    )


@runtime_checkable
class DatabaseLike(Protocol):
    """The database protocol: ``m`` same-item-set sorted lists."""

    @property
    def m(self) -> int:
        ...

    @property
    def n(self) -> int:
        ...

    @property
    def lists(self) -> Sequence[SortedListLike]:
        ...


class ListAccessor:
    """Meters accesses against one sorted list.

    Maintains the sorted-access cursor (the "last seen position" of
    TA/BPA) and a per-list :class:`AccessTally`.
    """

    __slots__ = ("_list", "tally", "_cursor")

    def __init__(self, sorted_list: SortedListLike) -> None:
        self._list = sorted_list
        self.tally = AccessTally()
        self._cursor = 0  # last position read under sorted access

    @property
    def source(self) -> SortedListLike:
        """The wrapped sorted list."""
        return self._list

    @property
    def last_sorted_position(self) -> Position:
        """Last position read under sorted access (0 before the first)."""
        return self._cursor

    @property
    def exhausted(self) -> bool:
        """Whether sorted access has consumed the whole list."""
        return self._cursor >= len(self._list)

    def __len__(self) -> int:
        return len(self._list)

    # ------------------------------------------------------------------
    # The three metered access modes
    # ------------------------------------------------------------------

    def sorted_next(self) -> ListEntry:
        """Sorted (sequential) access: read the next entry."""
        if self.exhausted:
            raise ExhaustedListError(
                f"sorted access past the end of {self._list.name or 'list'}"
            )
        self._cursor += 1
        self.tally.sorted += 1
        return self._list.entry_at(self._cursor)

    def random_lookup(self, item: ItemId) -> tuple[Score, Position]:
        """Random access: local score and position of ``item``."""
        self.tally.random += 1
        return self._list.lookup(item)

    def direct_at(self, position: Position) -> ListEntry:
        """Direct access: the entry at a given 1-based position (BPA2)."""
        self.tally.direct += 1
        return self._list.entry_at(position)

    # ------------------------------------------------------------------
    # Metered batch variants (vectorized on columnar sources)
    # ------------------------------------------------------------------

    def lookup_many(self, items: Sequence[ItemId]):
        """Batched random access: ``(scores, positions)`` for ``items``.

        Counts one random access per item — batching is an engineering
        fast path, not an accounting discount.  The tally after this
        call is *identical* to the equivalent :meth:`random_lookup`
        sequence, failure modes included: an unknown item mid-batch
        leaves exactly the accesses up to and including the failing
        lookup counted, as the per-entry loop would (the vectorized
        path validates every item before counting, so it only serves
        all-known batches; a bad batch replays through the scalar loop
        to fail at the same item with the same partial tally).
        Columnar sources answer with a single NumPy gather; other
        backends fall back to a scalar loop with identical results.
        """
        fast = getattr(self._list, "lookup_many", None)
        if fast is not None:
            try:
                scores, positions = fast(items)
            except UnknownItemError:
                pass  # replay per entry below for exact partial metering
            else:
                self.tally.random += len(items)
                return scores, positions
        scores = []
        positions = []
        for item in items:
            score, position = self.random_lookup(item)
            scores.append(score)
            positions.append(position)
        return scores, positions

    def sorted_block(self, count: int) -> list[ListEntry]:
        """Block sorted access: read up to ``count`` next entries.

        Advances the cursor and counts one sorted access per entry
        actually read (the block may be truncated at the end of the
        list), so the tally and cursor equal the per-entry
        :meth:`sorted_next` sequence that stops at exhaustion.
        Columnar sources prefetch the block as array slices.
        """
        claimed = self.claim_sorted(count)
        if not claimed:
            return []
        fast = getattr(self._list, "block", None)
        if fast is not None:
            positions, items, scores = fast(claimed.start, len(claimed))
            return [
                ListEntry(position=int(p), item=int(i), score=float(s))
                for p, i, s in zip(positions, items, scores)
            ]
        return [self._list.entry_at(position) for position in claimed]

    def claim_sorted(self, count: int) -> range:
        """Block sorted access without reading: the metering of
        :meth:`sorted_block` alone.

        Advances the cursor by up to ``count`` positions (clipped at the
        end of the list), counts one sorted access each, and returns the
        1-based positions claimed; the caller reads them itself (the
        owner nodes, from the list's mirrors).
        """
        if count < 0:
            raise ValueError(f"block count must be >= 0, got {count}")
        start = self._cursor
        stop = min(start + count, len(self._list))
        self._cursor = stop
        self.tally.sorted += stop - start
        return range(start + 1, stop + 1)

    def reset(self) -> None:
        """Clear the tally and rewind the sorted-access cursor."""
        self.tally = AccessTally()
        self._cursor = 0


class DatabaseAccessor:
    """Bundle of one :class:`ListAccessor` per list of a database."""

    __slots__ = ("_database", "accessors")

    def __init__(self, database: DatabaseLike) -> None:
        self._database = database
        self.accessors = tuple(ListAccessor(lst) for lst in database.lists)

    @property
    def database(self) -> DatabaseLike:
        """The wrapped database."""
        return self._database

    @property
    def m(self) -> int:
        """Number of lists."""
        return len(self.accessors)

    @property
    def n(self) -> int:
        """Number of items per list."""
        return self._database.n

    def __iter__(self):
        return iter(self.accessors)

    def __getitem__(self, index: int) -> ListAccessor:
        return self.accessors[index]

    def total_tally(self) -> AccessTally:
        """Sum of the per-list tallies."""
        total = AccessTally()
        for accessor in self.accessors:
            total = total + accessor.tally
        return total

    def reset(self) -> None:
        """Reset every per-list accessor."""
        for accessor in self.accessors:
            accessor.reset()
