"""Best-position management (paper Section 5.2).

The *best position* of a list is the greatest seen position ``bp`` such
that every position ``1..bp`` has been seen (under any access mode).
After each access, the list owner must recompute ``bp``.  Three
implementations, as in the paper:

* :class:`NaiveTracker` — a plain set with recomputation by walking from
  position 1; the O(u^2)-overall reference the paper dismisses;
* :class:`BitArrayTracker` — Section 5.2.1: an ``n``-bit array plus a
  pointer that only ever moves forward (O(n) total, O(n/u) amortized);
* :class:`BPlusTreeTracker` — Section 5.2.2: seen positions in a B+tree
  whose linked leaves let ``bp`` advance cell-by-cell (O(log u) amortized
  including the insert).

All three expose the same tiny interface (:class:`BestPositionTracker`)
and are interchangeable inside BPA/BPA2; the test suite checks they agree
on random access patterns, and a dedicated bench compares their
management cost as the paper's Section 5.2 discussion predicts.

Besides one position at a time (``mark``), every tracker marks in bulk,
as a list owner serving one request does: a batch of positions in any
order (``mark_many``, a round's random lookups), a contiguous range
(``mark_range``, a sorted block) and BPA2's direct walk
(``direct_walk``: up to ``count`` direct accesses, each at the best
position + 1 left by the one before).  Each leaves exactly the state
that marking the same positions one by one leaves, including when a
position is out of range: the positions before it stay marked and
:class:`~repro.errors.InvalidPositionError` is raised.  The naive and
B+tree trackers mark position by position; :class:`BitArrayTracker`
writes its bytes in one loop or one slice and moves its pointer with
``bytearray.find`` of the next unseen byte, which is §5.2.1's forward
walk run in C.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.btree import BPlusTree
from repro.errors import InvalidPositionError
from repro.types import Position


@runtime_checkable
class BestPositionTracker(Protocol):
    """Seen-position bookkeeping for one list."""

    def mark(self, position: Position) -> None:
        """Record that ``position`` (1-based) has been seen."""

    def mark_many(self, positions: Sequence[Position]) -> None:
        """Record every position of ``positions`` (any order), as
        ``mark`` would one by one."""

    def mark_range(self, start: Position, stop: Position) -> None:
        """Record every position of ``range(start, stop)``."""

    def direct_walk(self, count: int) -> list[Position]:
        """Mark ``best_position + 1`` up to ``count`` times, each after
        the previous mark moved the best position; returns the marked
        positions (fewer once the list end is reached)."""

    @property
    def best_position(self) -> Position:
        """Current best position (0 when position 1 is still unseen)."""

    def is_seen(self, position: Position) -> bool:
        """Whether ``position`` has been marked."""

    @property
    def seen_count(self) -> int:
        """Number of distinct positions marked so far."""


class _PerPositionMarks:
    """Bulk marks as a loop of single marks (the naive and B+tree
    trackers' only path, and the bit array's for out-of-range input)."""

    __slots__ = ()

    def mark_many(self, positions: Sequence[Position]) -> None:
        for position in positions:
            self.mark(position)

    def mark_range(self, start: Position, stop: Position) -> None:
        for position in range(start, stop):
            self.mark(position)

    def direct_walk(self, count: int) -> list[Position]:
        positions: list[Position] = []
        for _ in range(count):
            position = self.best_position + 1
            if position > self._n:
                break
            self.mark(position)
            positions.append(position)
        return positions


class NaiveTracker(_PerPositionMarks):
    """Reference implementation: a set, recomputed by forward walking.

    Finding the best position walks from the current ``bp`` — the simple
    method the paper describes as inefficient.  Used as the behavioral
    oracle in tests.
    """

    __slots__ = ("_n", "_seen")

    def __init__(self, n: int) -> None:
        self._n = n
        self._seen: set[Position] = set()

    def mark(self, position: Position) -> None:
        self._check(position)
        self._seen.add(position)

    @property
    def best_position(self) -> Position:
        bp = 0
        while bp + 1 in self._seen:
            bp += 1
        return bp

    def is_seen(self, position: Position) -> bool:
        return position in self._seen

    @property
    def seen_count(self) -> int:
        return len(self._seen)

    def _check(self, position: Position) -> None:
        if not 1 <= position <= self._n:
            raise InvalidPositionError(
                f"position {position} out of range 1..{self._n}"
            )


class BitArrayTracker(_PerPositionMarks):
    """Section 5.2.1: bit array + monotone pointer.

    Mirrors the paper's pseudocode::

        B[j] := 1;
        while (bp < n) and (B[bp + 1] = 1) do bp := bp + 1;

    The pointer moves at most ``n`` times over the whole query, so the
    amortized cost per access is O(n/u).  The walk is
    ``bytearray.find`` of the first unseen byte after ``bp``: the slot
    after position ``n`` is never marked, so it always finds one.  The
    seen count is the number of marked bytes, counted when read.
    """

    __slots__ = ("_n", "_bits", "_bp")

    def __init__(self, n: int) -> None:
        self._n = n
        self._bits = bytearray(n + 2)  # 1-based; +1 sentinel slot
        self._bp = 0

    def mark(self, position: Position) -> None:
        if not 1 <= position <= self._n:
            raise InvalidPositionError(
                f"position {position} out of range 1..{self._n}"
            )
        bits = self._bits
        bits[position] = 1
        if position == self._bp + 1:
            self._bp = bits.find(0, position) - 1

    def mark_many(self, positions: Sequence[Position]) -> None:
        if positions and (min(positions) < 1 or max(positions) > self._n):
            super().mark_many(positions)  # raises at the first bad one
        bits = self._bits
        for position in positions:
            bits[position] = 1
        self._advance()

    def mark_range(self, start: Position, stop: Position) -> None:
        if start >= stop:
            return
        if start < 1 or stop > self._n + 1:
            super().mark_range(start, stop)  # raises at the first bad one
        self._bits[start:stop] = b"\x01" * (stop - start)
        self._advance()

    def direct_walk(self, count: int) -> list[Position]:
        bits, n, bp = self._bits, self._n, self._bp
        positions: list[Position] = []
        for _ in range(count):
            if bp >= n:
                break
            bp += 1
            bits[bp] = 1
            positions.append(bp)
            bp = bits.find(0, bp) - 1
        self._bp = bp
        return positions

    def _advance(self) -> None:
        bp = self._bp
        if self._bits[bp + 1]:
            self._bp = self._bits.find(0, bp + 1) - 1

    @property
    def best_position(self) -> Position:
        return self._bp

    def is_seen(self, position: Position) -> bool:
        return bool(self._bits[position])

    @property
    def seen_count(self) -> int:
        return self._bits.count(1)


class BPlusTreeTracker(_PerPositionMarks):
    """Section 5.2.2: seen positions in a B+tree with linked leaves.

    After inserting a seen position, the best-position pointer advances
    along the leaf chain while the next cell holds ``bp + 1`` — the
    paper's::

        while (bp.next != null) and (bp.next.element = bp.element + 1)
            do bp := bp.next;

    Because inserts can split leaves (invalidating raw cell cursors), the
    tracker re-anchors the cursor at the current ``bp`` key before each
    walk; the amortized cost stays O(log u).
    """

    __slots__ = ("_n", "_tree", "_bp")

    def __init__(self, n: int, *, order: int = 32) -> None:
        self._n = n
        self._tree = BPlusTree(order=order)
        self._bp = 0

    def mark(self, position: Position) -> None:
        if not 1 <= position <= self._n:
            raise InvalidPositionError(
                f"position {position} out of range 1..{self._n}"
            )
        if position in self._tree:
            return  # duplicate marks are no-ops
        self._tree.insert(position)
        if position != self._bp + 1:
            return
        # Advance along the linked leaves, exactly as in the paper.
        cell = self._tree.cell_for(position)
        assert cell is not None
        bp = position
        nxt = cell.next
        while nxt is not None and nxt.element == bp + 1:
            bp += 1
            cell = nxt
            nxt = cell.next
        self._bp = bp

    @property
    def best_position(self) -> Position:
        return self._bp

    def is_seen(self, position: Position) -> bool:
        return position in self._tree

    @property
    def seen_count(self) -> int:
        return len(self._tree)


_TRACKERS = {
    "naive": NaiveTracker,
    "bitarray": BitArrayTracker,
    "btree": BPlusTreeTracker,
}


def make_tracker(kind: str, n: int) -> BestPositionTracker:
    """Instantiate a tracker by name: ``naive``, ``bitarray``, ``btree``.

    The paper's experiments use the bit-array approach ("which is simpler
    than the B+tree approach", Section 6.1), and so do BPA/BPA2 here by
    default.
    """
    if kind not in _TRACKERS:
        raise KeyError(f"unknown tracker kind {kind!r}; known: {sorted(_TRACKERS)}")
    return _TRACKERS[kind](n)
