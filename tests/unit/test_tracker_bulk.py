"""Bulk best-position marks equal single marks (paper §5.2).

For every tracker kind, a batch (``mark_many``), a contiguous range
(``mark_range``) and BPA2's direct walk (``direct_walk``) leave
``best_position``, ``seen_count`` and ``is_seen`` exactly as marking the
same positions one by one leaves them, duplicates included.  An
out-of-range position raises ``InvalidPositionError`` after the
positions before it are marked, as the one-by-one loop does.  The
oracle is :class:`NaiveTracker` driven one ``mark`` at a time.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.best_position import NaiveTracker, make_tracker
from repro.errors import InvalidPositionError

N = 30
KINDS = ("naive", "bitarray", "btree")

positions = st.integers(-2, N + 2)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("one"), positions),
        st.tuples(st.just("many"), st.lists(positions, max_size=12)),
        st.tuples(st.just("range"), positions, positions),
        st.tuples(st.just("walk"), st.integers(0, 12)),
    ),
    max_size=25,
)


def one_by_one(tracker: NaiveTracker, step: tuple) -> list | None:
    """What ``step`` does as a loop of single marks (the oracle)."""
    kind = step[0]
    if kind == "one":
        tracker.mark(step[1])
    elif kind == "many":
        for position in step[1]:
            tracker.mark(position)
    elif kind == "range":
        for position in range(step[1], step[2]):
            tracker.mark(position)
    else:
        walked = []
        for _ in range(step[1]):
            position = tracker.best_position + 1
            if position > N:
                break
            tracker.mark(position)
            walked.append(position)
        return walked
    return None


def in_bulk(tracker, step: tuple) -> list | None:
    kind = step[0]
    if kind == "one":
        tracker.mark(step[1])
    elif kind == "many":
        tracker.mark_many(step[1])
    elif kind == "range":
        tracker.mark_range(step[1], step[2])
    else:
        return tracker.direct_walk(step[1])
    return None


def outcome(call):
    try:
        return call()
    except InvalidPositionError:
        return InvalidPositionError


def state(tracker, n: int = N) -> tuple:
    return (
        tracker.best_position,
        tracker.seen_count,
        tuple(tracker.is_seen(position) for position in range(1, n + 1)),
    )


@pytest.mark.parametrize("kind", KINDS)
@given(program=steps)
def test_bulk_marks_equal_single_marks(kind, program):
    oracle = NaiveTracker(N)
    tracker = make_tracker(kind, N)
    for step in program:
        expected = outcome(lambda: one_by_one(oracle, step))
        assert outcome(lambda: in_bulk(tracker, step)) == expected
        assert state(tracker) == state(oracle)


@pytest.mark.parametrize("kind", KINDS)
def test_out_of_range_marks_keep_the_positions_before_them(kind):
    tracker = make_tracker(kind, 5)
    with pytest.raises(InvalidPositionError):
        tracker.mark_many([2, 1, 9, 3])
    assert state(tracker, 5) == (2, 2, (True, True, False, False, False))
    with pytest.raises(InvalidPositionError):
        tracker.mark_range(4, 7)
    assert state(tracker, 5) == (2, 4, (True, True, False, True, True))
    with pytest.raises(InvalidPositionError):
        tracker.mark_range(0, 3)
    assert tracker.direct_walk(3) == [3]
    assert state(tracker, 5) == (5, 5, (True,) * 5)
