"""Unit tests for the round-plan engine and block-access metering.

The metering property test is the accounting contract every block
fetch must honor: a ``sorted_block`` / ``lookup_many`` call leaves the
accessor's tally (and cursor) exactly where the equivalent per-entry
sequence would — including the partial tallies of failure paths, where
an unknown item mid-batch must count precisely the lookups up to and
including the failing one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import TopKBuffer
from repro.columnar import ColumnarList
from repro.errors import ExhaustedListError, UnknownItemError
from repro.exec.plan import (
    BlockRound,
    DirectBlock,
    ProbeBatch,
    RoundPlan,
    SortedFetch,
)
from repro.lists.accessor import ListAccessor
from repro.lists.sorted_list import SortedList


# ----------------------------------------------------------------------
# RoundPlan invariants
# ----------------------------------------------------------------------


class TestRoundPlan:
    def test_rejects_two_ops_for_one_list(self):
        with pytest.raises(ValueError, match="one op per list"):
            RoundPlan(ops=(SortedFetch(0, 1), ProbeBatch(0, (1,))))

    def test_allows_distinct_lists_and_empty_plans(self):
        RoundPlan(ops=())
        RoundPlan(
            ops=(SortedFetch(0, 2), ProbeBatch(1, (3,)), DirectBlock(2, (), 4))
        )


def _surface(seen: set) -> BlockRound:
    block = BlockRound(3, seen)
    block.add(0, [(7, 0.9)])
    block.add(1, [(5, 0.8)])
    block.add(2, [(7, 0.7)])  # 7 surfaced twice
    return block


class TestBlockRound:
    def test_probe_needs_skip_surfacing_lists_in_first_surfaced_order(self):
        assert list(_surface(set()).vectors) == [7, 5]
        assert list(_surface({7}).vectors) == [5]
        assert _surface(set()).probe_needs() == [[5], [7], [5]]
        block = _surface(set())
        block.add(1, [(3, 0.6, 2)])  # sorted entries carry their position
        assert block.probe_needs() == [[5, 3], [7], [5, 3]]

    def test_local_scores_merge_surfaced_and_probed(self):
        block = BlockRound(3, set())
        block.add(0, [(7, 0.9)])
        block.add(2, [(7, 0.7)])
        block.fill(1, [7], [(0.5, 4)])
        assert block.vectors[7] == [0.9, 0.5, 0.7]

    def test_complete_scores_new_items_in_order_and_marks_them_seen(self):
        block = _surface({3})
        block.fill(0, [5], [(0.1, 1)])
        block.fill(1, [7], [(0.5, 2)])
        block.fill(2, [5], [(0.2, 3)])
        scored = []
        buffer = TopKBuffer(2)
        block.complete(buffer, lambda local: scored.append(list(local)) or sum(local))
        assert scored == [[0.9, 0.5, 0.7], [0.1, 0.8, 0.2]]
        assert [entry.item for entry in buffer.ranked()] == [7, 5]
        assert block.seen == {3, 7, 5}


# ----------------------------------------------------------------------
# Metering: block fetches tally exactly like per-entry sequences
# ----------------------------------------------------------------------


def _make_lists(scores):
    entries = list(enumerate(scores))
    return (
        SortedList(entries, name="py"),
        ColumnarList(entries, name="col"),
    )


@st.composite
def _block_programs(draw):
    n = draw(st.integers(1, 12))
    scores = draw(
        st.lists(
            st.floats(0, 1, allow_nan=False, width=32),
            min_size=n,
            max_size=n,
        )
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("sorted"), st.integers(0, n + 3)),
                st.tuples(
                    st.just("lookup"),
                    st.lists(st.integers(0, n + 2), max_size=5),
                ),
            ),
            max_size=8,
        )
    )
    return scores, ops


class TestBlockMeteringEquality:
    """Property: block and per-entry access paths meter identically."""

    @settings(max_examples=60, deadline=None)
    @given(program=_block_programs())
    def test_tallies_equal_per_entry_sequence(self, program):
        scores, ops = program
        for source in _make_lists(scores):
            block_side = ListAccessor(source)
            entry_side = ListAccessor(source)
            for kind, arg in ops:
                if kind == "sorted":
                    entries = block_side.sorted_block(arg)
                    singles = []
                    for _ in range(arg):
                        if entry_side.exhausted:
                            break
                        singles.append(entry_side.sorted_next())
                    assert entries == singles
                else:
                    try:
                        block_scores, _ = block_side.lookup_many(arg)
                        block_error = None
                    except UnknownItemError as exc:
                        block_error = exc
                    entry_scores = []
                    entry_error = None
                    for item in arg:
                        try:
                            score, _pos = entry_side.random_lookup(item)
                        except UnknownItemError as exc:
                            entry_error = exc
                            break
                        entry_scores.append(score)
                    assert (block_error is None) == (entry_error is None)
                    if block_error is None:
                        assert list(block_scores) == entry_scores
                # The contract: identical tally and cursor after every
                # step, success or failure.
                assert block_side.tally == entry_side.tally, (kind, arg)
                assert (
                    block_side.last_sorted_position
                    == entry_side.last_sorted_position
                )

    def test_unknown_item_mid_batch_counts_partial_tally(self):
        for source in _make_lists([0.9, 0.5, 0.1]):
            accessor = ListAccessor(source)
            with pytest.raises(UnknownItemError):
                accessor.lookup_many([0, 1, 99, 2])
            # Two successes plus the failing lookup, exactly as the
            # per-entry loop counts (random_lookup meters, then raises).
            assert accessor.tally.random == 3

    def test_sorted_block_clips_and_then_returns_empty(self):
        for source in _make_lists([0.9, 0.5]):
            accessor = ListAccessor(source)
            assert len(accessor.sorted_block(5)) == 2
            assert accessor.tally.sorted == 2
            assert accessor.sorted_block(3) == []
            assert accessor.tally.sorted == 2
            with pytest.raises(ExhaustedListError):
                accessor.sorted_next()


# ----------------------------------------------------------------------
# AIMD admission control
# ----------------------------------------------------------------------


class TestAdaptiveConcurrency:
    def _controller(self, **kwargs):
        from repro.service import AdaptiveConcurrency

        return AdaptiveConcurrency(**kwargs)

    def test_additive_increase_up_to_cap(self):
        controller = self._controller(max_window=6)
        assert controller.window == 3  # starts at half the ceiling
        for _ in range(200):
            controller._in_flight += 1  # pair the releases
            controller.release(0.01)
        assert controller.window == 6

    def test_multiplicative_decrease_on_latency_spike(self):
        controller = self._controller(max_window=16, start=16)
        controller._in_flight += 1
        controller.release(0.01)  # establishes the baseline
        before = controller.window
        controller._in_flight += 1
        controller.release(10.0)  # far above threshold * baseline
        assert controller.window <= max(1, before // 2)

    def test_window_never_leaves_bounds(self):
        controller = self._controller(max_window=4, min_window=2)
        for latency in (0.01, 50.0, 0.01, 80.0, 0.01):
            controller._in_flight += 1
            controller.release(latency)
            assert 2 <= controller.window <= 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            self._controller(max_window=0)
        with pytest.raises(ValueError):
            self._controller(max_window=4, min_window=9)
        with pytest.raises(ValueError):
            self._controller(max_window=4, backoff=1.5)

    def test_acquire_release_gating(self):
        import asyncio

        async def scenario():
            controller = self._controller(max_window=2, start=1)
            order = []

            async def worker(tag, latency):
                await controller.acquire()
                order.append(tag)
                await asyncio.sleep(0)
                controller.release(latency)

            await asyncio.gather(*(worker(i, 0.001) for i in range(5)))
            assert sorted(order) == list(range(5))
            assert controller.in_flight == 0

        asyncio.run(scenario())
