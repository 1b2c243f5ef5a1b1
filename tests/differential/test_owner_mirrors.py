"""One owner node over every source: plain, dense columnar, gapped ids.

A :class:`~repro.distributed.nodes.ListOwnerNode` serves every request
from its list's plain-list mirrors and marks best positions in bulk.
Random op sequences run against three nodes over the same scores: a
plain :class:`SortedList` and a columnar list with ids ``0..n-1``, and a
columnar list whose ids have gaps (id ``i`` stored as ``3i + 1``).  Ids
outside the list ride along (negative, past the end, inside a gap, a
non-integral float), so batches fail part-way.  With and without
shipped positions, every response (piggybacked ``bp_score`` included,
gapped ids mapped back), every raised error type, and the tally and best
position after each op are identical across the three, and equal to
:class:`ReferenceOwner`'s: the protocol served one access at a time
through a metered :class:`ListAccessor` and a :class:`NaiveTracker`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.columnar import ColumnarList
from repro.core.best_position import NaiveTracker
from repro.distributed.nodes import ListOwnerNode
from repro.dynamic.dynamic_list import DynamicSortedList
from repro.errors import ProtocolError
from repro.lists.accessor import ListAccessor
from repro.lists.sorted_list import SortedList

N = 16
#: ids no list holds: dense-space id -> the gapped list's twin
UNKNOWN = {-1: -2, N: 3 * N + 1, N + 7: 17, 10**12: 10**12}

ids = st.one_of(st.integers(0, N - 1), st.sampled_from([*UNKNOWN, 1.5]))
batches = st.lists(ids, max_size=6)
counts = st.integers(0, N + 2)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("sorted_next"), st.just({})),
        st.tuples(st.just("sorted_block"), st.fixed_dictionaries({"count": counts})),
        st.tuples(st.just("random_lookup"), st.fixed_dictionaries({"item": ids})),
        st.tuples(
            st.just("random_lookup_many"), st.fixed_dictionaries({"items": batches})
        ),
        st.tuples(st.just("direct_next"), st.just({})),
        st.tuples(st.just("direct_step"), st.fixed_dictionaries({"items": batches})),
        st.tuples(
            st.just("direct_block"),
            st.fixed_dictionaries({"items": batches, "count": counts}),
        ),
        st.tuples(st.just("top"), st.fixed_dictionaries({"count": counts})),
        st.tuples(
            st.just("get_scores_above"),
            st.fixed_dictionaries({"threshold": st.sampled_from([0.0, 0.5, 2.0])}),
        ),
        st.tuples(st.just("state"), st.just({})),
        st.tuples(st.just("reset"), st.just({})),
    ),
    max_size=14,
)
scores = st.lists(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1, width=32),
    min_size=N,
    max_size=N,
)


def gapped(item):
    if isinstance(item, int):
        return UNKNOWN.get(item, 3 * item + 1)
    return item


def dense(item: int) -> int:
    return (item - 1) // 3


def to_gapped(payload: dict) -> dict:
    payload = dict(payload)
    if "item" in payload:
        payload["item"] = gapped(payload["item"])
    if "items" in payload:
        payload["items"] = [gapped(item) for item in payload["items"]]
    return payload


def from_gapped(response: dict) -> dict:
    response = dict(response)
    if "item" in response:
        response["item"] = dense(response["item"])
    if "items" in response:
        response["items"] = [dense(item) for item in response["items"]]
    if "entries" in response:
        response["entries"] = [(dense(i), s) for i, s in response["entries"]]
    return response


class ReferenceOwner:
    """The owner protocol served one access at a time."""

    def __init__(self, source: SortedList, include_position: bool) -> None:
        self.source = source
        self.include_position = include_position
        self.reset()

    def reset(self) -> None:
        self.accessor = ListAccessor(self.source)
        self.tracker = NaiveTracker(len(self.source))

    def lookups(self, items: list) -> tuple[list, list]:
        scores, positions = [], []
        for item in items:
            score, position = self.accessor.random_lookup(item)
            self.tracker.mark(position)
            scores.append(score)
            positions.append(position)
        return scores, positions

    def direct(self, count: int) -> list:
        entries = []
        for _ in range(count):
            position = self.tracker.best_position + 1
            if position > len(self.source):
                break
            entry = self.accessor.direct_at(position)
            self.tracker.mark(position)
            entries.append((entry.item, entry.score))
        return entries

    def handle(self, kind: str, payload: dict) -> dict:
        if kind == "reset":
            self.reset()
            return {}
        before = self.tracker.best_position
        response = self.serve(kind, payload)
        after = self.tracker.best_position
        if after != before:
            response["bp_score"] = self.source.score_at(after)
        return response

    def serve(self, kind: str, payload: dict) -> dict:
        n = len(self.source)
        if kind in ("sorted_next", "sorted_block"):
            if kind == "sorted_next":
                entries = [self.accessor.sorted_next()]
            else:
                entries = self.accessor.sorted_block(payload["count"])
            for entry in entries:
                self.tracker.mark(entry.position)
            positions = [entry.position for entry in entries]
            if kind == "sorted_next":
                response = {"item": entries[0].item, "score": entries[0].score}
                if self.include_position:
                    response["position"] = positions[0]
                return response
            response = {
                "items": [entry.item for entry in entries],
                "scores": [entry.score for entry in entries],
            }
            if self.include_position:
                response["positions"] = positions
            return response
        if kind in ("random_lookup", "random_lookup_many"):
            single = kind == "random_lookup"
            scores, positions = self.lookups(
                [payload["item"]] if single else payload["items"]
            )
            response = {"score": scores[0]} if single else {"scores": scores}
            if self.include_position:
                response["position" if single else "positions"] = (
                    positions[0] if single else positions
                )
            return response
        if kind == "direct_next":
            entries = self.direct(1)
            if not entries:
                return {"exhausted": True}
            return {"item": entries[0][0], "score": entries[0][1]}
        if kind == "direct_step":
            response = {"scores": self.lookups(payload["items"])[0]}
            entries = self.direct(1)
            if entries:
                response["item"], response["score"] = entries[0]
            else:
                response["exhausted"] = True
            return response
        if kind == "direct_block":
            scores = self.lookups(payload["items"])[0]
            entries = self.direct(payload["count"])
            return {
                "scores": scores,
                "entries": entries,
                "exhausted": self.tracker.best_position >= n,
            }
        if kind == "top":
            count = min(payload["count"], n)
            entries = [self.accessor.sorted_next() for _ in range(count)]
            return {"entries": [(entry.item, entry.score) for entry in entries]}
        if kind == "get_scores_above":
            entries = []
            while not self.accessor.exhausted:
                entry = self.accessor.sorted_next()
                if entry.score < payload["threshold"]:
                    break
                entries.append((entry.item, entry.score))
            return {"entries": entries}
        if kind == "state":
            tally = self.accessor.tally
            return {
                "best_position": self.tracker.best_position,
                "sorted": tally.sorted,
                "random": tally.random,
                "direct": tally.direct,
            }
        raise ProtocolError(kind)

    def best_position_score(self) -> float:
        bp = self.tracker.best_position
        return float("inf") if bp == 0 else self.source.score_at(bp)


def outcome(node, kind: str, payload: dict):
    try:
        return node.handle(kind, payload)
    except Exception as error:  # the error type is part of the behaviour
        return type(error)


def nodes(values: list[float], include_position: bool) -> list[ListOwnerNode]:
    entries = list(enumerate(values))
    sources = [
        SortedList(entries),
        ColumnarList(entries),
        ColumnarList([(3 * item + 1, score) for item, score in entries]),
    ]
    return [
        ListOwnerNode(source, include_position=include_position)
        for source in sources
    ]


@pytest.mark.parametrize("include_position", [False, True])
@given(values=scores, program=ops)
@example(  # sorted access past the end, and a kind no owner serves
    values=[0.5] * N,
    program=[("sorted_block", {"count": N}), ("sorted_next", {}), ("nonsense", {})],
)
def test_every_source_serves_as_the_reference(include_position, values, program):
    reference = ReferenceOwner(SortedList(enumerate(values)), include_position)
    plain, columnar, gaps = nodes(values, include_position)
    for kind, payload in program:
        expected = outcome(reference, kind, dict(payload))
        assert outcome(plain, kind, dict(payload)) == expected
        assert outcome(columnar, kind, dict(payload)) == expected
        answer = outcome(gaps, kind, to_gapped(payload))
        assert (answer if isinstance(answer, type) else from_gapped(answer)) == expected
        state = reference.handle("state", {})
        for node in (plain, columnar, gaps):
            assert node.handle("state", {}) == state
            assert node.best_position_score() == reference.best_position_score()


def test_an_id_only_the_list_itself_names_is_served_item_by_item():
    # A 0-d array is unhashable, so the id dict cannot name it, but the
    # columnar list's own lookup compares it by value.
    node = ListOwnerNode(ColumnarList([(0, 3.0), (5, 2.0), (9, 1.0)]))
    response = node.handle("random_lookup_many", {"items": [9, np.array(5)]})
    assert response == {"scores": [1.0, 2.0]}
    assert node.handle("state", {}) == {
        "best_position": 0, "sorted": 0, "random": 2, "direct": 0,
    }


def test_a_list_that_keeps_no_mirrors_is_copied_at_each_reset():
    # A dynamic list may change between queries: its node reads it again
    # on every reset instead of keeping a copy.
    source = DynamicSortedList([(0, 3.0), (1, 2.0), (2, 1.0)])
    node = ListOwnerNode(source)
    assert node.handle("sorted_block", {"count": 3})["items"] == [0, 1, 2]
    source.update(2, 5.0)
    node.handle("reset", {})
    assert node.handle("random_lookup_many", {"items": [2, 0]}) == {
        "scores": [5.0, 3.0], "bp_score": 3.0,
    }
