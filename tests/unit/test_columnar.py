"""Unit coverage for the columnar storage layer and its fast paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnar import ColumnarDatabase, ColumnarList
from repro.errors import (
    DuplicateItemError,
    InconsistentListsError,
    InvalidPositionError,
    UnknownItemError,
)
from repro.lists.accessor import (
    DatabaseAccessor,
    DatabaseLike,
    ListAccessor,
    SortedListLike,
)
from repro.lists.database import Database
from repro.lists.sorted_list import SortedList
from repro.scoring import SUM


@pytest.fixture()
def pair():
    """The same 3-list database on both backends."""
    rows = [
        [9.0, 7.0, 5.0, 3.0, 1.0, 8.0],
        [2.0, 9.0, 6.0, 4.0, 8.0, 1.0],
        [5.0, 3.0, 9.0, 8.0, 2.0, 6.0],
    ]
    return Database.from_score_rows(rows), ColumnarDatabase.from_score_rows(rows)


class TestColumnarList:
    def test_satisfies_the_source_protocol(self):
        columnar = ColumnarList.from_scores([3.0, 1.0, 2.0])
        assert isinstance(columnar, SortedListLike)

    def test_scalar_primitives_match_sorted_list(self):
        entries = [(5, 2.5), (2, 7.0), (9, 2.5), (0, 0.0)]
        python_list = SortedList(entries, name="L")
        columnar = ColumnarList(entries, name="L")
        assert len(columnar) == len(python_list)
        for position in range(1, len(python_list) + 1):
            assert columnar.entry_at(position) == python_list.entry_at(position)
            assert columnar.score_at(position) == python_list.score_at(position)
            assert columnar.item_at(position) == python_list.item_at(position)
        for item, _score in entries:
            assert columnar.lookup(item) == python_list.lookup(item)
            assert columnar.position_of(item) == python_list.position_of(item)
            assert item in columnar

    def test_scalar_access_returns_python_types(self):
        columnar = ColumnarList.from_scores([1.5, 0.5])
        entry = columnar.entry_at(1)
        assert type(entry.item) is int and type(entry.score) is float
        score, position = columnar.lookup(1)
        assert type(score) is float and type(position) is int

    def test_rejects_duplicate_items(self):
        with pytest.raises(DuplicateItemError):
            ColumnarList([(1, 0.5), (1, 0.7)])

    def test_position_bounds(self):
        columnar = ColumnarList.from_scores([1.0, 2.0])
        with pytest.raises(InvalidPositionError):
            columnar.entry_at(0)
        with pytest.raises(InvalidPositionError):
            columnar.entry_at(3)

    def test_unknown_items(self):
        columnar = ColumnarList.from_scores([1.0, 2.0])
        with pytest.raises(UnknownItemError):
            columnar.lookup(7)
        assert 7 not in columnar
        sparse = ColumnarList([(10, 1.0), (20, 2.0)])
        with pytest.raises(UnknownItemError):
            sparse.position_of(15)

    def test_numpy_integer_ids_work_on_dense_and_sparse_lists(self):
        dense = ColumnarList.from_scores([1.0, 3.0, 2.0])
        sparse = ColumnarList([(10, 1.0), (20, 2.0)])
        for columnar in (dense, sparse):
            for item in columnar.uids_array:  # yields np.int64
                assert columnar.lookup(item) == columnar.lookup(int(item))
                assert item in columnar

    @pytest.mark.parametrize("layout", ["dense", "sparse", "sorted_list"])
    def test_ids_compare_by_value_on_every_layout(self, layout):
        """A value equal to an id names it, as on SortedList's dict
        index; the answer must not change when a removal leaves a gap
        in the ids (dense -> sparse)."""
        ids = [0, 1, 2, 5] if layout == "sparse" else [0, 1, 2, 3]
        entries = [(item, 0.5 + item) for item in ids]
        if layout == "sorted_list":
            source = SortedList(entries)
        else:
            source = ColumnarList(entries)
            assert source.dense_ids == (layout == "dense")
        n = len(ids)
        expected = source.position_of(1)
        for equal in (1, np.int64(1), 1.0, True):
            assert source.position_of(equal) == expected
            assert source.lookup(equal) == source.lookup(1)
            assert equal in source
        for absent in (1.5, -1, n):
            assert absent not in source
            with pytest.raises(UnknownItemError):
                source.position_of(absent)

    @pytest.mark.parametrize("ids", [[0, 1, 2, 3], [0, 1, 2, 5]])
    def test_has_item_agrees_with_item_ids(self, ids):
        database = ColumnarDatabase(
            [ColumnarList([(item, 0.1 * item) for item in ids])] * 2
        )
        probes = [
            1, np.int64(1), 1.0, True, False, 1.5, -1, 3, 4, 5, "1", None,
        ]
        for probe in probes:
            assert database.has_item(probe) == (probe in database.item_ids)

    def test_sparse_ids(self):
        sparse = ColumnarList([(100, 1.0), (7, 3.0), (55, 2.0)])
        assert not sparse.dense_ids
        assert sparse.items() == (7, 55, 100)
        assert sparse.position_of(7) == 1
        assert sparse.lookup(100) == (1.0, 3)

    def test_lookup_many_matches_scalar_lookups(self):
        columnar = ColumnarList([(3, 1.0), (1, 4.0), (4, 1.0), (5, 9.0)])
        items = np.array([5, 3, 1])
        scores, positions = columnar.lookup_many(items)
        for item, score, position in zip(items, scores, positions):
            assert (float(score), int(position)) == columnar.lookup(int(item))

    def test_lookup_many_rejects_unknown(self):
        columnar = ColumnarList.from_scores([1.0, 2.0, 3.0])
        with pytest.raises(UnknownItemError):
            columnar.lookup_many(np.array([0, 5]))

    def test_block_prefetch(self):
        columnar = ColumnarList.from_scores([float(i) for i in range(10)])
        positions, items, scores = columnar.block(3, 4)
        assert positions.tolist() == [3, 4, 5, 6]
        for position, item, score in zip(positions, items, scores):
            entry = columnar.entry_at(int(position))
            assert (entry.item, entry.score) == (int(item), float(score))
        # clipped at the end of the list
        positions, _items, _scores = columnar.block(9, 10)
        assert positions.tolist() == [9, 10]
        with pytest.raises(InvalidPositionError):
            columnar.block(0, 1)

    def test_array_views_are_read_only(self):
        columnar = ColumnarList.from_scores([1.0, 2.0])
        with pytest.raises(ValueError):
            columnar.scores_array[0] = 99.0
        with pytest.raises(ValueError):
            columnar.items_array[0] = 99


class TestColumnarDatabase:
    def test_satisfies_the_database_protocol(self, pair):
        _python, columnar = pair
        assert isinstance(columnar, DatabaseLike)

    def test_mirrors_database_introspection(self, pair):
        python, columnar = pair
        assert (columnar.m, columnar.n) == (python.m, python.n)
        assert columnar.item_ids == python.item_ids
        assert list(columnar.iter_items()) == list(python.iter_items())
        assert len(columnar) == len(python)
        assert columnar[0].items() == python[0].items()

    def test_rejects_mismatched_item_sets(self):
        with pytest.raises(InconsistentListsError):
            ColumnarDatabase(
                [
                    ColumnarList([(0, 1.0), (1, 2.0)]),
                    ColumnarList([(0, 1.0), (2, 2.0)]),
                ]
            )
        with pytest.raises(InconsistentListsError):
            ColumnarDatabase([])

    def test_score_matrix_is_by_ascending_item_id(self, pair):
        python, columnar = pair
        matrix = columnar.score_matrix()
        for row, item in enumerate(sorted(columnar.item_ids)):
            assert tuple(matrix[:, row]) == python.local_scores(item)

    def test_position_matrix_matches_positions(self, pair):
        python, columnar = pair
        matrix = columnar.position_matrix()
        for row, item in enumerate(sorted(columnar.item_ids)):
            assert tuple(matrix[:, row] + 1) == python.positions(item)

    def test_memo_fill_uses_the_exact_callable(self, pair):
        _python, columnar = pair
        calls = []

        class Probe:
            name = "probe"

            def __call__(self, scores):
                calls.append(scores)
                return sum(scores)

        memo = columnar.totals_memo(Probe())
        # nothing is scored up front
        assert calls == [] and all(np.isnan(memo.totals))
        row = 2
        item = int(columnar.uids_array[row])
        assert memo.fill(row) == sum(columnar.local_scores(item))
        # one call, the local scores as a list in list order
        assert calls == [list(columnar.local_scores(item))]
        assert type(calls[0]) is list
        memo.fill_rows(np.arange(columnar.n))
        expected = [
            list(columnar.local_scores(int(uid))) for uid in columnar.uids_array
        ]
        assert calls[1:] == expected
        assert all(type(scores) is list for scores in calls)
        assert list(memo.totals) == [sum(scores) for scores in expected]

    def test_memo_is_shared_per_scoring_semantics_and_bounded(self, pair):
        from repro.columnar import scoring_capacity
        from repro.scoring import WeightedSumScoring

        _python, columnar = pair
        first = columnar.totals_memo(WeightedSumScoring([1.0, 2.0, 0.5]))
        assert columnar.totals_memo(WeightedSumScoring([1.0, 2.0, 0.5])) is first
        assert columnar.totals_memo(SUM) is not first
        capacity = scoring_capacity(columnar.n)
        for weight in range(1, capacity + 2):
            columnar.totals_memo(WeightedSumScoring([float(weight), 1.0, 1.0]))
        assert len(columnar._memos) == capacity

    def test_labels_round_trip(self):
        rows = [[1.0, 2.0]]
        columnar = ColumnarDatabase.from_score_rows(rows, labels={0: "zero"})
        assert columnar.label(0) == "zero"
        assert columnar.label(1) == "item 1"
        assert columnar.to_database().label(0) == "zero"
        # Converting a labelled Database keeps its explicit labels only.
        converted = ColumnarDatabase.from_database(
            Database.from_score_rows(rows, labels={0: "zero"})
        )
        assert converted.label(0) == "zero"
        assert converted.label(1) == "item 1"
        assert converted._labels == {0: "zero"}

    def test_from_ranked_lists(self):
        columnar = ColumnarDatabase.from_ranked_lists(
            [[(1, 9.0), (0, 1.0)], [(0, 5.0), (1, 4.0)]]
        )
        assert columnar.positions(1) == (1, 2)


class TestMeteredBatchAccess:
    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_lookup_many_counts_every_item(self, pair, backend):
        database = pair[0] if backend == "python" else pair[1]
        accessor = ListAccessor(database.lists[0])
        scores, positions = accessor.lookup_many([0, 3, 5])
        assert accessor.tally.random == 3
        for item, score, position in zip([0, 3, 5], scores, positions):
            assert (float(score), int(position)) == database.lists[0].lookup(item)

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_sorted_block_counts_and_advances(self, pair, backend):
        database = pair[0] if backend == "python" else pair[1]
        accessor = ListAccessor(database.lists[0])
        first = accessor.sorted_next()
        entries = accessor.sorted_block(3)
        assert [e.position for e in entries] == [2, 3, 4]
        assert accessor.tally.sorted == 4
        assert accessor.last_sorted_position == 4
        # a block past the end is truncated, then empty
        tail = accessor.sorted_block(10)
        assert [e.position for e in tail] == [5, 6]
        assert accessor.sorted_block(5) == []
        assert accessor.exhausted
        # entries equal the scalar path's
        scalar = ListAccessor(database.lists[0])
        expected = [scalar.sorted_next() for _ in range(6)]
        assert [first] + entries + tail == expected
        with pytest.raises(ValueError):
            accessor.sorted_block(-1)

    def test_database_accessor_wraps_columnar(self, pair):
        _python, columnar = pair
        accessor = DatabaseAccessor(columnar)
        assert accessor.m == columnar.m
        assert accessor.n == columnar.n
        entry = accessor[0].sorted_next()
        assert entry.position == 1
        assert accessor.total_tally().sorted == 1


class TestKernelInputValidation:
    def test_kernels_validate_k_like_run(self, pair):
        from repro.columnar import fast_bpa, fast_bpa2, fast_ta
        from repro.errors import InvalidQueryError

        _python, columnar = pair
        for kernel in (fast_ta, fast_bpa, fast_bpa2):
            with pytest.raises(InvalidQueryError):
                kernel(columnar, 0, SUM)
            with pytest.raises(InvalidQueryError):
                kernel(columnar, columnar.n + 1, SUM)
