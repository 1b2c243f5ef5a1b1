"""NaN is not a score: every list type refuses one, naming list and item.

NaN compares false both ways, so a list holding one has no canonical
order: Python's ``sorted`` leaves it wherever it meets it, NumPy's
``lexsort`` puts it last, and a treap keyed on it loses its ordering.
``±inf`` stays legal and ranks the same in every list type.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.columnar import ColumnarDatabase, ColumnarList
from repro.dynamic import DynamicDatabase, DynamicSortedList
from repro.errors import DatabaseError
from repro.lists import Database, SortedList

NAN = math.nan


class TestStaticLists:
    def test_sorted_list_rejects_nan(self):
        # [nan, 0.1] is where the two static layouts used to disagree.
        with pytest.raises(DatabaseError, match="item 0 in list L1 has a NaN"):
            SortedList.from_scores([NAN, 0.1], name="L1")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ColumnarList([(0, 0.3), (7, NAN)], name="L1"),
            lambda: ColumnarList.from_scores([0.3] * 7 + [NAN], name="L1"),
            lambda: ColumnarList.from_arrays(
                np.array([0, 7]), np.array([0.3, NAN]), name="L1"
            ),
        ],
        ids=["pairs", "from_scores", "from_arrays"],
    )
    def test_columnar_list_rejects_nan(self, build):
        with pytest.raises(DatabaseError, match="item 7 in list L1 has a NaN"):
            build()

    def test_databases_reject_nan_rows(self):
        rows = [[0.5, 0.2], [0.1, NAN]]
        for build in (Database.from_score_rows, ColumnarDatabase.from_score_rows):
            with pytest.raises(DatabaseError, match="item 1 in list .* NaN"):
                build(rows)

    def test_infinities_stay_legal_and_rank_alike(self):
        scores = [-math.inf, 0.1, math.inf, 0.1]
        plain = SortedList.from_scores(scores)
        columnar = ColumnarList.from_scores(scores)
        assert plain.items() == tuple(columnar.items()) == (2, 1, 3, 0)
        assert plain.scores() == tuple(columnar.scores())


class TestDynamicLists:
    def test_insert_rejects_nan(self):
        lst = DynamicSortedList([(0, 1.0)], name="D")
        with pytest.raises(DatabaseError, match="item 5 in list D has a NaN"):
            lst.insert(5, NAN)
        assert lst.items() == (0,) and 5 not in lst

    def test_update_and_delta_reject_nan(self):
        lst = DynamicSortedList([(0, 1.0), (1, math.inf)], name="D")
        with pytest.raises(DatabaseError, match="item 0 in list D"):
            lst.update(0, NAN)
        # inf + -inf is NaN too.
        with pytest.raises(DatabaseError, match="item 1 in list D"):
            lst.apply_delta(1, -math.inf)
        assert lst.items() == (1, 0)
        assert lst.scores() == (math.inf, 1.0)

    def test_database_writes_stay_all_or_nothing(self):
        source = DynamicDatabase.from_score_rows([[0.9, 0.1], [0.2, 0.8]])
        events = []
        source.subscribe(events.append)
        with pytest.raises(DatabaseError):
            source.insert_item(2, [0.5, NAN])
        with pytest.raises(DatabaseError):
            source.update_score(1, 0, NAN)
        assert 2 not in source.item_ids
        assert source.local_scores(0) == (0.9, 0.2)
        assert events == []
