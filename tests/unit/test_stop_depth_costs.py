"""The per-query fixed cost of the TA/BPA stop-depth search, as counts.

Every service benchmark workload is uniform, so none shows shallow
stops; these tests pin what one kernel call costs on a shallow and a
deep database, by counting calls, never by timing them.  The bounds
follow from the design (:mod:`repro.columnar.walk`):

* **Scalar bound calls, stock sums.**  The search starts at ``p0``, the
  first depth with ``k`` seen rows, and gallops: probe ``j`` is at
  ``p0 + 2**j - 1``.  The first probe that stops is probe
  ``J = ceil(log2(p* - p0 + 1))`` (or the last, at ``n``), and bisection
  then halves an interval of width ``2**(J - 1)`` in at most ``J - 1``
  probes.  Each probe makes one scalar call and ``extras`` reuses the
  bound of ``p*``, so a call costs at most ``2 * ceil(log2(p* + 1)) + 1``
  scalar calls, against the ``p*`` of a round-by-round replay.
* **``fill_rows`` calls.**  A probe fills rows only when the rows
  already scored fall short of ``k``, in one ``fill_rows`` call, and the
  answer fills the rows seen by ``p*`` that no probe needed, in one
  more: at most one per probe, plus one.
* **``batch`` calls.**  A stock sum's ``fill_rows`` is one ``batch``
  call, so they are equal.  Calls ``batch`` makes back into ``__call__``
  for rows it cannot certify are counted apart, as fallbacks.
* **Per-depth path.**  A subclass of a stock sum is checked depth by
  depth: ``p*`` scalar bound calls, one scalar call per row it scores,
  and no ``batch`` or ``fill_rows`` call at all.
"""

from __future__ import annotations

import math

import pytest

from repro.columnar import ColumnarDatabase, TotalsMemo, fast_bpa, fast_ta
from repro.datagen import CorrelatedGenerator, UniformGenerator
from repro.scoring import WeightedSumScoring
from repro.service.planner import ListStatistics

KERNELS = {"ta": fast_ta, "bpa": fast_bpa}
WEIGHTS = [[0.9, 0.4, 0.7, 0.2], [0.25, 1.0, 0.5, 0.75], [1.0, 1.0, 1.0, 1.0]]
KS = (1, 4, 16, 32)


class Counts:
    def __init__(self) -> None:
        self.scalar = 0
        self.fallback = 0
        self.batch = 0
        self.fill_rows = 0
        self._in_batch = 0


@pytest.fixture
def counts(monkeypatch):
    """Count scalar calls, batch calls (and their scalar fallbacks) and
    ``fill_rows`` calls, patched on the classes as the service
    benchmark's tracer patches them."""
    tally = Counts()
    scalar, batch, fill_rows = (
        WeightedSumScoring.__call__,
        WeightedSumScoring.batch,
        TotalsMemo.fill_rows,
    )

    def counted_call(self, scores):
        if tally._in_batch:
            tally.fallback += 1
        else:
            tally.scalar += 1
        return scalar(self, scores)

    def counted_batch(self, block):
        tally.batch += 1
        tally._in_batch += 1
        try:
            return batch(self, block)
        finally:
            tally._in_batch -= 1

    def counted_fill_rows(self, rows):
        tally.fill_rows += 1
        return fill_rows(self, rows)

    monkeypatch.setattr(WeightedSumScoring, "__call__", counted_call)
    monkeypatch.setattr(WeightedSumScoring, "batch", counted_batch)
    monkeypatch.setattr(TotalsMemo, "fill_rows", counted_fill_rows)
    return tally


def shallow() -> ColumnarDatabase:
    """Correlated lists (alpha 0.01): TA stops in the tens."""
    return ColumnarDatabase.from_database(
        CorrelatedGenerator(alpha=0.01).generate(2000, 4, seed=11)
    )


def deep() -> ColumnarDatabase:
    """Uniform lists: TA stops in the hundreds."""
    return ColumnarDatabase.from_database(UniformGenerator().generate(2000, 4, seed=11))


def fresh(weights, k: int) -> WeightedSumScoring:
    """A scoring of its own semantics, so its memo starts cold."""
    return WeightedSumScoring([w + 0.01 * k for w in weights])


def probe_bound(depth: int) -> int:
    return 2 * math.ceil(math.log2(depth + 1)) + 1


def run_counted(counts: Counts, kernel, database, k, scoring):
    before = vars(counts).copy()
    result = kernel(database, k, scoring)
    spent = {key: value - before[key] for key, value in vars(counts).items()}
    return result, spent


@pytest.mark.parametrize(
    "make_database,depths",
    [(shallow, (1, 99)), (deep, (100, 999))],
    ids=["correlated", "uniform"],
)
@pytest.mark.parametrize("name", sorted(KERNELS))
class TestStockSums:
    def test_cold_memo(self, counts, make_database, depths, name):
        database = make_database()
        ta_depths = []
        for weights in WEIGHTS:
            for k in KS:
                scoring = fresh(weights, k)
                result, spent = run_counted(counts, KERNELS[name], database, k, scoring)
                depth = result.stop_position
                assert spent["scalar"] <= probe_bound(depth)
                assert spent["fill_rows"] <= probe_bound(depth) + 1
                assert spent["batch"] == spent["fill_rows"]
                if name == "ta":
                    ta_depths.append(depth)
        if ta_depths:
            low, high = depths
            assert low <= sorted(ta_depths)[len(ta_depths) // 2] <= high

    def test_memo_the_planner_filled(self, counts, make_database, depths, name):
        """A service query plans first: when the planner's walk reached
        past ``p*``, the kernel call adds its probes and nothing else."""
        database = make_database()
        for weights in WEIGHTS:
            for k in KS:
                scoring = fresh(weights, k)
                statistics = ListStatistics(database, scoring)
                statistics.kth_total(k)
                result, spent = run_counted(counts, KERNELS[name], database, k, scoring)
                assert result.stop_position <= statistics._depth
                assert spent["scalar"] <= probe_bound(result.stop_position)
                assert spent["batch"] == spent["fill_rows"] == 0


class CountingSubclass(WeightedSumScoring):
    """Not type-exactly a stock sum: the per-depth path."""


@pytest.mark.parametrize("make_database", [shallow, deep], ids=["correlated", "uniform"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_subclass_takes_the_per_depth_path(counts, make_database, name):
    database = make_database()
    for k in KS:
        scoring = CountingSubclass([w + 0.01 * k for w in WEIGHTS[0]])
        result, spent = run_counted(counts, KERNELS[name], database, k, scoring)
        depth = result.stop_position
        seen = {
            row
            for lst in database.lists
            for row in lst.rows_of(lst.items_array[:depth]).tolist()
        }
        assert spent["scalar"] == depth + len(seen)
        assert spent["batch"] == spent["fill_rows"] == spent["fallback"] == 0
