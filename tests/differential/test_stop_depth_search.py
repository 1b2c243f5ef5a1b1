"""Differential suite for TA and BPA as one stop-depth search.

``fast_ta`` and ``fast_bpa`` no longer replay access by access: they
search the snapshot's first-seen prefix for the stop depth ``p*`` and
derive tallies, rounds, the answer and ``extras`` from it
(:func:`repro.columnar.walk.stop_depth_search`).  Every case here holds
them to the reference algorithms (``get_algorithm(name).run`` on the
pure-Python backend): full :class:`TopKResult` equality — items with
their tie members, tallies, rounds, stop position — and equal ``extras``
(threshold, lambda, best positions).

The cases cover:

* a seeded sample of uniform, gaussian, correlated and zipf databases
  with n in the thousands, m in {2, 3, 4, 5} and k in 1..100, under SUM,
  fresh :class:`WeightedSumScoring` s, MIN, AVERAGE and a
  :class:`WeightedSumScoring` subclass, which must take the per-depth
  path (one scalar bound call per depth);
* the two tie matrices that make classic and block variants disagree,
  at every k;
* queries on a prefix the planner's walk and another scoring's query
  already extended;
* n = 1, and k = n;
* a scoring that returns NaN: kernel and reference raise the same error
  type, or agree.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.base import get_algorithm
from repro.columnar import ColumnarDatabase, fast_bpa, fast_ta
from repro.datagen import make_generator
from repro.errors import ScoringError
from repro.lists.database import Database
from repro.scoring import AVERAGE, MIN, SUM, WeightedSumScoring
from repro.service.planner import ListStatistics

KERNELS = {"ta": fast_ta, "bpa": fast_bpa}
FAMILIES = ("uniform", "gaussian", "correlated", "zipf")

#: Tie matrices (lists as rows) on which classic and block variants
#: return different tie members: an unseen item ties the k-th score at
#: the stop threshold.
TIE_MATRICES = (
    [[0, 5, 0, 0, 0, 0, 0, 5, 6, 0], [0, 4, 0, 0, 0, 0, 3, 3, 2, 5]],
    [[0, 4, 0, 0, 0, 0, 3, 3, 2, 0], [0, 5, 0, 0, 0, 0, 0, 5, 6, 0]],
)


class CountingWeightedSum(WeightedSumScoring):
    """A subclass: same floats, but not type-exactly a stock sum."""

    def __init__(self, weights) -> None:
        super().__init__(weights)
        self.calls = 0

    def __call__(self, scores):
        self.calls += 1
        return super().__call__(scores)


def scoring_for(kind: str, m: int, rng: np.random.Generator):
    if kind == "sum":
        return SUM
    if kind == "wsum":
        return WeightedSumScoring((1.0 - rng.random(m)).tolist())
    if kind == "min":
        return MIN
    if kind == "average":
        return AVERAGE
    return CountingWeightedSum((1.0 - rng.random(m)).tolist())


def assert_matches_reference(columnar, plain, name: str, k: int, scoring) -> None:
    ours = KERNELS[name](columnar, k, scoring)
    theirs = get_algorithm(name).run(plain, k, scoring)
    assert ours == theirs
    assert ours.extras == theirs.extras


def sampled_grid():
    """A fixed-seed sample of the (family, n, m, scoring, k) grid."""
    rng = np.random.default_rng(20261017)
    kinds = ("sum", "wsum", "min", "average", "subclass")
    cases = []
    for family in FAMILIES:
        for m in (2, 3, 4, 5):
            n = int(rng.integers(1000, 4001))
            seed = int(rng.integers(2**16))
            queries = [
                (str(kind), int(rng.integers(1, 101)))
                for kind in rng.choice(kinds, 3, replace=False)
            ]
            cases.append(pytest.param(family, n, m, seed, queries, id=f"{family}-m{m}"))
    return cases


class TestSeededGrid:
    @pytest.mark.parametrize("family,n,m,seed,queries", sampled_grid())
    def test_kernels_equal_references(self, family, n, m, seed, queries):
        plain = make_generator(family).generate(n, m, seed=seed)
        columnar = ColumnarDatabase.from_database(plain)
        rng = np.random.default_rng(seed)
        for kind, k in queries:
            scoring = scoring_for(kind, m, rng)
            for name in KERNELS:
                assert_matches_reference(columnar, plain, name, k, scoring)


class TestPerDepthPath:
    """A stock-sum subclass may not be monotone in floating point, so it
    is checked depth by depth: one scalar bound call per depth, plus one
    call per row scored (the memo is cold, so every row seen by p*)."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_subclass_pays_one_bound_call_per_depth(self, name):
        plain = make_generator("uniform").generate(1500, 3, seed=8)
        columnar = ColumnarDatabase.from_database(plain)
        scoring = CountingWeightedSum([0.7, 0.2, 0.9])
        result = KERNELS[name](columnar, 10, scoring)
        depth = result.stop_position
        seen = {
            row
            for lst in columnar.lists
            for row in lst.rows_of(lst.items_array[:depth]).tolist()
        }
        assert scoring.calls == depth + len(seen)
        theirs = get_algorithm(name).run(plain, 10, WeightedSumScoring([0.7, 0.2, 0.9]))
        assert result == theirs
        assert result.extras == theirs.extras


class TestTieMatrices:
    @pytest.mark.parametrize("matrix", TIE_MATRICES, ids=("first", "second"))
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_tie_members_match_the_reference_at_every_k(self, matrix, name):
        plain = Database.from_score_rows([[float(s) for s in row] for row in matrix])
        columnar = ColumnarDatabase.from_database(plain)
        for scoring in (SUM, MIN, WeightedSumScoring([1.0, 2.0])):
            for k in range(1, plain.n + 1):
                assert_matches_reference(columnar, plain, name, k, scoring)


class TestSharedPrefix:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_prefix_extended_by_planner_and_other_scorings(self, family):
        plain = make_generator(family).generate(2500, 4, seed=31)
        columnar = ColumnarDatabase.from_database(plain)
        # The planner walks one scoring deep; another scoring's BPA query
        # extends the best positions; then the queries under test run.
        walk = ListStatistics(columnar, WeightedSumScoring([0.1, 0.2, 0.3, 0.4]))
        walk.kth_total(400)
        fast_bpa(columnar, 50, MIN)
        assert walk._depth >= 400
        for scoring in (SUM, WeightedSumScoring([2.0, 1.0, 0.5, 0.25]), AVERAGE):
            for k in (1, 7, 64):
                for name in KERNELS:
                    assert_matches_reference(columnar, plain, name, k, scoring)

    def test_planner_walk_after_kernels_equals_a_cold_walk(self):
        plain = make_generator("zipf").generate(1200, 3, seed=5)
        warm = ColumnarDatabase.from_database(plain)
        scoring = WeightedSumScoring([0.5, 1.5, 1.0])
        fast_ta(warm, 90, SUM)
        fast_bpa(warm, 3, scoring)
        cold = ListStatistics(ColumnarDatabase.from_database(plain), scoring)
        walked = ListStatistics(warm, scoring)
        for k in (1, 33, 500, 1200):
            assert walked.kth_total(k) == cold.kth_total(k)
            assert walked.ta_stop_estimate(k) == cold.ta_stop_estimate(k)


class TestEdges:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_single_item(self, name):
        plain = Database.from_score_rows([[0.3], [0.9], [0.1]])
        for scoring in (SUM, MIN, WeightedSumScoring([1.0, 0.0, 2.0])):
            assert_matches_reference(
                ColumnarDatabase.from_database(plain), plain, name, 1, scoring
            )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_k_equals_n(self, family, name):
        plain = make_generator(family).generate(150, 3, seed=2)
        columnar = ColumnarDatabase.from_database(plain)
        for scoring in (SUM, AVERAGE):
            assert_matches_reference(columnar, plain, name, plain.n, scoring)


class TestNaNScores:
    """A NaN overall score has no rank: kernel and reference raise the
    same error type wherever the reference reaches a NaN row."""

    @staticmethod
    def nan_below(scores):
        return math.nan if scores[0] < 0.3 else math.fsum(scores)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_raises_where_the_reference_does(self, name):
        outcomes = {"raised": 0, "answered": 0}
        for seed in range(30):
            plain = make_generator("uniform").generate(60, 3, seed=seed)
            columnar = ColumnarDatabase.from_database(plain)
            for k in (1, 3, 10):
                try:
                    theirs = get_algorithm(name).run(plain, k, self.nan_below)
                except ScoringError:
                    with pytest.raises(ScoringError, match="NaN"):
                        KERNELS[name](columnar, k, self.nan_below)
                    outcomes["raised"] += 1
                    continue
                ours = KERNELS[name](columnar, k, self.nan_below)
                assert ours == theirs
                assert ours.extras == theirs.extras
                outcomes["answered"] += 1
        assert outcomes["raised"] and outcomes["answered"]

    def test_the_planner_walk_raises_for_a_nan_total(self):
        plain = make_generator("uniform").generate(200, 3, seed=4)
        statistics = ListStatistics(ColumnarDatabase.from_database(plain), self.nan_below)
        with pytest.raises(ScoringError, match="item"):
            statistics.kth_total(200)


class TestSearchReachesN:
    """A scoring that falls as its inputs rise is not monotone, so the
    stop test can fail at every depth.  With an item ranked last in every
    list, k = n rows are seen only at depth n, where that item's total is
    the bound and beats the worst total: the search reads every list to
    the end, and the kernel still returns what the reference returns."""

    @staticmethod
    def falling(scores):
        return -math.fsum(scores)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_per_depth_search_runs_to_n(self, name):
        matrix = np.random.default_rng(12).random((3, 40)) + 0.01
        matrix[:, 0] = 0.0  # item 0 is last in every list
        plain = Database.from_score_rows(matrix.tolist())
        columnar = ColumnarDatabase.from_database(plain)
        for k in (1, 5, plain.n):
            assert_matches_reference(columnar, plain, name, k, self.falling)
        assert KERNELS[name](columnar, plain.n, self.falling).stop_position == plain.n


class TestConcurrentExtension:
    """``submit_async`` workers and thread-pool shards share snapshots,
    so threads race to extend one prefix: every read must equal a cold,
    single-threaded prefix's, and every row be collected exactly once."""

    def test_racing_readers_agree_with_a_cold_prefix(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        plain = make_generator("uniform").generate(3000, 4, seed=9)
        cold = ColumnarDatabase.from_database(plain).first_seen_prefix()
        shared = ColumnarDatabase.from_database(plain).first_seen_prefix()
        depths = np.random.default_rng(4).integers(1, plain.n + 1, 64).tolist()

        def read(prefix, depth):
            return (
                prefix.through(depth),
                prefix.best_positions(depth),
                prefix.threshold_scores(depth)[depth - 1].tolist(),
                prefix.lambda_scores(depth)[depth - 1].tolist(),
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                raced = list(pool.map(lambda d: read(shared, d), depths, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for depth, got in zip(depths, raced):
            assert got == read(cold, depth)
        count = shared.through(plain.n)
        assert sorted(shared.rows[:count].tolist()) == list(range(plain.n))
