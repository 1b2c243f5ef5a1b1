"""Adversarial suite for the approximate totals of the stock sums.

For a scoring that is exactly ``SumScoring`` or ``WeightedSumScoring``
the snapshot's :class:`repro.columnar.TotalsMemo` keeps approximate
totals along the first-seen prefix (one NumPy sum of the same products)
and one margin ``mu`` per memo
(:func:`repro.scoring.batch.approximation_margin`).  Every decision
reads ``approx +- mu`` and sums exactly only the rows inside that band.
The cases here check:

* the margin's claim, ``|approx - fsum| <= mu / 2`` on every row (half
  of ``mu`` is the room left for rounding the comparisons), for the
  five datagen families, m in {1, 2, 3, 4, 7}, SUM and three weighted
  sums, and for subnormal scores, magnitudes near ``2**1000``, mixed
  signs, signed zeros and cancelling terms;
* decisions inside the band: databases whose totals are equal under
  ``fsum`` but not in NumPy's order (permuted terms), placed on the
  k-th total and on the stop bounds.  ``kth_total`` and
  ``ta_stop_estimate`` equal a full scan, every kernel equals its
  reference (items, tally, rounds, ``extras``), and the exact fills
  counted show that the in-band branches ran;
* a ±inf or NaN score, or magnitudes where ``math.fsum`` may overflow,
  give an infinite margin: no approximation is computed, and the TA and
  BPA kernels raise or answer exactly as the reference does; so do
  weights that do not match the lists, and BPA2's replay, whose lambda
  may overflow in a round before k items are held;
* threads racing to extend one memo's approximations read what a cold
  memo reads.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
import pytest

from repro.algorithms.base import get_algorithm
from repro.columnar import ColumnarDatabase, TotalsMemo, get_kernel
from repro.datagen import make_generator
from repro.errors import DatabaseError
from repro.lists.database import Database
from repro.scoring import SUM, WeightedSumScoring
from repro.service.planner import ListStatistics

FAMILIES = ("uniform", "gaussian", "correlated", "zipf", "copula")
ARITIES = (1, 2, 3, 4, 7)
KERNELS = ("ta", "bpa", "bpa2")
TINY = 5e-324
EPS = 2.0**-53
HUGE = 0.9 * 2.0**1023


def scorings_for(m: int, rng: np.random.Generator) -> list:
    """SUM and three weighted sums: random, powers of two, wide range
    (with a zero weight when there is room for one)."""
    wide = [2.0 ** float(e) for e in rng.integers(-30, 11, m)]
    if m > 1:
        wide[int(rng.integers(m))] = 0.0
    return [
        SUM,
        WeightedSumScoring(list(rng.random(m) + 0.01)),
        WeightedSumScoring([2.0 ** float(e) for e in rng.integers(-3, 4, m)]),
        WeightedSumScoring(wide),
    ]


def approximation_errors(columnar: ColumnarDatabase, scoring) -> tuple[float, float]:
    """``(largest |approx - scoring(column)|, mu)`` over every row."""
    memo = columnar.totals_memo(scoring)
    prefix = columnar.first_seen_prefix()
    margin = memo.margin(prefix)
    assert math.isfinite(margin)
    count = prefix.through(columnar.n)
    approx = memo.approximations(prefix, count)
    columns = columnar.score_matrix()
    worst = 0.0
    for index, row in enumerate(prefix.rows[:count].tolist()):
        exact = scoring(columns[:, row].tolist())
        worst = max(worst, abs(float(approx[index]) - exact))
    return worst, margin


def crafted(kind: str, m: int, rng: np.random.Generator, n: int = 120) -> np.ndarray:
    """An ``(m, n)`` score matrix of one adversarial kind."""
    if kind == "subnormal":
        # multiples of the smallest subnormal, a few near the normal range
        matrix = rng.integers(0, 2**20, (m, n)) * TINY
        matrix[:, : n // 4] += 2.0**-1022 * rng.random((m, n // 4))
        return matrix
    if kind == "huge":
        return rng.random((m, n)) * 2.0**1000
    if kind == "signed":
        return (rng.random((m, n)) - 0.5) * np.exp2(rng.integers(-60, 60, (m, n)))
    if kind == "zeros":
        values = np.array([0.0, -0.0, 1.0, -1.0, 2.0**-60, -(2.0**-60), 3.0])
        return rng.choice(values, (m, n))
    # cancelling: a large term and its negation, plus a small one
    big = np.exp2(rng.integers(0, 80, n)) * (1.0 + rng.random(n))
    matrix = np.empty((m, n))
    for j in range(n):
        terms = [big[j], -big[j]] + list(rng.random(m) * 2.0**-20)
        matrix[:, j] = rng.permutation(terms[:m])
    return matrix


class TestMargin:
    @pytest.mark.parametrize("m", ARITIES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_datagen_families(self, family, m):
        rng = np.random.default_rng(m * 101 + FAMILIES.index(family))
        plain = make_generator(family).generate(300, m, seed=int(rng.integers(2**16)))
        columnar = ColumnarDatabase.from_database(plain)
        for scoring in scorings_for(m, rng):
            worst, margin = approximation_errors(columnar, scoring)
            assert worst <= margin / 2

    @pytest.mark.parametrize("m", ARITIES)
    @pytest.mark.parametrize("kind", ["subnormal", "huge", "signed", "zeros", "cancelling"])
    def test_adversarial_magnitudes(self, kind, m):
        rng = np.random.default_rng(m * 7 + len(kind))
        columnar = ColumnarDatabase.from_score_rows(crafted(kind, m, rng).tolist())
        for scoring in scorings_for(m, rng):
            worst, margin = approximation_errors(columnar, scoring)
            assert worst <= margin / 2

    def test_orders_that_round_apart_stay_inside_the_margin(self):
        # 1 + 2**-53 + 2**-53: fsum is 1 + 2**-52, NumPy's running sum
        # 1.0 or 1 + 2**-52 depending on where the 1 stands
        rows = [list(p) for p in set(permutations([1.0, EPS, EPS, 0.0]))]
        columnar = ColumnarDatabase.from_score_rows(np.array(rows).T.tolist())
        memo = columnar.totals_memo(SUM)
        prefix = columnar.first_seen_prefix()
        approx = memo.approximations(prefix, prefix.through(columnar.n))
        assert set(approx.tolist()) == {1.0, 1.0 + 2 * EPS}
        worst, margin = approximation_errors(columnar, SUM)
        assert worst == 2 * EPS <= margin / 2


def band_database(rng: np.random.Generator, m: int) -> Database:
    """Tie-heavy lists whose totals and thresholds round apart.

    Most rows put ``1.0`` in one list and terms of order ``2**-53`` in
    the others, so their ``fsum`` totals tie or differ by an ulp while
    NumPy's running sums, which depend on where the ``1.0`` stands,
    differ in another way.  List 0 holds more than 32 of the ``1.0``
    terms and every other list fewer, so the threshold at the walk's
    first step end (depth 32) is ``1.0`` plus small terms: the k-th
    total and the stop bounds both fall inside the band.
    """
    small = [EPS, EPS / 2, 2 * EPS]

    def row(lead: int, value: float = 1.0) -> list[float]:
        terms = [small[int(i)] for i in rng.integers(0, 3, m)]
        terms[lead] = value
        return terms

    columns = [row(0) for _ in range(int(rng.integers(33, 60)))]
    for lead in range(1, m):
        columns += [row(lead) for _ in range(int(rng.integers(0, 12)))]
    columns += [row(0, 1.0 + float(rng.random())) for _ in range(int(rng.integers(0, 6)))]
    columns += [row(0, 0.5) for _ in range(int(rng.integers(5, 20)))]
    matrix = np.array(columns)[rng.permutation(len(columns))].T
    return Database.from_score_rows(matrix.tolist())


def full_scan(plain: Database, scoring) -> tuple[list[float], list[float]]:
    """Every total, descending, and the threshold at every depth."""
    columnar = ColumnarDatabase.from_database(plain)
    totals = sorted(
        (scoring(column) for column in columnar.score_matrix().T.tolist()), reverse=True
    )
    thresholds = [
        scoring([float(lst.scores_array[depth]) for lst in columnar.lists])
        for depth in range(columnar.n)
    ]
    return totals, thresholds


def scan_stop_estimate(totals, thresholds, k: int) -> int:
    """The first depth whose threshold is at most the k-th total."""
    for depth, threshold in enumerate(thresholds, start=1):
        if threshold <= totals[k - 1]:
            return depth
    return len(thresholds)


class TestInBandDecisions:
    def test_band_databases_match_full_scans_and_references(self, monkeypatch):
        fills = []
        fill_rows = TotalsMemo.fill_rows

        def counted(self, rows):
            fills.append(len(rows))
            return fill_rows(self, rows)

        monkeypatch.setattr(TotalsMemo, "fill_rows", counted)
        rng = np.random.default_rng(20261018)
        kernel_bands = walk_bands = rounded_apart = 0
        for case in range(12):
            plain = band_database(rng, m=int(rng.choice([3, 4])))
            m, n = plain.m, plain.n
            weights = [2.0 ** float(e) for e in rng.integers(-2, 3, m)]
            for scoring in (SUM, WeightedSumScoring(weights)):
                totals, thresholds = full_scan(plain, scoring)
                columnar = ColumnarDatabase.from_database(plain)
                memo = columnar.totals_memo(scoring)
                prefix = columnar.first_seen_prefix()
                margin = memo.margin(prefix)
                assert math.isfinite(margin)
                stats = ListStatistics(columnar, scoring)
                for k in rng.permutation(np.arange(1, n + 1)).tolist():
                    assert stats.kth_total(k) == totals[k - 1]
                    assert stats.ta_stop_estimate(k) == scan_stop_estimate(
                        totals, thresholds, k
                    )
                    depth = stats._depth
                    if depth < n:
                        seen = prefix.seen_by(depth)
                        kth = np.sort(memo.approximations(prefix, seen))[-k]
                        threshold = thresholds[depth - 1]
                        walk_bands += bool(abs(kth - threshold) <= margin)
                count = prefix.through(n)
                approx = memo.approximations(prefix, count)
                exact = np.frombuffer(memo.totals)[prefix.rows[:count]]
                filled = ~np.isnan(exact)
                rounded_apart += int(np.count_nonzero(approx[filled] != exact[filled]))
                for name in KERNELS:
                    for k in range(1, n + 1):
                        theirs = get_algorithm(name).run(plain, k, scoring)
                        cold = ColumnarDatabase.from_database(plain)
                        del fills[:]
                        ours = get_kernel(name)(cold, k, scoring)
                        assert ours == theirs and ours.extras == theirs.extras
                        if name != "bpa2":
                            # the answer is one batch; any other is a probe's band
                            kernel_bands += len(fills) > 1
                            warm = get_kernel(name)(columnar, k, scoring)
                            assert warm == theirs and warm.extras == theirs.extras
        assert rounded_apart  # the approximations and totals differ on some rows
        assert walk_bands  # the walk certified inside the band
        assert kernel_bands  # a search probe summed its band


def non_finite_matrix(rng: np.random.Generator, value: float, m: int = 3) -> list:
    matrix = rng.random((m, 40))
    for _ in range(int(rng.integers(1, 4))):
        matrix[int(rng.integers(m)), int(rng.integers(40))] = value
    return matrix.tolist()


def outcome(call):
    """``call()``'s result, or its exception type."""
    try:
        return call()
    except Exception as error:  # the type is the outcome under test
        return type(error)


class TestNonFiniteScores:
    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, HUGE], ids=["inf", "-inf", "nan", "huge"]
    )
    def test_exact_path_answers_or_raises_as_the_reference(self, value):
        # Only the stop-depth kernels run here: BPA2's replay takes no margin.
        rng = np.random.default_rng(17)
        if value != value:
            # NaN is not a score: neither list type builds from one, so the
            # two can never rank it differently.
            matrix = non_finite_matrix(rng, value)
            for build in (Database.from_score_rows, ColumnarDatabase.from_score_rows):
                with pytest.raises(DatabaseError, match="NaN local score"):
                    build(matrix)
            return
        raised = answered = 0
        for case in range(12):
            matrix = non_finite_matrix(rng, value)
            if value == HUGE and case % 2:
                matrix = [[value] * len(row) for row in matrix]  # rows that overflow
            reference = ColumnarDatabase.from_score_rows(matrix)
            for scoring in (SUM, WeightedSumScoring([1.0, 0.5, 2.0])):
                columnar = ColumnarDatabase.from_score_rows(matrix)
                memo = columnar.totals_memo(scoring)
                assert memo.margin(columnar.first_seen_prefix()) == math.inf
                for name in ("ta", "bpa"):
                    for k in (1, 4, 20, 40):
                        theirs = outcome(lambda: get_algorithm(name).run(reference, k, scoring))
                        ours = outcome(lambda: get_kernel(name)(columnar, k, scoring))
                        if isinstance(theirs, type):
                            assert ours is theirs
                            raised += 1
                        else:
                            assert ours == theirs and ours.extras == theirs.extras
                            answered += 1
                assert memo._approximated == 0  # the exact path approximates nothing
        assert answered
        if value == HUGE:
            assert raised

    def test_bpa2_computes_lambda_every_round_as_the_reference(self):
        # The reference's stop test computes lambda before it looks at the
        # buffer, so a lambda that overflows raises even while fewer than
        # k items are held.
        scoring = WeightedSumScoring([1.0, 0.5, 2.0])
        raised = answered = 0
        for seed in range(40):
            matrix = non_finite_matrix(np.random.default_rng(seed), HUGE)
            reference = ColumnarDatabase.from_score_rows(matrix)
            columnar = ColumnarDatabase.from_score_rows(matrix)
            for k in (1, 4, 20, 40):
                theirs = outcome(lambda: get_algorithm("bpa2").run(reference, k, scoring))
                ours = outcome(lambda: get_kernel("bpa2")(columnar, k, scoring))
                if isinstance(theirs, type):
                    assert ours is theirs
                    raised += 1
                else:
                    assert ours == theirs and ours.extras == theirs.extras
                    answered += 1
        assert raised and answered

    def test_a_finite_database_next_to_a_non_finite_one_keeps_its_margin(self):
        finite = ColumnarDatabase.from_score_rows([[1.0, 2.0], [3.0, 4.0]])
        infinite = ColumnarDatabase.from_score_rows([[1.0, math.inf], [3.0, 4.0]])
        assert math.isfinite(finite.totals_memo(SUM).margin(finite.first_seen_prefix()))
        assert infinite.totals_memo(SUM).margin(infinite.first_seen_prefix()) == math.inf

    def test_weights_that_do_not_match_the_lists_raise_as_the_reference(self):
        plain = make_generator("uniform").generate(30, 3, seed=1)
        columnar = ColumnarDatabase.from_database(plain)
        scoring = WeightedSumScoring([1.0, 2.0])
        assert columnar.totals_memo(scoring).margin(columnar.first_seen_prefix()) == math.inf
        for name in KERNELS:
            theirs = outcome(lambda: get_algorithm(name).run(plain, 3, scoring))
            assert isinstance(theirs, type)
            assert outcome(lambda: get_kernel(name)(columnar, 3, scoring)) is theirs
        statistics = ListStatistics(columnar, scoring)
        assert outcome(lambda: statistics.kth_total(3)) is theirs


class TestConcurrentApproximations:
    """``submit_async`` workers and thread-pool shards share snapshots, so
    threads race to extend one memo's approximations: every read must
    equal a cold, single-threaded memo's."""

    def test_racing_readers_agree_with_a_cold_memo(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        plain = make_generator("uniform").generate(3000, 4, seed=9)
        scoring = WeightedSumScoring([0.3, 1.0, 0.7, 0.2])
        cold = ColumnarDatabase.from_database(plain)
        shared = ColumnarDatabase.from_database(plain)
        depths = np.random.default_rng(4).integers(1, plain.n + 1, 64).tolist()

        def read(database, depth):
            prefix = database.first_seen_prefix()
            memo = database.totals_memo(scoring)
            assert math.isfinite(memo.margin(prefix))
            return memo.approximations(prefix, prefix.through(depth)).tolist()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                raced = list(pool.map(lambda d: read(shared, d), depths, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for depth, got in zip(depths, raced):
            assert got == read(cold, depth)
