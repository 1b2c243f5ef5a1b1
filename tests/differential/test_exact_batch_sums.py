"""Differential proof that the batch sums are the scalar sums, bit for bit.

``SumScoring.batch`` and ``WeightedSumScoring.batch`` score every column
of an ``(m, r)`` block in one NumPy pass (:mod:`repro.scoring.batch`).
Each column must give what the scalar ``__call__`` gives for that
column's scores as a list — compared with :meth:`float.hex`, so the sign
of a zero counts — or raise the same exception type.  Blocks come from
every datagen family, tie-heavy matrices, exact rounding midpoints and
points a hair off them, subnormals, signed values, signed zeros,
exponents across the whole range, and non-finite and overflowing rows.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnarDatabase
from repro.datagen import make_generator
from repro.errors import ScoringError
from repro.scoring import SUM, SumScoring, WeightedSumScoring
from repro.scoring.batch import certified_sums

FAMILIES = ("uniform", "gaussian", "correlated", "zipf", "copula")
ARITIES = (1, 2, 3, 4, 7)
MAX = 1.7976931348623157e308
TINY = 5e-324


def outcome(call):
    """``call()``'s result as hex strings, or its exception type."""
    try:
        result = call()
    except Exception as error:  # the type is the outcome under test
        return type(error)
    if isinstance(result, float):
        return result.hex()
    return [total.hex() for total in result.tolist()]


def assert_batch_is_scalar(scoring, block) -> None:
    """The batch form equals the scalar call column by column, and a
    block raises what its first raising column raises."""
    block = np.asarray(block, dtype=np.float64)
    expected = [outcome(lambda c=column: scoring(c)) for column in block.T.tolist()]
    failures = [item for item in expected if not isinstance(item, str)]
    whole = outcome(lambda: scoring.batch(block))
    assert whole == (failures[0] if failures else expected)
    if failures:  # the columns after the first failure, one by one
        for want, column in zip(expected, block.T):
            single = outcome(lambda: scoring.batch(column[:, np.newaxis]))
            assert single == ([want] if isinstance(want, str) else want)


def scorings_for(m: int, rng: np.random.Generator) -> list:
    return [
        SUM,
        WeightedSumScoring(list(rng.random(m) + 0.01)),
        WeightedSumScoring([1.0] * m),
        WeightedSumScoring([2.0**e for e in rng.integers(-3, 4, m)]),
    ]


def midpoint_rows(a: float) -> tuple[list[list[float]], list[list[float]]]:
    """Rows whose exact sum is ``a`` plus half an ulp of ``a``, and rows
    off that midpoint by ``2**-120`` relative to ``a``, in every order."""
    half = math.ulp(a) / 2
    hair = math.ldexp(1.0, math.frexp(a)[1] - 121)
    exact = [[a, half], [half, a], [a, half / 2, half / 2], [half / 2, a, half / 2]]
    off = []
    for sign in (1.0, -1.0):
        off.extend(list(p) for p in permutations([a, half, sign * hair]))
        off.extend(list(p) for p in permutations([a, half / 2, half / 2, sign * hair]))
    return exact, off


def as_block(rows: list[list[float]]) -> np.ndarray:
    return np.asarray(rows, dtype=np.float64).T


class TestDatagenFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("m", ARITIES)
    def test_every_family_and_arity(self, family, m):
        plain = make_generator(family).generate(300, m, seed=m)
        block = ColumnarDatabase.from_database(plain).score_matrix()
        for scoring in scorings_for(m, np.random.default_rng(m)):
            assert_batch_is_scalar(scoring, block)

    @pytest.mark.parametrize("m", ARITIES)
    def test_uniform_data_leaves_no_row_uncertified(self, m):
        plain = make_generator("uniform").generate(2000, m, seed=11)
        block = ColumnarDatabase.from_database(plain).score_matrix()
        weights = np.random.default_rng(m).random((m, 1)) + 0.01
        for terms in (block, weights * block):
            _totals, certified = certified_sums(terms)
            assert certified.all()


class TestRoundingMidpoints:
    @pytest.mark.parametrize("m", ARITIES)
    def test_tie_heavy_matrices(self, m):
        rng = np.random.default_rng(m)
        for divisor in (1.0, 3.0, 10.0, 1024.0):
            block = rng.integers(0, 7, (m, 400)) / divisor
            for scoring in scorings_for(m, rng):
                assert_batch_is_scalar(scoring, block)

    def test_exact_midpoints_and_a_hair_off(self):
        rng = np.random.default_rng(5)
        anchors = [1.0, 1.5, 3.0, 2.0**52 - 1, 0.75, 1e-300, 3e300]
        anchors += (rng.random(40) * 2.0 ** rng.integers(-60, 60, 40)).tolist()
        for a in anchors:
            exact, off = midpoint_rows(a)
            for sign in (1.0, -1.0):
                rows = [[sign * value for value in row] for row in exact + off]
                for width in {len(row) for row in rows}:
                    block = as_block([row for row in rows if len(row) == width])
                    assert_batch_is_scalar(SUM, block)
                    assert_batch_is_scalar(WeightedSumScoring([1.0] * width), block)
                    assert_batch_is_scalar(WeightedSumScoring([0.5] * width), block)

    def test_only_the_hair_off_rows_go_to_the_scalar_path(self):
        exact, off = midpoint_rows(1.5)
        for width in (2, 3, 4):
            rows = [row for row in exact + off if len(row) == width]
            _totals, certified = certified_sums(as_block(rows))
            assert certified.tolist() == [row in exact for row in rows]


class TestExtremeValues:
    @pytest.mark.parametrize("m", ARITIES)
    def test_subnormals_signs_zeros_and_spread_exponents(self, m):
        rng = np.random.default_rng(100 + m)
        shape = (m, 3000)
        spread = np.ldexp(rng.random(shape), rng.integers(-1000, 1000, shape))
        subnormal = rng.integers(-(2**20), 2**20, shape) * TINY
        signs = rng.choice([-1.0, 1.0], shape)
        pick = rng.integers(0, 4, shape)
        block = np.select(
            [pick == 0, pick == 1, pick == 2],
            [spread * signs, subnormal, rng.random(shape) * signs],
            default=rng.choice([0.0, -0.0, TINY, -TINY, 2.0**-1022], shape),
        )
        for scoring in scorings_for(m, rng):
            assert_batch_is_scalar(scoring, block)

    def test_signed_zeros(self):
        rows = [[-0.0], [0.0], [-0.0, -0.0], [-0.0, 0.0], [1.0, -1.0], [-0.0, -0.0, -0.0]]
        rows += [[-TINY, TINY, -0.0], [-1.0, 1.0, -0.0, -0.0]]
        for row in rows:
            assert_batch_is_scalar(SUM, as_block([row]))
            assert_batch_is_scalar(WeightedSumScoring([1.0] * len(row)), as_block([row]))

    @pytest.mark.parametrize(
        "row",
        [
            [math.inf, 1.0],
            [-math.inf, -math.inf, 2.0],
            [math.inf, -math.inf],
            [math.nan, 1.0],
            [1.0, math.nan, math.inf],
            [MAX, MAX],
            [MAX, MAX, -MAX],
            [MAX, math.ulp(MAX) / 4, math.ulp(MAX) / 3],
            # exact sum ulp(MAX)/2, but fsum's partial sum overflows
            [MAX, math.ulp(MAX) / 4, math.ulp(MAX) / 4, -MAX],
            [MAX, -math.ulp(MAX) / 4],
            [2.0**1020, 2.0**1020, 2.0**1020, -(2.0**1021)],
            [-MAX, -MAX / 2, 1.0],
        ],
    )
    def test_non_finite_and_overflowing_rows(self, row):
        ones = WeightedSumScoring([1.0] * len(row))
        for scoring in (SUM, ones):
            assert_batch_is_scalar(scoring, as_block([row]))
            assert_batch_is_scalar(scoring, as_block([[0.5] * len(row), row, [1.0] * len(row)]))

    def test_overflowing_products(self):
        block = as_block([[10.0, 10.0], [0.0, 1.0], [0.0, 0.0], [1e-300, 1e-300]])
        for weights in ([1e308, 1e308], [MAX, 0.0], [1e-320, 1e-10]):
            assert_batch_is_scalar(WeightedSumScoring(weights), block)


class TestLengthMismatch:
    def test_raises_the_scalar_scoring_error(self):
        scoring = WeightedSumScoring([1.0, 2.0, 3.0])
        block = np.ones((2, 5))
        with pytest.raises(ScoringError) as scalar:
            scoring(block[:, 0].tolist())
        with pytest.raises(ScoringError) as batch:
            scoring.batch(block)
        assert str(batch.value) == str(scalar.value)


widths = st.integers(1, 7)


@st.composite
def blocks(draw, elements):
    m = draw(widths, label="m")
    rows = draw(
        st.lists(st.lists(elements, min_size=m, max_size=m), min_size=1, max_size=12),
        label="rows",
    )
    return as_block(rows)


class TestArbitraryFloats:
    @settings(max_examples=300)
    @given(block=blocks(st.floats(width=64)))
    def test_sum(self, block):
        assert_batch_is_scalar(SumScoring(), block)

    @settings(max_examples=300)
    @given(block=blocks(st.floats(width=64)), data=st.data())
    def test_weighted_sum(self, block, data):
        weights = data.draw(
            st.lists(
                st.floats(0.0, MAX, exclude_min=True),
                min_size=len(block),
                max_size=len(block),
            ),
            label="weights",
        )
        assert_batch_is_scalar(WeightedSumScoring(weights), block)
