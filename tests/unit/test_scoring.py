"""Unit tests for scoring functions and monotonicity checking."""

import math

import pytest

from repro.errors import NonMonotonicScoringError, ScoringError
from repro.scoring import (
    AVERAGE,
    MAX,
    MIN,
    SUM,
    AverageScoring,
    MaxScoring,
    MinScoring,
    ProductScoring,
    SumScoring,
    WeightedSumScoring,
    check_monotonic,
    ensure_monotonic,
)


class TestStockFunctions:
    def test_sum(self):
        assert SUM([1.0, 2.0, 3.0]) == 6.0

    def test_min(self):
        assert MIN([3.0, 1.0, 2.0]) == 1.0

    def test_max(self):
        assert MAX([3.0, 1.0, 2.0]) == 3.0

    def test_average(self):
        assert AVERAGE([1.0, 2.0, 3.0]) == 2.0

    def test_product(self):
        assert ProductScoring()([2.0, 3.0, 4.0]) == 24.0

    def test_product_rejects_negative(self):
        with pytest.raises(ScoringError):
            ProductScoring()([2.0, -1.0])

    def test_names(self):
        assert SumScoring().name == "sum"
        assert MinScoring().name == "min"
        assert MaxScoring().name == "max"
        assert AverageScoring().name == "avg"

    def test_reprs_are_informative(self):
        assert "Sum" in repr(SumScoring())
        assert "weights" not in repr(MinScoring())


class TestWeightedSum:
    def test_applies_weights(self):
        scoring = WeightedSumScoring([2.0, 0.5])
        assert scoring([1.0, 4.0]) == 4.0

    def test_rejects_empty_weights(self):
        with pytest.raises(ScoringError):
            WeightedSumScoring([])

    def test_rejects_negative_weights(self):
        with pytest.raises(ScoringError):
            WeightedSumScoring([1.0, -0.1])

    def test_rejects_arity_mismatch(self):
        scoring = WeightedSumScoring([1.0, 1.0])
        with pytest.raises(ScoringError):
            scoring([1.0, 2.0, 3.0])

    def test_weights_property_and_name(self):
        scoring = WeightedSumScoring([1.0, 2.0])
        assert scoring.weights == (1.0, 2.0)
        assert "1" in scoring.name and "2" in scoring.name

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        # Regression: [nan, 1.0] constructed and scored every item NaN,
        # and [inf, 1.0] scored NaN wherever the first score was 0.0.
        with pytest.raises(ScoringError, match="finite"):
            WeightedSumScoring([bad, 1.0])

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ScoringError):
            WeightedSumScoring([0.0, 0.0])

    def test_zero_weight_is_legal_beside_a_positive_one(self):
        scoring = WeightedSumScoring([0.0, 1.0])
        assert scoring([5.0, 3.0]) == 3.0

    def test_name_distinguishes_nearby_weight_vectors(self):
        # Regression: the name used to render weights with ``{w:g}``
        # (6 significant digits), so 0.3 and 0.30000004 — distinct
        # floats that rank items differently — shared one name, and
        # the name feeds the normalized query cache key.
        close = WeightedSumScoring([0.3])
        closer = WeightedSumScoring([0.30000004])
        assert close.name != closer.name

    def test_name_round_trips_every_weight_exactly(self):
        weights = [0.1, 1e-17, 0.30000000000000004, 123456.789012345]
        scoring = WeightedSumScoring(weights)
        inner = scoring.name[len("wsum["):-1]
        assert [float(w) for w in inner.split(",")] == weights


class _NonMonotonic:
    name = "negsum"

    def __call__(self, scores):
        return -sum(scores)


class TestMonotonicityChecking:
    @pytest.mark.parametrize(
        "function",
        [SUM, MIN, MAX, AVERAGE, ProductScoring(), WeightedSumScoring([0.5, 2.0, 0.0])],
        ids=lambda f: getattr(f, "name", "fn"),
    )
    def test_monotonic_functions_pass(self, function):
        arity = 3
        if isinstance(function, WeightedSumScoring):
            arity = len(function.weights)
        assert check_monotonic(function, arity)

    def test_non_monotonic_function_fails(self):
        assert not check_monotonic(_NonMonotonic(), 3)

    def test_ensure_monotonic_raises_with_name(self):
        with pytest.raises(NonMonotonicScoringError, match="negsum"):
            ensure_monotonic(_NonMonotonic(), 2)

    def test_ensure_monotonic_accepts_sum(self):
        ensure_monotonic(SUM, 4)  # must not raise
