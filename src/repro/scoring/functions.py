"""Stock monotonic scoring functions.

All are monotonic over non-negative local scores (``ProductScoring``
additionally requires non-negative inputs, which the paper's problem
definition guarantees: local scores are non-negative reals).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ScoringError
from repro.scoring.batch import fsum_columns
from repro.types import Score


class SumScoring:
    """``f(s1..sm) = s1 + ... + sm`` — the paper's evaluation default."""

    name = "sum"

    def __call__(self, scores: Sequence[Score]) -> Score:
        return math.fsum(scores)

    def batch(self, block: np.ndarray) -> np.ndarray:
        """``self(column)`` for every column of an ``(m, r)`` block of
        local scores, bit for bit (see :mod:`repro.scoring.batch`)."""
        return fsum_columns(np.asarray(block, dtype=np.float64), None, self)

    def __repr__(self) -> str:
        return "SumScoring()"


class WeightedSumScoring:
    """``f(s1..sm) = w1*s1 + ... + wm*sm`` with finite, non-negative weights.

    Negative weights would break monotonicity, and a NaN or infinite
    weight makes items score NaN (``inf * 0.0``), so both are rejected
    at construction time.
    """

    def __init__(self, weights: Sequence[float]) -> None:
        if not weights:
            raise ScoringError("weighted sum needs at least one weight")
        self._weights = tuple(float(w) for w in weights)
        if not all(math.isfinite(w) for w in self._weights):
            raise ScoringError("weighted sum weights must be finite")
        if any(w < 0 for w in self._weights):
            raise ScoringError(
                "weighted sum weights must be non-negative to stay monotonic"
            )
        if not any(w > 0 for w in self._weights):
            # All-zero vectors score every item 0.0, collapsing the
            # total order to id-only ties — a degenerate "top-k" that no
            # caller ever means.
            raise ScoringError(
                "weighted sum needs at least one strictly positive weight"
            )
        # The name is an identity: it feeds the normalized query cache
        # key (repro.exec.keys.scoring_key), so it must distinguish any
        # two weight vectors that rank differently.  Python float reprs
        # are shortest-exact (repr round-trips, so distinct floats never
        # share one) — a lossy format such as ``{w:g}`` (6 significant
        # digits) would collide e.g. 0.3 with 0.30000004.
        self.name = f"wsum[{','.join(repr(w) for w in self._weights)}]"

    @property
    def weights(self) -> tuple[float, ...]:
        """The weight vector."""
        return self._weights

    def __call__(self, scores: Sequence[Score]) -> Score:
        if len(scores) != len(self._weights):
            raise ScoringError(
                f"expected {len(self._weights)} scores, got {len(scores)}"
            )
        return math.fsum(w * s for w, s in zip(self._weights, scores))

    def batch(self, block: np.ndarray) -> np.ndarray:
        """``self(column)`` for every column of an ``(m, r)`` block of
        local scores, bit for bit (see :mod:`repro.scoring.batch`)."""
        block = np.asarray(block, dtype=np.float64)
        if len(block) != len(self._weights):
            raise ScoringError(
                f"expected {len(self._weights)} scores, got {len(block)}"
            )
        weights = np.asarray(self._weights)[:, np.newaxis]
        return fsum_columns(block, weights, self)

    def __repr__(self) -> str:
        return f"WeightedSumScoring({list(self._weights)!r})"


class MinScoring:
    """``f = min`` — the classic fuzzy-conjunction aggregation."""

    name = "min"

    def __call__(self, scores: Sequence[Score]) -> Score:
        return min(scores)

    def __repr__(self) -> str:
        return "MinScoring()"


class MaxScoring:
    """``f = max`` — fuzzy disjunction."""

    name = "max"

    def __call__(self, scores: Sequence[Score]) -> Score:
        return max(scores)

    def __repr__(self) -> str:
        return "MaxScoring()"


class AverageScoring:
    """``f = mean`` — same ranking as sum, different scale."""

    name = "avg"

    def __call__(self, scores: Sequence[Score]) -> Score:
        return math.fsum(scores) / len(scores)

    def __repr__(self) -> str:
        return "AverageScoring()"


class ProductScoring:
    """``f = s1 * ... * sm`` — monotonic for non-negative scores."""

    name = "product"

    def __call__(self, scores: Sequence[Score]) -> Score:
        result = 1.0
        for score in scores:
            if score < 0:
                raise ScoringError(
                    "product scoring requires non-negative local scores"
                )
            result *= score
        return result

    def __repr__(self) -> str:
        return "ProductScoring()"
