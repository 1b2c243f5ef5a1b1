"""Monotonic scoring functions.

The paper requires the aggregation function ``f`` to be *monotonic*:
``f(x1..xm) <= f(x'1..x'm)`` whenever ``xi <= x'i`` for every ``i``
(Section 2).  All stock functions here are monotonic over non-negative
scores; :func:`check_monotonic` probes arbitrary callables.
:class:`SumScoring` and :class:`WeightedSumScoring` also score a whole
block of items at once (``batch``, :mod:`repro.scoring.batch`), bit for
bit as their ``__call__`` does item by item.
"""

from repro.scoring.base import (
    ScoringFunction,
    check_monotonic,
    ensure_monotonic,
    scoring_key,
)
from repro.scoring.functions import (
    AverageScoring,
    MaxScoring,
    MinScoring,
    ProductScoring,
    SumScoring,
    WeightedSumScoring,
)

SUM = SumScoring()
MIN = MinScoring()
MAX = MaxScoring()
AVERAGE = AverageScoring()

__all__ = [
    "ScoringFunction",
    "check_monotonic",
    "ensure_monotonic",
    "scoring_key",
    "SumScoring",
    "WeightedSumScoring",
    "MinScoring",
    "MaxScoring",
    "AverageScoring",
    "ProductScoring",
    "SUM",
    "MIN",
    "MAX",
    "AVERAGE",
]
