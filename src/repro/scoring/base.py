"""Scoring-function protocol and monotonicity verification."""

from __future__ import annotations

import itertools
import random
from typing import Protocol, Sequence, runtime_checkable

from repro.errors import NonMonotonicScoringError
from repro.types import Score


@runtime_checkable
class ScoringFunction(Protocol):
    """Anything that aggregates ``m`` local scores into one overall score.

    Implementations must be monotonic for TA/BPA/BPA2 to be correct.  The
    ``name`` attribute is used in reports.
    """

    name: str

    def __call__(self, scores: Sequence[Score]) -> Score:
        """Aggregate local scores (one per list, in list order)."""
        ...


def scoring_key(scoring: ScoringFunction) -> tuple:
    """A hashable identity for a scoring function's *semantics*.

    Stock scorings have faithful reprs (``SumScoring()``,
    ``WeightedSumScoring([2.0, 0.5])``) so equal-behaving instances map
    to the same key.  A callable whose repr is the *default* one (it
    embeds the object's address) gets the instance itself appended to
    the key: comparing by the repr string alone would let CPython's
    address reuse alias a dead scoring with a later, different one,
    while pinning the instance makes the key identity-true (and keeps
    the object alive exactly as long as anything caches under it).
    """
    rep = repr(scoring)
    base = (
        type(scoring).__qualname__,
        str(getattr(scoring, "name", "")),
        rep,
    )
    if f"at 0x{id(scoring):x}" in rep:
        return base + (scoring,)
    return base


def check_monotonic(
    function: ScoringFunction,
    arity: int,
    *,
    samples: int = 200,
    seed: int = 0,
    low: float = 0.0,
    high: float = 1.0,
) -> bool:
    """Probe ``function`` for monotonicity violations.

    Draws random score vectors and dominating perturbations; returns
    ``False`` on the first violation found.  A ``True`` result is evidence,
    not proof — monotonicity over the reals is undecidable by sampling —
    but catches the common mistakes (e.g. weighted sums with negative
    weights).
    """
    rng = random.Random(seed)
    for _ in range(samples):
        base = [rng.uniform(low, high) for _ in range(arity)]
        bumped = list(base)
        # Bump a random non-empty subset of coordinates upward.
        k = rng.randint(1, arity)
        for index in rng.sample(range(arity), k):
            bumped[index] += rng.uniform(0.0, high - low) + 1e-12
        if function(base) > function(bumped) + 1e-12:
            return False
    # Also probe the lattice corners for small arities.
    if arity <= 6:
        corners = list(itertools.product((low, high), repeat=arity))
        for a in corners:
            for b in corners:
                if all(x <= y for x, y in zip(a, b)):
                    if function(list(a)) > function(list(b)) + 1e-12:
                        return False
    return True


def ensure_monotonic(function: ScoringFunction, arity: int, **kwargs) -> None:
    """Raise :class:`NonMonotonicScoringError` if probing finds a violation."""
    if not check_monotonic(function, arity, **kwargs):
        name = getattr(function, "name", repr(function))
        raise NonMonotonicScoringError(
            f"scoring function {name} is not monotonic; "
            "TA/BPA/BPA2 require monotonic aggregation (paper, Section 2)"
        )
