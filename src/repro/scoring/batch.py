"""Correctly rounded column sums, many columns per NumPy pass.

:func:`math.fsum` returns the correctly rounded (round-half-even) sum
``RN(E)`` of the exact sum ``E`` of its inputs.  :func:`fsum_columns`
returns the same float for every column of an ``(m, r)`` block, bit for
bit, in a few dozen NumPy operations per block instead of one
interpreted call per column:

1. TwoSum (an error-free transformation: ``s + e == a + b`` exactly)
   runs down each column, giving the rounded running total ``s`` and
   the rounding error of every addition.  A second TwoSum cascade over
   those errors gives their rounded total ``c`` and the second-order
   errors, whose exact sum is the residue ``R``; a last TwoSum gives
   ``h = RN(s + c)`` and its error ``l``.  So ``E == h + l + R``.
2. ``h`` is ``RN(E)`` when the residue is exactly 0 (the hardware
   rounded ``h + l``, half-even), and when ``|l| + |R| < g / 2`` for
   the smaller gap ``g`` between ``h`` and a neighbouring float, so
   that ``E`` lies strictly inside ``h``'s rounding interval.
   :func:`certified_sums` checks the latter against ``B``, the rounded
   sum of the second-order errors' magnitudes, with margins that absorb
   the rounding of ``B`` itself: ``B <= g * 2**-20`` and
   ``|l| <= g * (1/2 - 2**-19)``.  With at most two terms ``s`` is
   already ``RN(E)``.
3. Every other column goes through the scalar callable: a zero sum
   (``fsum`` returns ``+0.0`` where the cascade may give ``-0.0``), a
   non-finite or overflow-prone one (``fsum`` may raise), and one too
   close to a rounding midpoint to certify.  Such columns are rare on
   real data: none of 60 million uniform columns (m = 3, 4 and 7, plain
   and weighted) was one.

Most decisions need no exact sum at all: a comparison of a column's
sum with some value is settled by :func:`approximate_sums` (a plain
NumPy sum of the same products) whenever the two lie further apart
than :func:`approximation_margin`, which bounds the approximation's
error for every column of one database at once.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

#: Columns whose terms' magnitudes add up to this or more are left to
#: the scalar path: below it no partial sum, of the cascade or of
#: ``math.fsum``, can overflow.
SAFE_MAGNITUDE = 2.0**1020

#: Largest certified second-order residue bound, in units of the gap.
RESIDUE_MARGIN = 2.0**-20

#: Largest certified first-order error, in units of the gap; leaves
#: twice :data:`RESIDUE_MARGIN` of room below the rounding midpoint.
ERROR_MARGIN = 0.5 - 2.0**-19


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s, e)`` with ``s = RN(a + b)`` and ``s + e == a + b`` exactly."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def certified_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of the ``(m, r)`` float64 block ``terms``, and a mask
    of the columns whose sum is certified to be ``math.fsum`` of the
    column, bit for bit.
    """
    total = terms[0].copy()  # fsum_columns writes fallbacks into it
    errors = []
    for term in terms[1:]:
        total, error = _two_sum(total, term)
        errors.append(error)
    certified = np.abs(terms).sum(axis=0) < SAFE_MAGNITUDE
    if len(errors) > 1:  # with one error term the running total is RN(E)
        carry, bound = errors[0], 0.0
        for error in errors[1:]:
            carry, residue = _two_sum(carry, error)
            bound = bound + np.abs(residue)
        total, low = _two_sum(total, carry)
        gap = np.abs(total - np.nextafter(total, 0.0))
        clear = (bound <= gap * RESIDUE_MARGIN) & (
            np.abs(low) <= gap * ERROR_MARGIN
        )
        certified &= (bound == 0) | clear
    certified &= total != 0
    return total, certified


def approximate_sums(scores: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Column sums of the ``(m, r)`` block ``scores``, or of
    ``weights * scores`` for an ``(m, 1)`` column of weights, in one
    NumPy pass, each addition rounded.

    The terms are :func:`fsum_columns`' terms: the same IEEE products
    ``w * s``, elementwise, never a dot product (which may fuse a
    multiply and an add, and so round differently).  Within
    :func:`approximation_margin` of ``math.fsum`` of each column.
    """
    terms = scores if weights is None else weights * scores
    return terms.sum(axis=0)


def approximation_margin(
    magnitudes: Sequence[float], weights: Sequence[float] | None
) -> float:
    """``mu`` with ``|approximate_sums - fsum| <= mu / 2`` on every column
    whose term ``i`` is a score of magnitude at most ``magnitudes[i]``,
    times ``weights[i]`` (``1`` when ``weights`` is ``None``).

    ``mu = 4 * m * 2**-53 * S`` with ``S = sum(|w_i| * M_i)``.  With
    ``u = 2**-53`` and the products ``p_i = RN(w_i * s_i)``, which both
    sums add: each of the ``m - 1`` additions of the NumPy sum errs by at
    most ``u`` times its result, so by at most ``u * sum(|p_i|)``, and
    ``fsum`` errs by at most ``u * |sum(p_i)|`` — ``m * u * sum(|p_i|)``
    in all, whatever the order of the additions.  ``|p_i| <= (1 + u) *
    |w_i| * M_i`` where the product is normal; an underflowing product
    can exceed ``|w_i * s_i|`` by half the smallest subnormal, but a sum
    of subnormals is exact and ``fsum``'s result is then representable,
    so the error is nonzero only when ``sum(|p_i|) >= 2**-1022`` and that
    excess is negligible.  So the error is at most ``m * u * S`` plus
    terms of order ``m * u**2 * S`` (the rounding of ``S`` and of ``mu``
    included), which ``mu / 2`` covers twice over.  The other factor of
    two leaves room for the rounding of ``approx +- mu`` and
    ``approx +- 2 * mu`` in the comparisons that use it.  The largest
    error measured on random, wide-exponent and subnormal data was
    ``0.13 * mu``.

    Infinite when ``S`` is not below :data:`SAFE_MAGNITUDE` — a ±inf or
    NaN magnitude, or terms large enough that ``math.fsum`` may
    overflow: such a database must score every row exactly.  Plain
    Python floats, since ``m`` is small: a product or sum that overflows
    is ``inf`` and ``0 * inf`` is NaN, never an exception.
    """
    terms = magnitudes if weights is None else map(float.__mul__, weights, magnitudes)
    scale = sum(terms)
    if not scale < SAFE_MAGNITUDE:
        return math.inf
    return scale * (4 * len(magnitudes) * 2.0**-53)


def fsum_columns(
    scores: np.ndarray,
    weights: np.ndarray | None,
    scalar: Callable[[Sequence[float]], float],
) -> np.ndarray:
    """``math.fsum`` of every column's terms, bit for bit: the ``(m, r)``
    block ``scores`` itself, or ``weights * scores`` for an ``(m, 1)``
    column of weights (the same IEEE products as ``w * s``).

    An uncertified column ``j`` is ``scalar(scores[:, j].tolist())``
    instead, from the scalar scoring those terms stand for, so it also
    raises what the scalar call raises.
    """
    # overflow and NaN leave a column uncertified, for ``scalar`` to score
    with np.errstate(over="ignore", invalid="ignore"):
        terms = scores if weights is None else weights * scores
        totals, certified = certified_sums(terms)
    for column in np.flatnonzero(~certified).tolist():
        totals[column] = scalar(scores[:, column].tolist())
    return totals
