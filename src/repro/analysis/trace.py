"""Per-round execution traces for TA and BPA.

A :class:`RoundTrace` captures everything the two stopping mechanisms
look at after each parallel sorted-access round: TA's threshold
``delta``, BPA's best positions and ``lambda``, and the running top-k
scores.  Traces power the walkthrough example and make per-round
invariants testable — most importantly the inequality at the heart of
Lemma 1: ``lambda(p) <= delta(p)`` at every round.

A trace is a view of the snapshot walk the TA and BPA kernels search
(:mod:`repro.columnar.walk`), read depth by depth: after ``p`` rounds
both algorithms have seen the rows of
:meth:`~repro.columnar.walk.FirstSeenPrefix.seen_by`, scored through the
snapshot's :class:`~repro.columnar.walk.TotalsMemo`, and their bounds
score row ``p - 1`` of ``threshold_scores`` or ``lambda_scores``.  So
the per-round checks in ``tests/integration/test_analysis.py`` run on
the production arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.columnar import ColumnarDatabase
from repro.errors import InvalidQueryError
from repro.lists.accessor import DatabaseLike
from repro.scoring import SUM, ScoringFunction
from repro.types import Score


@dataclass(frozen=True, slots=True)
class RoundTrace:
    """State visible to the stopping rules after one round."""

    position: int
    threshold: Score  # TA's delta (or BPA's lambda, in BPA traces)
    top_scores: tuple[Score, ...]  # the running Y, best first
    best_positions: tuple[int, ...] = ()  # BPA only
    stopped: bool = False


def trace_ta(
    database: DatabaseLike, k: int, scoring: ScoringFunction = SUM
) -> list[RoundTrace]:
    """Round-by-round trace of TA on ``database``."""
    return _trace(database, k, scoring, bpa=False)


def trace_bpa(
    database: DatabaseLike, k: int, scoring: ScoringFunction = SUM
) -> list[RoundTrace]:
    """Round-by-round trace of BPA on ``database``."""
    return _trace(database, k, scoring, bpa=True)


def _trace(
    database: DatabaseLike, k: int, scoring: ScoringFunction, *, bpa: bool
) -> list[RoundTrace]:
    """Every round up to the first whose stop test holds, or ``n``."""
    if k < 1:
        raise InvalidQueryError(f"k must be >= 1, got {k}")
    database = ColumnarDatabase.from_database(database)
    prefix = database.first_seen_prefix()
    memo = database.totals_memo(scoring)
    bound_scores = prefix.lambda_scores if bpa else prefix.threshold_scores
    rounds: list[RoundTrace] = []
    for position in range(1, database.n + 1):
        totals = memo.totals_of(prefix.rows[: prefix.seen_by(position)])
        top = tuple(np.sort(totals)[::-1][:k].tolist())
        bound = scoring(bound_scores(position)[position - 1].tolist())
        stopped = len(top) == k and top[-1] >= bound
        rounds.append(
            RoundTrace(
                position=position,
                threshold=bound,
                top_scores=top,
                best_positions=prefix.best_positions(position) if bpa else (),
                stopped=stopped,
            )
        )
        if stopped:
            break
    return rounds
