"""Common typed primitives shared across the library.

The vocabulary follows the paper:

* an *item* is identified by a non-negative integer id (examples may attach
  human-readable labels through :class:`repro.lists.database.Database`);
* a *position* is the 1-based rank of an item inside one sorted list —
  position 1 holds the highest local score;
* a *local score* is the item's score inside one list, an *overall score*
  is the output of the scoring function over all of its local scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

ItemId = int
Position = int  # 1-based, as in the paper
Score = float


@dataclass(frozen=True, slots=True)
class ScoredItem:
    """An item together with its overall score."""

    item: ItemId
    score: Score

    def __iter__(self) -> Iterator[object]:
        # Allows ``item, score = scored`` unpacking in client code.
        yield self.item
        yield self.score


@dataclass(frozen=True, slots=True)
class ListEntry:
    """One `(item, local_score)` pair at a known position of a list."""

    position: Position
    item: ItemId
    score: Score


@dataclass(slots=True)
class AccessTally:
    """Counts of each access mode performed against the lists.

    The paper distinguishes *sorted* (sequential) access, *random* access
    (lookup of a given item) and, for BPA2, *direct* access (read the entry
    at a given position).  ``AccessTally`` instances are additive so that
    per-list counters can be merged into a per-query total.
    """

    sorted: int = 0
    random: int = 0
    direct: int = 0

    @property
    def total(self) -> int:
        """Total number of accesses of any mode."""
        return self.sorted + self.random + self.direct

    def __add__(self, other: "AccessTally") -> "AccessTally":
        if not isinstance(other, AccessTally):
            return NotImplemented
        return AccessTally(
            sorted=self.sorted + other.sorted,
            random=self.random + other.random,
            direct=self.direct + other.direct,
        )

    def copy(self) -> "AccessTally":
        """Return an independent copy of this tally."""
        return AccessTally(self.sorted, self.random, self.direct)


@dataclass(frozen=True, slots=True)
class CostModel:
    """Unit costs used to turn an :class:`AccessTally` into execution cost.

    The paper's evaluation (Section 6.1) uses ``cs = 1`` and
    ``cr = log2(n)`` and charges each BPA2 direct access like a random
    access.  :meth:`for_database_size` builds exactly that model.
    """

    sorted_cost: float = 1.0
    random_cost: float = 1.0
    direct_cost: float | None = None  # ``None`` means "same as random"

    @classmethod
    def paper(cls, n: int) -> "CostModel":
        """The paper's model for lists of ``n`` items: cs=1, cr=log2(n)."""
        return cls.for_database_size(n)

    @classmethod
    def for_database_size(cls, n: int) -> "CostModel":
        """Build the paper's cost model (``cs=1``, ``cr=log2 n``)."""
        if n < 1:
            raise ValueError(f"database size must be positive, got {n}")
        return cls(sorted_cost=1.0, random_cost=math.log2(n) if n > 1 else 1.0)

    def execution_cost(self, tally: AccessTally) -> float:
        """Execution cost ``as*cs + ar*cr`` (+ direct accesses at cr)."""
        direct_cost = self.random_cost if self.direct_cost is None else self.direct_cost
        return (
            tally.sorted * self.sorted_cost
            + tally.random * self.random_cost
            + tally.direct * direct_cost
        )

    def calibrate(
        self, predicted: float, observed: float, *, blend: float = 0.5
    ) -> float:
        """Blend a model prediction with an observed cost.

        ``blend`` is the weight given to the observation: ``0`` trusts
        the static model entirely, ``1`` trusts the measurement.  The
        feedback loop (:mod:`repro.service.feedback`) uses this to pull
        predicted costs toward EWMA-smoothed runtime observations
        without ever letting one noisy sample own the decision.
        """
        if not 0.0 <= blend <= 1.0:
            raise ValueError(f"blend must be in [0, 1], got {blend}")
        return (1.0 - blend) * predicted + blend * observed


@dataclass(frozen=True, slots=True)
class TopKResult:
    """The answer to a top-k query plus execution statistics.

    Attributes:
        items: the top-k items in descending overall-score order; ties are
            broken by ascending item id so results are deterministic.
        tally: how many sorted/random/direct accesses the run performed.
        rounds: number of parallel access rounds before the stop condition
            fired.  For TA/BPA this equals the stopping *position* under
            sorted access; for BPA2 it is the number of direct-access
            rounds.
        stop_position: the depth under sorted/direct access at which the
            algorithm stopped (same as ``rounds`` for round-based
            algorithms, kept separate for clarity in reports).
        algorithm: name of the algorithm that produced the result.
    """

    items: tuple[ScoredItem, ...]
    tally: AccessTally
    rounds: int
    stop_position: int
    algorithm: str = ""
    extras: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def k(self) -> int:
        """Number of returned items."""
        return len(self.items)

    @property
    def item_ids(self) -> tuple[ItemId, ...]:
        """The returned item ids, best first."""
        return tuple(entry.item for entry in self.items)

    @property
    def scores(self) -> tuple[Score, ...]:
        """The returned overall scores, best first."""
        return tuple(entry.score for entry in self.items)

    def execution_cost(self, model: CostModel) -> float:
        """Execution cost of this run under ``model``."""
        return model.execution_cost(self.tally)

    def same_scores(self, other: "TopKResult", tolerance: float = 1e-9) -> bool:
        """Whether two results agree on the top-k *score multiset*.

        Ties between items with equal overall scores may be resolved
        differently by different (all correct) algorithms, so result
        equivalence is defined on scores, not item ids.
        """
        if self.k != other.k:
            return False
        return all(
            math.isclose(a, b, rel_tol=0.0, abs_tol=tolerance)
            for a, b in zip(self.scores, other.scores)
        )


def rank_items(scores: Sequence[Score]) -> list[ItemId]:
    """Return item ids ``0..n-1`` sorted by (score desc, item id asc).

    This is the canonical tie-breaking used everywhere in the library so
    that sorted lists and expected results are reproducible.
    """
    return sorted(range(len(scores)), key=lambda item: (-scores[item], item))
