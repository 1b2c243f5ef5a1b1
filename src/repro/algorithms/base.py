"""Shared machinery for top-k algorithms.

:class:`TopKAlgorithm` is the abstract interface every algorithm
implements; :class:`TopKBuffer` maintains the running set ``Y`` of the k
best seen items that TA, BPA and BPA2 all use in their stopping rules.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Sequence

from repro.errors import InvalidQueryError, ScoringError
from repro.lists.accessor import DatabaseAccessor
from repro.lists.database import Database
from repro.scoring import SUM, ScoringFunction, ensure_monotonic
from repro.types import ItemId, Score, ScoredItem, TopKResult


class TopKBuffer:
    """The running set ``Y``: the k highest-scored items seen so far.

    Overall scores are final once computed (TA-family algorithms compute
    an item's full overall score the first time they see it), so a bounded
    min-heap suffices.  Ties are broken toward smaller item ids, matching
    the library-wide deterministic ordering.
    """

    __slots__ = ("_k", "_heap", "_members")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {k}")
        self._k = k
        # Heap entries are (score, -item): the root is the *worst* kept
        # item, and among equal scores the larger item id is evicted first.
        self._heap: list[tuple[Score, int]] = []
        self._members: set[ItemId] = set()

    @property
    def k(self) -> int:
        """Requested result size."""
        return self._k

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, item: ItemId) -> bool:
        return item in self._members

    def add(self, item: ItemId, score: Score) -> None:
        """Offer a scored item; keeps only the k best.

        Raises :class:`~repro.errors.ScoringError` for a NaN score: it
        compares false both ways, so which items the buffer kept would
        depend on the order they arrived in — a NaN overall score has no
        rank.
        """
        if score != score:
            raise ScoringError(
                f"item {item} scores NaN; a NaN overall score has no rank"
            )
        if item in self._members:
            return
        entry = (score, -item)
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, entry)
            self._members.add(item)
            return
        root = self._heap[0]
        if entry > root:
            evicted = heapq.heapreplace(self._heap, entry)
            self._members.discard(-evicted[1])
            self._members.add(item)

    @property
    def kth_score(self) -> Score:
        """Score of the worst kept item (``-inf`` until k items are held)."""
        if len(self._heap) < self._k:
            return float("-inf")
        return self._heap[0][0]

    def is_full(self) -> bool:
        """Whether k items have been collected."""
        return len(self._heap) >= self._k

    def all_at_least(self, threshold: Score) -> bool:
        """Stop test: k items held and every one scores >= ``threshold``."""
        return self.is_full() and self.kth_score >= threshold

    def ranked(self) -> tuple[ScoredItem, ...]:
        """The kept items, best first (score desc, item id asc)."""
        ordered = sorted(self._heap, key=lambda entry: (-entry[0], -entry[1]))
        return tuple(ScoredItem(item=-neg, score=score) for score, neg in ordered)


class TopKAlgorithm(ABC):
    """Common driver for every top-k algorithm.

    Subclasses implement :meth:`_execute` against a metered
    :class:`DatabaseAccessor`; the base class validates the query,
    optionally probes the scoring function for monotonicity, and packages
    the result.
    """

    #: Short machine name, e.g. ``"ta"``; subclasses override.
    name: str = "abstract"
    #: Whether correctness requires a monotonic scoring function.
    requires_monotonic: bool = True

    def run(
        self,
        database: Database,
        k: int,
        scoring: ScoringFunction = SUM,
        *,
        verify_scoring: bool = False,
    ) -> TopKResult:
        """Answer a top-k query.

        Args:
            database: the sorted lists to query.
            k: number of answers (``1 <= k <= n``).
            scoring: monotonic aggregation function (default: sum, as in
                the paper's evaluation).
            verify_scoring: probe ``scoring`` for monotonicity first and
                raise :class:`repro.errors.NonMonotonicScoringError` on
                violation.  Off by default (it costs ~200 evaluations).
        """
        if not 1 <= k <= database.n:
            raise InvalidQueryError(
                f"k must be in 1..{database.n}, got {k}"
            )
        if verify_scoring and self.requires_monotonic:
            ensure_monotonic(scoring, database.m)
        accessor = DatabaseAccessor(database)
        items, rounds, stop_position, extras = self._execute(accessor, k, scoring)
        return TopKResult(
            items=items,
            tally=accessor.total_tally(),
            rounds=rounds,
            stop_position=stop_position,
            algorithm=self.name,
            extras=extras,
        )

    @abstractmethod
    def _execute(
        self,
        accessor: DatabaseAccessor,
        k: int,
        scoring: ScoringFunction,
    ) -> tuple[tuple[ScoredItem, ...], int, int, dict]:
        """Algorithm body: returns (items, rounds, stop_position, extras)."""

    def fast_kernel(self) -> str | None:
        """Name of the vectorized columnar kernel equivalent to this
        instance's configuration, or ``None`` when no exact kernel exists
        (non-default options, or no kernel written yet).

        When non-None, :func:`repro.columnar.engine.get_kernel` returns a
        callable producing results *identical* to :meth:`run` — same
        ranked top-k, same access tallies, same extras — on a
        :class:`repro.columnar.ColumnarDatabase`.  The single-node
        executor (:func:`repro.exec.run.execute_query`) dispatches
        through this hook; the equivalence is enforced by
        ``tests/differential/``.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def compute_overall(
    accessor: DatabaseAccessor,
    item: ItemId,
    source_list: int,
    source_score: Score,
    scoring: ScoringFunction,
    *,
    positions_out: list[tuple[int, int, Score]] | None = None,
) -> Score:
    """Random-access every other list for ``item`` and aggregate.

    ``source_list``/``source_score`` identify the (metered elsewhere)
    access that surfaced the item, so that list is not re-queried.  When
    ``positions_out`` is given, each random access appends
    ``(list_index, position, score)`` — BPA uses this to learn seen
    positions.
    """
    local_scores: list[Score] = [0.0] * accessor.m
    local_scores[source_list] = source_score
    for index, list_accessor in enumerate(accessor.accessors):
        if index == source_list:
            continue
        score, position = list_accessor.random_lookup(item)
        local_scores[index] = score
        if positions_out is not None:
            positions_out.append((index, position, score))
    return scoring(local_scores)


_REGISTRY: dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator: register an algorithm under its ``name``."""
    _REGISTRY[cls.name] = cls
    return cls


def get_algorithm(name: str, **kwargs) -> TopKAlgorithm:
    """Instantiate a registered algorithm by name (``ta``, ``bpa`` ...).

    The core algorithms (BPA/BPA2) register themselves when
    :mod:`repro.core` is imported; importing :mod:`repro` loads everything.
    """
    # Ensure all registrations ran.
    import repro.algorithms.block  # noqa: F401
    import repro.algorithms.fa  # noqa: F401
    import repro.algorithms.naive  # noqa: F401
    import repro.algorithms.nra  # noqa: F401
    import repro.algorithms.quick_combine  # noqa: F401
    import repro.algorithms.ta  # noqa: F401
    import repro.core.bpa  # noqa: F401
    import repro.core.bpa2  # noqa: F401

    if name not in _REGISTRY:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name](**kwargs)


def known_algorithms() -> list[str]:
    """Names of all registered algorithms."""
    try:
        get_algorithm("__none__")  # forces every registration module to load
    except KeyError:
        pass
    return sorted(_REGISTRY)
