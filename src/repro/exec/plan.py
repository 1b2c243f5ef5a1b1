"""Declarative round plans and the engine that executes them.

The paper's TA/BPA/BPA2 cost model is *round*-structured: each round is
a bundle of sorted (or direct) accesses across the ``m`` lists followed
by the random probes those accesses triggered.  This module makes the
round a first-class object:

* an :class:`Op` describes one list's work in a round —
  :class:`SortedFetch` (a sorted block of ``count`` entries),
  :class:`ProbeBatch` (batched random lookups) or :class:`DirectBlock`
  (BPA2's bundled lookups plus up to ``count`` direct accesses at the
  source-managed best position);
* a :class:`RoundPlan` is a set of ops with **no data dependencies
  between them** (at most one op per list), so any transport may execute
  them concurrently;
* :func:`drive` runs a *planner* — a generator yielding plans and
  receiving their results — against a
  :class:`repro.distributed.transport.NetworkBackend`.

Planners own the algorithm logic (stopping rules, bookkeeping); the
list owners behind the backend own the access semantics and
accounting.  The same planner therefore runs as per-entry or batched
messages over the simulated network, or as length-prefixed frames over
real TCP sockets — and the differential suites prove all of them
bit-identical.  Single-node queries never come through here: they run
the vectorized kernels via :func:`repro.exec.run.execute_query`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Sequence, Union

from repro.core.best_position import make_tracker
from repro.types import ItemId, Position, Score

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.algorithms.base import TopKBuffer
    from repro.distributed.transport import NetworkBackend
    from repro.exec.drivers import DriverOutcome


# ----------------------------------------------------------------------
# Ops: one list's work inside a round
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SortedFetch:
    """Fetch the next ``count`` entries of one list under sorted access."""

    list_index: int
    count: int


@dataclass(frozen=True, slots=True)
class ProbeBatch:
    """Random-access ``items`` in one list, in order."""

    list_index: int
    items: tuple[ItemId, ...]


@dataclass(frozen=True, slots=True)
class DirectBlock:
    """BPA2's per-list step: pending lookups, then direct accesses.

    Performs the random lookups for ``items`` first (accesses that the
    round's sequential order places before this list's direct step),
    then up to ``count`` direct accesses, each at the source-managed
    best position + 1.
    """

    list_index: int
    items: tuple[ItemId, ...]
    count: int = 1


Op = Union[SortedFetch, ProbeBatch, DirectBlock]


# ----------------------------------------------------------------------
# Results: what the backend hands back per op
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SortedResult:
    """``(item, score, position)`` per fetched entry (may be clipped)."""

    entries: tuple[tuple[ItemId, Score, Position], ...]


@dataclass(frozen=True, slots=True)
class ProbeResult:
    """``(score, position)`` per probed item, in request order.

    Positions are meaningful only on backends built with
    ``include_position=True`` (they are what BPA ships home).
    """

    pairs: tuple[tuple[Score, Position], ...]


@dataclass(frozen=True, slots=True)
class DirectResult:
    """Bundled lookup scores, then the served direct-access entries.

    ``exhausted`` reports whether the list's best position reached the
    end while (or before) serving — ``entries`` may be shorter than the
    requested count, or empty.
    """

    lookups: tuple[Score, ...]
    entries: tuple[tuple[ItemId, Score], ...]
    exhausted: bool


OpResult = Union[SortedResult, ProbeResult, DirectResult]


# ----------------------------------------------------------------------
# The plan itself
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RoundPlan:
    """One dependency-free bundle of ops.

    Invariant (validated): at most one op per list, so a transport may
    execute the ops concurrently without reordering any single source's
    operation stream.  ``new_round`` announces a fresh coordinator round
    to the backend's accounting (an algorithm round may span several
    plans when later ops depend on earlier results, e.g. TA's probes
    follow its sorted wave).
    """

    ops: tuple[Op, ...]
    new_round: bool = True

    def __post_init__(self) -> None:
        lists = [op.list_index for op in self.ops]
        if len(set(lists)) != len(lists):
            raise ValueError(
                f"a RoundPlan may hold at most one op per list, got {lists}"
            )


Planner = Generator[RoundPlan, "list[OpResult]", "DriverOutcome"]


def drive(planner: Planner, backend: "NetworkBackend") -> "DriverOutcome":
    """Execute a planner's round plans against a backend.

    The planner yields :class:`RoundPlan`s and receives the aligned
    :class:`OpResult` list for each; its ``return`` value is the
    driver outcome.  All transport knowledge lives in
    :meth:`NetworkBackend.execute_plan` — the entry protocol sends one
    message per access, batch one frame per owner in turn, and the
    pipelined protocol puts a plan's frames on the wire together.
    """
    results: list[OpResult] | None = None
    while True:
        try:
            plan = planner.send(results) if results is not None else next(planner)
        except StopIteration as stop:
            return stop.value
        results = backend.execute_plan(plan)


# ----------------------------------------------------------------------
# Shared round bookkeeping
# ----------------------------------------------------------------------


@dataclass(slots=True)
class BlockRound:
    """Deduplicated bookkeeping for one block round.

    Records the entries every list surfaced this round (sorted blocks or
    direct blocks).  An item not ``seen`` in an earlier round gets its
    local-score vector when it is first surfaced; the lists that surface
    it fill their slots, and the probes fill the rest (:meth:`fill`).
    :meth:`probe_needs` derives, *in deterministic first-surfaced
    order*, which new items need probes in which lists, and
    :meth:`complete` scores every new item in that order.  Both the
    reference block algorithms and the engine planners build their probe
    batches through this class, so their owner-side operation sequences
    cannot drift apart.
    """

    m: int
    #: items completed in earlier rounds; :meth:`complete` adds this
    #: round's new items.
    seen: set[ItemId]
    #: new item -> its local scores (``None`` where no list has answered
    #: yet), in first-surfaced order (dicts keep insertion order).
    vectors: dict[ItemId, list[Score | None]] = field(default_factory=dict)

    def add(self, list_index: int, entries: Iterable[Sequence]) -> None:
        """Record the entries list ``list_index`` surfaced, each an
        ``(item, score, ...)`` tuple (items seen earlier are skipped)."""
        vectors, seen, m = self.vectors, self.seen, self.m
        for entry in entries:
            item = entry[0]
            vector = vectors.get(item)
            if vector is None:
                if item in seen:
                    continue
                vector = vectors[item] = [None] * m
            vector[list_index] = entry[1]

    def probe_needs(self) -> list[list[ItemId]]:
        """Per list: the new items whose local score is still unknown."""
        vectors = self.vectors.items()
        return [
            [item for item, vector in vectors if vector[j] is None]
            for j in range(self.m)
        ]

    def fill(
        self,
        list_index: int,
        items: Sequence[ItemId],
        probed: Iterable[tuple[Score, Position]],
    ) -> None:
        """Record list ``list_index``'s probe answers for ``items``: one
        ``(score, position)`` pair per item, in order."""
        vectors = self.vectors
        for item, (score, _position) in zip(items, probed):
            vectors[item][list_index] = score

    def complete(
        self, buffer: "TopKBuffer", scoring: Callable[[list[Score]], Score]
    ) -> None:
        """Score every new item into ``buffer`` in first-surfaced order,
        and mark them seen."""
        self.seen.update(self.vectors)
        add = buffer.add
        for item, vector in self.vectors.items():
            add(item, scoring(vector))


class BestPositions:
    """BPA's originator-side state in the sorted-round loops it shares
    with TA: per list, a best-position tracker and the local score seen
    at every marked position.  Lambda scores :meth:`bound_scores`."""

    __slots__ = ("trackers", "scores")

    def __init__(self, kind: str, m: int, n: int) -> None:
        self.trackers = [make_tracker(kind, n) for _ in range(m)]
        self.scores: list[dict[Position, Score]] = [{} for _ in range(m)]

    def note(
        self, list_index: int, pairs: Iterable[tuple[Score, Position]]
    ) -> None:
        """Mark every ``(score, position)`` list ``list_index`` revealed."""
        mark, scores = self.trackers[list_index].mark, self.scores[list_index]
        for score, position in pairs:
            mark(position)
            scores[position] = score

    def bound_scores(self) -> list[Score]:
        """The local scores at the best positions, in list order."""
        return [
            scores[tracker.best_position]
            for scores, tracker in zip(self.scores, self.trackers)
        ]


def group_ops_by_owner(
    ops: Sequence[Op], owner_of: Sequence[int]
) -> dict[int, list[Op]]:
    """Group one round plan's ops by the owner hosting each list.

    ``owner_of[i]`` names the owner process hosting list ``i`` (see
    :class:`repro.distributed.placement.ClusterPlacement`).  Returns
    ``{owner: ops}`` with owners in ascending order and each owner's
    ops in plan order — a round plan never carries two ops for the
    same list, so a transport may ship each group as **one frame** and
    the owner may execute its ops in any order without reordering any
    per-list access stream.
    """
    groups: dict[int, list[Op]] = {}
    for op in ops:
        groups.setdefault(owner_of[op.list_index], []).append(op)
    return {owner: groups[owner] for owner in sorted(groups)}
