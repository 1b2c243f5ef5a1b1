"""Coordinator drivers for TA, BPA and BPA2 over list owners — classic
and block.

Each algorithm is a *planner*: a generator that owns the coordinator
logic (bookkeeping, stopping rules) and emits declarative
:class:`repro.exec.plan.RoundPlan`s; the shared engine
(:func:`repro.exec.plan.drive`) executes those plans against a
:class:`repro.distributed.transport.NetworkBackend`, whose wire
protocol and fabric decide how each plan travels: per-entry or batched
messages over the simulated network, or length-prefixed frames over
TCP sockets.  ``tests/differential/`` proves every combination
bit-identical — ranked answers *and* per-mode access tallies — to the
reference single-node algorithms.

There is one planner per round shape: TA and BPA share the classic and
the block sorted-round loops, where BPA adds only the originator's
:class:`~repro.exec.plan.BestPositions` and bounds by the local scores
at the best positions, not the last ones seen.  BPA2 keeps its own two.

The **classic** planners mirror the reference implementations exactly:

* TA / BPA: ``m`` parallel sorted accesses per round, then ``m - 1``
  random accesses per surfaced entry (repeated for already-seen items —
  the paper's Lemma 2 accounting).  Random accesses are grouped per
  source list, one :class:`~repro.exec.plan.ProbeBatch` each.
* BPA2: per round, each non-exhausted list serves one direct access at
  its (source-managed) best position + 1; every new item is completed
  via ``m - 1`` random accesses.  The random accesses destined for a
  list are delivered in two slices that preserve the reference's
  per-source operation order: those from earlier lists of the round
  ride with the list's own direct step, the rest follow in one batch at
  the end of the round.

The **block** planners (paper-exact top-k, middleware-friendly cost
profile) process a fixed int ``width`` of positions per round: one
sorted (or direct) block per list, then *deduplicated* probes — each
new item is completed exactly once, in every list that did not surface
it this round.  Their reference twins live in
:mod:`repro.algorithms.block`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.algorithms.base import TopKBuffer
from repro.exec.plan import (
    BestPositions,
    BlockRound,
    DirectBlock,
    DirectResult,
    Planner,
    ProbeBatch,
    ProbeResult,
    RoundPlan,
    SortedFetch,
    SortedResult,
    drive,
)
from repro.scoring import ScoringFunction
from repro.types import ItemId, Position, Score, ScoredItem

if TYPE_CHECKING:  # pragma: no cover - repro.distributed imports repro.exec
    from repro.distributed.transport import NetworkBackend


@dataclass(frozen=True, slots=True)
class DriverOutcome:
    """What a driver hands back to its transport wrapper."""

    items: tuple[ScoredItem, ...]
    rounds: int
    stop_position: int


# ----------------------------------------------------------------------
# Classic planners (bit-identical to the reference algorithms)
# ----------------------------------------------------------------------


def _probe_plan(lookups: list[list[ItemId]]) -> RoundPlan:
    """One round's probe batches (empty lists ship no message)."""
    return RoundPlan(
        ops=tuple(
            ProbeBatch(j, tuple(items))
            for j, items in enumerate(lookups)
            if items
        ),
        new_round=False,
    )


def _probe_results(
    lookups: list[list[ItemId]], results: list[ProbeResult]
) -> list[list[tuple[Score, Position]]]:
    """Re-align probe results with the per-list request layout."""
    aligned: list[list[tuple[Score, Position]]] = []
    iterator = iter(results)
    for items in lookups:
        aligned.append(list(next(iterator).pairs) if items else [])
    return aligned


def _round_lookups(m: int, round_items: list[ItemId]) -> list[list[ItemId]]:
    """Lemma 2's probe layout: list ``j`` looks up the round's entries
    from every other list, in list order — ``need[j][slot]`` is the
    entry surfaced by list ``i`` where ``slot = i - (1 if i > j else 0)``.
    """
    return [
        [round_items[i] for i in range(m) if i != j] for j in range(m)
    ]


def _plan_sorted(
    m: int, n: int, k: int, scoring: ScoringFunction, tracker: str | None
) -> Planner:
    """TA's coordinator loop as a round planner; BPA's given a ``tracker``
    kind, with seen positions travelling to the originator."""
    buffer = TopKBuffer(k)
    seen: set[ItemId] = set()
    last: list[Score] = [0.0] * m
    best = None if tracker is None else BestPositions(tracker, m, n)
    position = 0
    while True:
        position += 1
        sorted_results: list[SortedResult] = yield RoundPlan(
            ops=tuple(SortedFetch(i, 1) for i in range(m))
        )
        round_items: list[ItemId] = []
        for i in range(m):
            item, score, pos = sorted_results[i].entries[0]
            last[i] = score
            round_items.append(item)
            if best is not None:
                best.note(i, ((score, pos),))
        # Lemma 2 accounting: every surfaced entry probes the other
        # m - 1 lists, already-seen items included.
        need = _round_lookups(m, round_items)
        lookups = _probe_results(need, (yield _probe_plan(need)))
        if best is not None:
            for j in range(m):
                best.note(j, lookups[j])
        for i in range(m):
            item = round_items[i]
            if item in seen:
                continue
            seen.add(item)
            local = [0.0] * m
            local[i] = last[i]
            for j in range(m):
                if j != i:
                    local[j] = lookups[j][i - (1 if i > j else 0)][0]
            buffer.add(item, scoring(local))
        bound = scoring(last if best is None else best.bound_scores())
        if buffer.all_at_least(bound) or position >= n:
            return DriverOutcome(buffer.ranked(), position, position)


def _plan_bpa2(
    backend: NetworkBackend, k: int, scoring: ScoringFunction
) -> Planner:
    """BPA2's coordinator loop: best positions stay at the sources.

    ``backend`` is read only for its best-position state (piggybacked
    by networked transports); every access flows through plans.
    """
    m = backend.m
    buffer = TopKBuffer(k)
    exhausted = [False] * m
    rounds = 0

    while True:
        rounds += 1
        progressed = False
        opened = False
        # Random lookups bundled with each list's upcoming direct step
        # (from earlier lists of this round) ...
        pre: list[list[ItemId]] = [[] for _ in range(m)]
        # ... and those delivered after it (or to lists with no step).
        post: list[list[ItemId]] = [[] for _ in range(m)]
        surfaced: list[tuple[int, ItemId, list[Score]]] = []
        locals_of: dict[ItemId, list[Score]] = {}
        for i in range(m):
            if exhausted[i]:
                continue
            step: list[DirectResult] = yield RoundPlan(
                ops=(DirectBlock(i, tuple(pre[i]), 1),), new_round=not opened
            )
            opened = True
            result = step[0]
            for item, score in zip(pre[i], result.lookups):
                locals_of[item][i] = score
            if not result.entries:
                exhausted[i] = True
                continue
            progressed = True
            # A direct access reads an unmarked position, so the item is
            # new (Theorem 5).
            item, score = result.entries[0]
            local = [0.0] * m
            local[i] = score
            locals_of[item] = local
            surfaced.append((i, item, local))
            for j in range(m):
                if j == i:
                    continue
                if j > i and not exhausted[j]:
                    pre[j].append(item)
                else:
                    post[j].append(item)
        if any(post):
            results = _probe_results(post, (yield _probe_plan(post)))
            for j in range(m):
                for item, (score, _pos) in zip(post[j], results[j]):
                    locals_of[item][j] = score
        for _i, item, local in surfaced:
            buffer.add(item, scoring(local))
        if buffer.all_at_least(scoring(backend.best_position_scores())):
            break
        if not progressed:
            break
    stop_position = max(backend.best_positions(), default=0)
    return DriverOutcome(buffer.ranked(), rounds, stop_position)


# ----------------------------------------------------------------------
# Block planners (width positions per round, deduplicated probes)
# ----------------------------------------------------------------------


def _require_width(width: int) -> None:
    if width < 1:
        raise ValueError(f"block width must be >= 1, got {width}")


def _plan_block(
    m: int,
    n: int,
    k: int,
    scoring: ScoringFunction,
    width: int,
    tracker: str | None,
) -> Planner:
    """Block TA: sorted blocks, then one completion per distinct item;
    block BPA given a ``tracker`` kind (see :func:`_plan_sorted`)."""
    buffer = TopKBuffer(k)
    seen: set[ItemId] = set()
    last: list[Score] = [0.0] * m
    best = None if tracker is None else BestPositions(tracker, m, n)
    position = 0
    rounds = 0
    while True:
        rounds += 1
        count = min(width, n - position)
        sorted_results: list[SortedResult] = yield RoundPlan(
            ops=tuple(SortedFetch(i, count) for i in range(m))
        )
        position += count
        block = BlockRound(m, seen)
        for i in range(m):
            entries = sorted_results[i].entries
            last[i] = entries[-1][1]
            block.add(i, entries)
            if best is not None:
                best.note(i, [(score, pos) for _item, score, pos in entries])
        needs = block.probe_needs()
        results = _probe_results(needs, (yield _probe_plan(needs)))
        for j in range(m):
            if best is not None:
                best.note(j, results[j])
            block.fill(j, needs[j], results[j])
        block.complete(buffer, scoring)
        bound = scoring(last if best is None else best.bound_scores())
        if buffer.all_at_least(bound) or position >= n:
            return DriverOutcome(buffer.ranked(), rounds, position)


def _plan_bpa2_block(
    backend: NetworkBackend, k: int, scoring: ScoringFunction, width: int
) -> Planner:
    """Block BPA2: parallel direct blocks, then deduplicated probes.

    Unlike the classic round (a sequential per-list chain), every
    list's direct block is independent — probes land only at the end of
    the round — so a pipelined transport overlaps all of them.
    """
    m = backend.m
    buffer = TopKBuffer(k)
    seen: set[ItemId] = set()
    exhausted = [False] * m
    rounds = 0

    while True:
        rounds += 1
        active = [i for i in range(m) if not exhausted[i]]
        results: list[DirectResult] = yield RoundPlan(
            ops=tuple(DirectBlock(i, (), width) for i in active)
        )
        progressed = False
        block = BlockRound(m, seen)
        for i, result in zip(active, results):
            if result.exhausted:
                exhausted[i] = True
            if result.entries:
                progressed = True
                block.add(i, result.entries)
        needs = block.probe_needs()
        probe_results = _probe_results(needs, (yield _probe_plan(needs)))
        for j in range(m):
            block.fill(j, needs[j], probe_results[j])
        block.complete(buffer, scoring)
        if buffer.all_at_least(scoring(backend.best_position_scores())):
            break
        if not progressed:
            break
    stop_position = max(backend.best_positions(), default=0)
    return DriverOutcome(buffer.ranked(), rounds, stop_position)


# ----------------------------------------------------------------------
# Public drivers: planner + engine
# ----------------------------------------------------------------------


def run_ta(
    backend: NetworkBackend, k: int, scoring: ScoringFunction
) -> DriverOutcome:
    """TA's coordinator loop over list owners."""
    return drive(_plan_sorted(backend.m, backend.n, k, scoring, None), backend)


def run_bpa(
    backend: NetworkBackend,
    k: int,
    scoring: ScoringFunction,
    *,
    tracker: str = "bitarray",
) -> DriverOutcome:
    """BPA over list owners; needs positions in lookup responses."""
    _require_positions(backend)
    return drive(_plan_sorted(backend.m, backend.n, k, scoring, tracker), backend)


def run_bpa2(
    backend: NetworkBackend, k: int, scoring: ScoringFunction
) -> DriverOutcome:
    """BPA2's coordinator loop: best positions stay at the sources."""
    return drive(_plan_bpa2(backend, k, scoring), backend)


def run_ta_block(
    backend: NetworkBackend,
    k: int,
    scoring: ScoringFunction,
    *,
    width: int = 8,
) -> DriverOutcome:
    """Block TA over list owners (``width`` positions per round)."""
    _require_width(width)
    return drive(_plan_block(backend.m, backend.n, k, scoring, width, None), backend)


def run_bpa_block(
    backend: NetworkBackend,
    k: int,
    scoring: ScoringFunction,
    *,
    width: int = 8,
    tracker: str = "bitarray",
) -> DriverOutcome:
    """Block BPA over list owners; needs positions in responses."""
    _require_width(width)
    _require_positions(backend)
    return drive(
        _plan_block(backend.m, backend.n, k, scoring, width, tracker),
        backend,
    )


def run_bpa2_block(
    backend: NetworkBackend,
    k: int,
    scoring: ScoringFunction,
    *,
    width: int = 8,
) -> DriverOutcome:
    """Block BPA2 over list owners (``width`` direct accesses per round)."""
    _require_width(width)
    return drive(_plan_bpa2_block(backend, k, scoring, width), backend)


def _require_positions(backend: NetworkBackend) -> None:
    if not backend.include_position:
        raise ValueError(
            "BPA-family drivers need positions in random-lookup responses: "
            "construct the backend with include_position=True"
        )


#: Driver registry keyed by the reference algorithm's registry name.
DRIVERS = {
    "ta": run_ta,
    "bpa": run_bpa,
    "bpa2": run_bpa2,
    "ta-block": run_ta_block,
    "bpa-block": run_bpa_block,
    "bpa2-block": run_bpa2_block,
}
