"""The execution-backend protocol the round planners drive.

A backend owns the *sources* of one query — the ``m`` sorted lists —
and serves the three access primitives of the TA/BPA family plus BPA2's
best-position bookkeeping.  The drivers in :mod:`repro.exec.drivers`
are written purely against this protocol; its implementation is
:class:`repro.distributed.transport.NetworkBackend`, where each
primitive becomes one or more request/response messages to the list
owners (in-process over the simulated network, or over sockets).
Single-node queries do not come through here: they run the vectorized
kernels via :func:`repro.exec.run.execute_query`.

The protocol is round-structured to match the paper's algorithms: a
driver announces each parallel round (:meth:`ExecutionBackend.begin_round`)
and batches random accesses per source
(:meth:`ExecutionBackend.random_lookup_many`), which lets a networked
backend coalesce messages while a per-entry transport simply loops.
Access *accounting* is the backend's job — one tally increment per
semantic access, exactly as the metered accessors count — so driver
results carry the same tallies as the reference algorithms.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.exec.plan import (
    DirectBlock,
    DirectResult,
    Op,
    OpResult,
    ProbeBatch,
    ProbeResult,
    RoundPlan,
    SortedFetch,
    SortedResult,
)
from repro.types import AccessTally, ItemId, Position, Score


#: ``direct_step`` result: lookup scores for the bundled items, then the
#: direct-access entry — ``None`` when the source is exhausted.
DirectStep = tuple[list[Score], "tuple[ItemId, Score] | None"]


class ExecutionBackend(ABC):
    """Query-time access to ``m`` sorted sources with best positions."""

    #: Number of lists and items (set by implementations).
    m: int
    n: int
    #: Whether random lookups report positions.  BPA needs them at the
    #: originator — :func:`repro.exec.drivers.run_bpa` rejects a backend
    #: without them, since lookups would otherwise report position 0 and
    #: silently corrupt the best-position state.  BPA2 pointedly does
    #: not ship them — its communication saving.
    include_position: bool

    def begin_round(self) -> None:
        """Announce one parallel access round (accounting hook)."""

    @abstractmethod
    def sorted_next(self, list_index: int) -> tuple[ItemId, Score, Position]:
        """Sorted access: the next entry of one list."""

    @abstractmethod
    def random_lookup_many(
        self, list_index: int, items: Sequence[ItemId]
    ) -> list[tuple[Score, Position]]:
        """Random-access ``items`` in one list, in order.

        Counts one random access per item; positions are meaningful only
        when :attr:`include_position` is set (they are what BPA ships).
        """

    @abstractmethod
    def direct_step(
        self, list_index: int, items: Sequence[ItemId]
    ) -> DirectStep:
        """BPA2's per-list round step.

        Performs the pending random lookups for ``items`` (accesses that
        precede this list's direct access in the round's sequential
        order), then one direct access at ``best_position + 1``.  The
        best position is managed source-side, as the paper prescribes
        for BPA2.
        """

    def sorted_block(
        self, list_index: int, count: int
    ) -> list[tuple[ItemId, Score, Position]]:
        """Block sorted access: the next ``count`` entries of one list.

        Counts one sorted access per entry actually read — block fetches
        are an engineering fast path, not an accounting discount.  The
        caller clips ``count`` at the list end; the default simply loops
        :meth:`sorted_next`.
        """
        return [self.sorted_next(list_index) for _ in range(count)]

    def direct_block(
        self, list_index: int, items: Sequence[ItemId], count: int
    ) -> DirectResult:
        """Block direct access: pending lookups, then up to ``count``
        direct accesses, each at the source-managed best position + 1.

        Marks from each served entry may advance the best position over
        already-seen holes before the next one, exactly as ``count``
        consecutive :meth:`direct_step` calls would.  Returns the
        bundled lookup scores, the served entries (possibly fewer than
        ``count``) and whether the list exhausted.
        """
        lookups: list[Score] = []
        if items:
            lookups = [
                score for score, _pos in self.random_lookup_many(list_index, items)
            ]
        entries: list[tuple[ItemId, Score]] = []
        exhausted = False
        for _ in range(count):
            _no_lookups, entry = self.direct_step(list_index, ())
            if entry is None:
                exhausted = True
                break
            entries.append(entry)
        return DirectResult(tuple(lookups), tuple(entries), exhausted)

    # ------------------------------------------------------------------
    # Round-plan execution
    # ------------------------------------------------------------------

    def execute_plan(self, plan: RoundPlan) -> list[OpResult]:
        """Execute one round plan, op by op.

        The base implementation runs ops sequentially through the
        primitives above; transports override this to coalesce or
        pipeline a plan's messages (the ops of one plan are
        dependency-free by construction).
        """
        if plan.new_round:
            self.begin_round()
        return [self.execute_op(op) for op in plan.ops]

    def execute_op(self, op: Op) -> OpResult:
        """Execute one op through the backend primitives."""
        if isinstance(op, SortedFetch):
            if op.count == 1:
                return SortedResult((self.sorted_next(op.list_index),))
            return SortedResult(tuple(self.sorted_block(op.list_index, op.count)))
        if isinstance(op, ProbeBatch):
            return ProbeResult(
                tuple(self.random_lookup_many(op.list_index, op.items))
            )
        if isinstance(op, DirectBlock):
            if op.count == 1:
                lookups, entry = self.direct_step(op.list_index, op.items)
                return DirectResult(
                    tuple(lookups),
                    () if entry is None else (entry,),
                    entry is None,
                )
            return self.direct_block(op.list_index, op.items, op.count)
        raise TypeError(f"unknown op type: {type(op).__name__}")

    @abstractmethod
    def best_position_scores(self) -> list[Score]:
        """Local score at each list's best position (``inf`` while 0).

        These are the originator's inputs to BPA2's ``lambda``; a
        networked backend learns them from piggybacked updates.
        """

    @abstractmethod
    def best_positions(self) -> list[Position]:
        """Each list's current best position (0 before any access)."""

    @abstractmethod
    def total_tally(self) -> AccessTally:
        """Accesses performed so far, summed over the lists."""
