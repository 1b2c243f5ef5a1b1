"""A bounded, epoch-indexed log of committed mutations.

The delta-aware result cache (:class:`repro.service.cache.ResultCache`)
needs to answer one question about a cached entry written at epoch
``E``: *exactly which mutations happened between ``E`` and now?*  The
:class:`MutationLog` records every committed
:class:`repro.dynamic.MutationEvent` under the epoch it produced, keeps
only the most recent ``depth`` of them, and — crucially — knows when it
*cannot* answer: a window reaching below the retained range (the log was
truncated) or containing an epoch that was never recorded (a manual
:meth:`poison`) returns ``None``, which the cache must treat as a plain
miss.  Truncation therefore degrades to recomputation, never to a stale
serve; ``tests/unit/test_mutation_log.py`` holds the property test.

Epochs are the service's mutation counter: strictly increasing, one per
committed mutation, so the retained events are contiguous and coverage
is a pair of integer comparisons — no per-event scanning on the miss
path.  A covered window is collected from the newest event back, so it
costs the events in the window, not the events retained.
"""

from __future__ import annotations

from collections import deque

from repro.dynamic.database import MutationEvent


class MutationLog:
    """The most recent ``depth`` mutations, indexed by epoch.

    Args:
        depth: maximum number of retained events (>= 1).
        floor: the highest epoch *not* covered by the log — entries
            cached at or below it can never be delta-validated.  New
            services start at their initial epoch (0).
    """

    __slots__ = ("_depth", "_events", "_floor", "_top", "truncations")

    def __init__(self, depth: int, *, floor: int = 0) -> None:
        if depth < 1:
            raise ValueError(f"log depth must be >= 1, got {depth}")
        self._depth = depth
        #: (epoch, event) pairs in strictly increasing epoch order.
        self._events: deque[tuple[int, MutationEvent]] = deque()
        self._floor = floor
        self._top = floor
        #: how many events have been dropped to honor ``depth``.
        self.truncations = 0

    @property
    def depth(self) -> int:
        """Retention capacity in events."""
        return self._depth

    @property
    def floor(self) -> int:
        """The highest uncovered epoch: windows reaching it return ``None``."""
        return self._floor

    @property
    def top(self) -> int:
        """The most recent recorded (or poisoned) epoch."""
        return self._top

    def __len__(self) -> int:
        return len(self._events)

    def record(self, epoch: int, event: MutationEvent) -> None:
        """Append one committed mutation under its (increasing) epoch."""
        if epoch <= self._top:
            raise ValueError(
                f"epochs must be strictly increasing: got {epoch} "
                f"after {self._top}"
            )
        self._events.append((epoch, event))
        self._top = epoch
        while len(self._events) > self._depth:
            dropped_epoch, _ = self._events.popleft()
            self._floor = dropped_epoch
            self.truncations += 1

    def poison(self, epoch: int) -> None:
        """Declare every epoch up to ``epoch`` unknowable.

        Used for epoch bumps that carry no mutation record (e.g.
        :meth:`repro.service.QueryService.invalidate`): entries cached
        at or below the poisoned epoch must miss, because the log cannot
        enumerate what changed.
        """
        self._floor = max(self._floor, epoch)
        self._top = max(self._top, epoch)
        while self._events and self._events[0][0] <= self._floor:
            self._events.popleft()

    def events_between(
        self, after: int, up_to: int
    ) -> tuple[MutationEvent, ...] | None:
        """Every event with epoch in ``(after, up_to]``, oldest first.

        Returns ``None`` when the log cannot *prove* it saw the whole
        window — ``after`` sits below the retention floor, or ``up_to``
        reaches past the last recorded epoch — in which case the caller
        must fall back to a full recomputation.
        """
        if after < self._floor or up_to > self._top:
            return None
        # Newest first, stopping at ``after``: O(window), not O(depth).
        window = []
        for epoch, event in reversed(self._events):
            if epoch <= after:
                break
            if epoch <= up_to:
                window.append(event)
        window.reverse()
        return tuple(window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MutationLog {len(self._events)}/{self._depth} events, "
            f"epochs ({self._floor}, {self._top}]>"
        )
