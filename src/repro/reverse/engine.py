"""The reverse top-k engine: bounds, boundary cache, maintenance.

One engine serves one registry against one (snapshot-swapping) data
source.  A ``reverse_topk(item, k)`` query runs in three stages:

1. **Vectorized pruning** — :class:`~repro.reverse.index.RTopkIndex`
   brackets every user's k-th-best score from per-list order
   statistics; two array comparisons decide most users IN or OUT.
2. **Boundary cache** — an undecided user whose exact top-k (and its
   k-th-entry certificate) is already cached answers by membership in
   that maintained answer.
3. **Fallback** — the rest run one certified top-k each through the
   injected ``runner`` (the service's planned execution path); the
   answer is cached for next time.

Cached answers are maintained **incrementally** under the mutation
stream: each :class:`~repro.dynamic.MutationEvent` is classified per
entry by the shared :func:`repro.exec.certify.classify_delta` — the
same k-th-entry certificate reasoning the result cache and standing
subscriptions use — so a mutation that provably cannot move a user's
boundary keeps that user's entry (`unchanged`), a small exact repair
patches it in place (`patched`), and only certificate-breaking deltas
drop it (`dropped`, re-decided lazily on next touch).  Most mutations
therefore re-decide only the touched users.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import UnknownItemError
from repro.exec import certify
from repro.exec.merge import entry_key
from repro.reverse.index import RTopkIndex
from repro.reverse.registry import UserWeightRegistry
from repro.scoring import ScoringFunction
from repro.types import ItemId, ScoredItem

#: ``runner(scoring, k) -> ranked ScoredItem tuple`` — one exact,
#: certified top-k in the library's canonical ``(-score, id)`` order.
ReverseRunner = Callable[[ScoringFunction, int], Sequence[ScoredItem]]


@dataclass
class ReverseCounters:
    """Aggregate counters over an engine's lifetime."""

    queries: int = 0
    bound_in: int = 0  #: user decisions settled IN by the index bounds
    bound_out: int = 0  #: user decisions settled OUT by the index bounds
    boundary_hits: int = 0  #: undecided users answered from cached top-ks
    fallbacks: int = 0  #: undecided users that ran a fresh certified top-k
    #: per (mutation x cached entry) maintenance outcomes:
    maintenance_unchanged: int = 0
    maintenance_patched: int = 0
    maintenance_dropped: int = 0
    flushes: int = 0  #: whole-cache invalidations (poison / lost capture)


@dataclass(frozen=True)
class ReverseQueryStats:
    """How one reverse query was decided."""

    users: int  #: registered users considered
    bound_in: int
    bound_out: int
    boundary_hits: int
    fallbacks: int
    seconds: float


@dataclass(frozen=True)
class ReverseResult:
    """One reverse top-k answer: the matching users, ascending."""

    item: ItemId
    k: int
    users: tuple[str, ...]
    stats: ReverseQueryStats

    def __len__(self) -> int:
        return len(self.users)

    def __contains__(self, user: str) -> bool:
        return user in self.users


class _BoundaryEntry:
    """One user's maintained exact top-k and its certificate."""

    __slots__ = ("k", "scoring", "items", "members", "boundary", "exhaustive")

    def __init__(self, k: int, scoring, items: tuple[ScoredItem, ...]):
        self.k = k
        self.scoring = scoring
        self._install(items)

    def _install(self, items: tuple[ScoredItem, ...]) -> None:
        self.items = tuple(items)
        self.members = {entry.item: entry.score for entry in self.items}
        if len(self.items) == self.k:
            self.boundary = entry_key(self.items[-1])
            self.exhaustive = False
        else:
            # Fewer than k items exist, so the answer covers the whole
            # database — certify's exhaustive mode keeps every mutation
            # decidable without a boundary.
            self.boundary = None
            self.exhaustive = True


class ReverseTopkEngine:
    """Registry + index + boundary cache behind ``reverse_topk``.

    Args:
        registry: the user weight vectors to answer for.
        runner: executes one exact top-k (the service injects its
            planned execution path).
        patch_limit: largest touched-item count a maintenance patch may
            re-score (mirrors the result cache's knob).
        boundary_limit: maximum cached per-user boundary entries
            (LRU-evicted beyond it; ``0`` disables the cache).
    """

    def __init__(
        self,
        registry: UserWeightRegistry,
        *,
        runner: ReverseRunner,
        patch_limit: int = 8,
        boundary_limit: int = 1024,
    ) -> None:
        if patch_limit < 0:
            raise ValueError(f"patch_limit must be >= 0, got {patch_limit}")
        if boundary_limit < 0:
            raise ValueError(
                f"boundary_limit must be >= 0, got {boundary_limit}"
            )
        self._registry = registry
        self._runner = runner
        self._patch_limit = patch_limit
        self._boundary_limit = boundary_limit
        #: ``(user, registry version, k) -> _BoundaryEntry`` in LRU order.
        self._entries: OrderedDict[tuple, _BoundaryEntry] = OrderedDict()
        self._index: RTopkIndex | None = None
        self._index_token: object = None
        self.counters = ReverseCounters()

    @property
    def registry(self) -> UserWeightRegistry:
        return self._registry

    @property
    def cached_boundaries(self) -> int:
        """Live per-user boundary entries (introspection)."""
        return len(self._entries)

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def query(
        self,
        item: ItemId,
        k: int,
        *,
        database,
        token: object,
        cacheable: bool = True,
    ) -> ReverseResult:
        """Answer ``reverse_topk(item, k)`` against one snapshot.

        ``database`` is the columnar snapshot to prune against;
        ``token`` identifies it (the index rebuilds when it changes).
        ``cacheable`` gates the boundary cache: the cached entries are
        maintained to the *live* epoch, so a query served off a stale
        deferred snapshot must neither read nor seed them.
        """
        started = time.perf_counter()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if database.n == 0 or not database.has_item(item):
            raise UnknownItemError(f"item {item} is not in the database")
        entries, weights = self._registry.aligned(database.m)
        counters = self.counters
        counters.queries += 1
        if not entries:
            return ReverseResult(
                item=item,
                k=k,
                users=(),
                stats=ReverseQueryStats(
                    users=0,
                    bound_in=0,
                    bound_out=0,
                    boundary_hits=0,
                    fallbacks=0,
                    seconds=time.perf_counter() - started,
                ),
            )
        if self._index is None or self._index_token != token:
            self._index = RTopkIndex(database)
            self._index_token = token
        item_scores = np.asarray(
            database.local_scores(item), dtype=np.float64
        )
        in_mask, out_mask, _ = self._index.decide(weights, item_scores, k)
        matched = [entries[i].user for i in np.flatnonzero(in_mask)]
        boundary_hits = fallbacks = 0
        for index in np.flatnonzero(~in_mask & ~out_mask):
            user = entries[index]
            member, fallback = self._decide_exact(user, k, item, cacheable)
            if member:
                matched.append(user.user)
            boundary_hits += not fallback
            fallbacks += fallback
        bound_in = int(np.count_nonzero(in_mask))
        bound_out = int(np.count_nonzero(out_mask))
        counters.bound_in += bound_in
        counters.bound_out += bound_out
        counters.boundary_hits += boundary_hits
        counters.fallbacks += fallbacks
        matched.sort()
        return ReverseResult(
            item=item,
            k=k,
            users=tuple(matched),
            stats=ReverseQueryStats(
                users=len(entries),
                bound_in=bound_in,
                bound_out=bound_out,
                boundary_hits=boundary_hits,
                fallbacks=fallbacks,
                seconds=time.perf_counter() - started,
            ),
        )

    def _decide_exact(
        self, user, k: int, item: ItemId, cacheable: bool
    ) -> tuple[bool, bool]:
        """Membership via the user's (cached or fresh) exact top-k.

        Returns ``(is_member, was_fallback)``.
        """
        key = (user.user, user.version, k)
        entry = self._entries.get(key) if cacheable else None
        fallback = entry is None
        if fallback:
            items = tuple(self._runner(user.scoring, k))
            entry = _BoundaryEntry(k, user.scoring, items)
            if cacheable and self._boundary_limit > 0:
                self._entries[key] = entry
                while len(self._entries) > self._boundary_limit:
                    self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        # The runner and the maintenance both keep entries in the
        # canonical (-score, id) order, so plain membership is exact —
        # boundary ties resolve by ascending id, same as the oracle.
        return item in entry.members, fallback

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def on_mutation(self, event) -> None:
        """Maintain every cached boundary entry against one mutation.

        Entries the certificate proves unaffected stay; small exact
        repairs are patched in place from the event's score vector; the
        rest drop (and re-decide lazily).  An event without a score
        vector (capture was off) is unreasonable-about: flush.
        """
        if not self._entries:
            return
        if event.kind != "remove_item" and event.new_scores is None:
            self.flush()
            return
        folded = {event.item: event.new_scores}
        counters = self.counters
        for key, entry in list(self._entries.items()):
            verdict, touched = certify.classify_delta(
                entry.members,
                entry.boundary,
                (event,),
                entry.scoring,
                patch_limit=self._patch_limit,
                exhaustive=entry.exhaustive,
            )
            if verdict == certify.UNCHANGED:
                counters.maintenance_unchanged += 1
                continue
            if verdict == certify.PATCH:
                merged = certify.patch_entries(
                    entry.items,
                    touched,
                    entry.boundary,
                    entry.scoring,
                    lambda items: {i: folded.get(i) for i in items},
                    k=entry.k,
                    exhaustive=entry.exhaustive,
                )
                if merged is not None:
                    entry._install(merged)
                    counters.maintenance_patched += 1
                    continue
            del self._entries[key]
            counters.maintenance_dropped += 1

    def flush(self) -> None:
        """Drop every cached boundary entry (counters are preserved)."""
        if self._entries:
            self._entries.clear()
        self.counters.flushes += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReverseTopkEngine users={len(self._registry)} "
            f"boundaries={len(self._entries)}>"
        )
