"""Delta-aware, epoch-indexed LRU result cache keyed by query requests.

Two queries share a cache entry exactly when they make the same
*request*: same requested algorithm (``"auto"`` included), same fetched
``k`` (the planner's power-of-two bucket,
:meth:`repro.service.QueryPlanner.fetch_k`), same scoring semantics,
same algorithm options.  The key is known before any planning, so a
reuse never plans; the entry keeps the plans of the execution that
computed it (:meth:`ResultCache.put`'s ``plans``), and a reuse reports
those.  :func:`normalized_query_key` canonicalizes the four dimensions;
notably, scoring *instances* are keyed by ``(type, name, repr)`` so two
``SumScoring()`` objects share an entry while a user lambda (whose repr
embeds its id) never falsely collides with another.

**Invalidation.**  The service bumps its *epoch* on every mutation of
the underlying lists; nothing scans the cache on write, so a mutation
stays O(1) regardless of how many results are cached.  A lookup under a
newer epoch used to drop the entry unconditionally (whole-epoch
invalidation).  With a :class:`repro.dynamic.MutationLog` attached, the
cache instead *reasons* about the delta, yielding one of four outcomes
(surfaced as :attr:`ServiceStats.cache_outcome <repro.service.ServiceStats>`):

* ``hit`` — entry epoch equals the lookup epoch; nothing to prove.
* ``revalidated`` — every logged mutation in the window is provably
  harmless, so the entry is re-stamped to the current epoch *in place*.
  The certificate is the cached k-th entry under the library's total
  order (:func:`repro.exec.merge.entry_key` — the score the certified
  merge exposes as ``extras["certificate_threshold"]``, paired with the
  entry's id so exact ties stay decidable): a touched non-member whose
  new ``(-score, id)`` key falls beyond it cannot enter the top-k, a
  removed non-member cannot either, and a member whose aggregate is
  unchanged cannot move.  An answer the merge marked as underfull
  (``certificate_threshold`` present but ``None``: fewer than k items
  existed) carries no boundary at all and always misses.
* ``patched`` — at most ``patch_limit`` touched objects could affect
  the answer, and the repair is provably exact: the touched objects are
  re-scored against the current snapshot (``lookup_many``) and merged
  back into the cached pool.  The patch is kept only if the pool's new
  k-th key still dominates the old certificate — every *untouched*
  outsider was beyond the old boundary, so it stays beyond the new one.
* ``miss`` — a certificate-breaking delta (a cached member deleted, the
  patched boundary weakening past the old one, too many touched
  objects, or a log window the :class:`MutationLog` cannot prove it
  covers).  The entry is dropped and the query recomputes.

Entries are additionally indexed *by epoch*, so dropping everything
below the log's retention floor (entries that could never revalidate
again) costs O(dropped), not a scan of the table —
:meth:`ResultCache.drop_expired`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.dynamic.mutation_log import MutationLog

# The k-th-entry certificate reasoning is shared with standing
# subscriptions (:mod:`repro.watch`) through the execution core.
from repro.exec import certify

# The patch path's rescore signature is certify's; re-exported here for
# backward compatibility.
from repro.exec.certify import RescoreFn  # noqa: F401

# Canonical query/scoring identities live in the execution core so the
# planner, the totals memos and this result cache agree on them;
# re-exported here for backward compatibility.
from repro.exec.keys import (  # noqa: F401
    freeze_value,
    normalized_query_key,
    scoring_key,
)
from repro.exec.merge import entry_key
from repro.service.sharding import MERGE_EXACT_ALGORITHMS
from repro.types import Score, TopKResult

#: A lookup's classification, in decreasing order of luck.
CACHE_OUTCOMES = ("hit", "revalidated", "patched", "miss")

#: Algorithms whose returned scores are exact overall aggregates — the
#: precondition of the delta certificate.  NRA reports lower *bounds*
#: (and may order/score ties differently from the exact aggregates), so
#: comparing logged exact aggregates against its cached scores — or
#: re-merging them into its pool — would change the served answer, not
#: just its latency; NRA entries therefore expire whole-epoch.  This is
#: the same precondition as the shard merge's
#: :data:`repro.service.sharding.MERGE_EXACT_ALGORITHMS` (derived from
#: it, one source of truth), widened with the distributed drivers
#: (which run the exact unified TA/BPA/BPA2).
EXACT_SCORE_ALGORITHMS = MERGE_EXACT_ALGORITHMS | frozenset(
    {"dist-ta", "dist-bpa", "dist-bpa2"}
)


@dataclass
class CacheStats:
    """Counters describing one cache's lifetime behavior."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    revalidated: int = 0  #: delta-proven harmless, entry re-stamped in place
    patched: int = 0  #: repaired by re-scoring <= patch_limit touched items

    @property
    def reuses(self) -> int:
        """Lookups answered without re-execution (any non-miss outcome)."""
        return self.hits + self.revalidated + self.patched

    @property
    def lookups(self) -> int:
        """Total number of ``get``/``lookup`` calls."""
        return self.reuses + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when idle)."""
        return self.reuses / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class CacheLookup:
    """One lookup's verdict: the served value (or ``None``) and how."""

    value: object | None
    outcome: str  #: one of :data:`CACHE_OUTCOMES`
    #: what :meth:`ResultCache.put` stored beside the served value
    #: (``None`` on a miss)
    plans: object | None = None


class ResultCache:
    """A bounded LRU cache with delta-aware epoch expiry.

    Args:
        maxsize: maximum number of retained entries (>= 1).
        log: the service's :class:`repro.dynamic.MutationLog`; without
            one every epoch change is a plain (whole-epoch) miss.
        patch_limit: largest number of touched objects a patch may
            re-score — bigger deltas fall through to recomputation.

    **Delta-path precondition.**  A :class:`TopKResult` is only
    delta-validated when its scores are exact aggregates of a *full*
    top-k answer: the algorithm must be in
    :data:`EXACT_SCORE_ALGORITHMS`, and an answer the certified merge
    marked underfull (``extras["certificate_threshold"] is None``)
    always misses.  Callers caching results that bypass the merge must
    not cache underfull answers (:class:`repro.service.QueryService`
    guards its ``put`` accordingly) — the delta path treats the last
    cached entry as an exclusion boundary, which an underfull answer
    does not have.
    """

    __slots__ = (
        "_maxsize",
        "_entries",
        "_by_epoch",
        "_min_bucket",
        "_log",
        "_patch_limit",
        "stats",
    )

    def __init__(
        self,
        maxsize: int = 1024,
        *,
        log: MutationLog | None = None,
        patch_limit: int = 8,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        if patch_limit < 0:
            raise ValueError(f"patch_limit must be >= 0, got {patch_limit}")
        self._maxsize = maxsize
        #: key -> (epoch, value, plans); insertion order is recency order.
        self._entries: OrderedDict[tuple, tuple[int, object, object]] = (
            OrderedDict()
        )
        #: epoch -> keys cached under it (kept exactly in sync with
        #: ``_entries`` so expiry never scans the whole table).
        self._by_epoch: dict[int, set[tuple]] = {}
        #: conservative lower bound on the oldest bucket epoch (never
        #: *above* the true minimum), letting :meth:`drop_expired`
        #: answer its common no-op case in O(1).
        self._min_bucket: int | None = None
        self._log = log
        self._patch_limit = patch_limit
        self.stats = CacheStats()

    @property
    def maxsize(self) -> int:
        """Capacity in entries."""
        return self._maxsize

    @property
    def log(self) -> MutationLog | None:
        """The attached mutation log (``None`` = whole-epoch expiry)."""
        return self._log

    @property
    def patch_limit(self) -> int:
        """Largest touched-object count a patch may repair."""
        return self._patch_limit

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    # Epoch index bookkeeping
    # ------------------------------------------------------------------

    def _index_add(self, key: tuple, epoch: int) -> None:
        self._by_epoch.setdefault(epoch, set()).add(key)
        if self._min_bucket is None or epoch < self._min_bucket:
            self._min_bucket = epoch

    def _index_discard(self, key: tuple, epoch: int) -> None:
        bucket = self._by_epoch.get(epoch)
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del self._by_epoch[epoch]

    def _drop(self, key: tuple, epoch: int) -> None:
        del self._entries[key]
        self._index_discard(key, epoch)

    def drop_expired(self, min_epoch: int) -> int:
        """Drop every entry cached below ``min_epoch``; returns the count.

        Entries below the mutation log's retention floor can never be
        revalidated or patched again — the log cannot enumerate their
        delta — so the service expires them eagerly whenever the floor
        advances.  The no-op case (nothing old enough, i.e. every
        mutation once the cache is warm) is O(1) via the ``_min_bucket``
        bound; an actual purge costs O(dropped + live epoch buckets),
        independent of how many entries the cache holds (the unit
        benchmark guard in ``tests/unit/test_service_cache.py`` checks
        that).
        """
        if self._min_bucket is None or self._min_bucket >= min_epoch:
            return 0
        stale = [epoch for epoch in self._by_epoch if epoch < min_epoch]
        dropped = 0
        for epoch in stale:
            for key in self._by_epoch.pop(epoch):
                del self._entries[key]
                dropped += 1
        # The bound is exact again after a purge; lookups/evictions may
        # let it drift low afterwards, which only costs (at most) one
        # redundant bucket scan on the next purge, never correctness.
        self._min_bucket = min(self._by_epoch, default=None)
        self.stats.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def get(self, key: tuple, epoch: int):
        """The cached value, or ``None`` (legacy whole-epoch interface)."""
        return self.lookup(key, epoch).value

    def lookup(
        self,
        key: tuple,
        epoch: int,
        *,
        scoring: Callable[[Sequence[Score]], Score] | None = None,
        rescore: RescoreFn | None = None,
    ) -> CacheLookup:
        """Classify one lookup: hit, revalidated, patched, or miss.

        ``scoring`` and ``rescore`` enable the delta path; without them
        (or without an attached log) any epoch change is a miss, exactly
        the pre-delta behavior.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return CacheLookup(None, "miss")
        entry_epoch, value, plans = entry
        if entry_epoch == epoch:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return CacheLookup(value, "hit", plans)
        if entry_epoch > epoch:
            # A lookup from *behind* the entry (e.g. a deferred-snapshot
            # query) cannot use it, but the entry itself is still the
            # freshest answer — leave it alone.
            self.stats.misses += 1
            return CacheLookup(None, "miss")

        outcome, served = self._delta_outcome(
            value, entry_epoch, epoch, scoring, rescore
        )
        if outcome == "revalidated":
            self._index_discard(key, entry_epoch)
            self._index_add(key, epoch)
            self._entries[key] = (epoch, value, plans)
            self._entries.move_to_end(key)
            self.stats.revalidated += 1
            return CacheLookup(value, "revalidated", plans)
        if outcome == "patched":
            self._index_discard(key, entry_epoch)
            self._index_add(key, epoch)
            self._entries[key] = (epoch, served, plans)
            self._entries.move_to_end(key)
            self.stats.patched += 1
            return CacheLookup(served, "patched", plans)
        # The entry written under an older epoch could not be proven
        # current — drop it on sight, as whole-epoch expiry always did.
        self._drop(key, entry_epoch)
        self.stats.invalidations += 1
        self.stats.misses += 1
        return CacheLookup(None, "miss")

    def put(
        self, key: tuple, value: object, epoch: int, plans: object = None
    ) -> None:
        """Insert (or refresh) an entry under the given epoch.

        ``plans`` rides along with the value, unread by the cache: every
        reuse of the entry (hit, revalidated or patched) hands it back as
        :attr:`CacheLookup.plans`.
        """
        previous = self._entries.get(key)
        if previous is not None:
            self._index_discard(key, previous[0])
        self._entries[key] = (epoch, value, plans)
        self._entries.move_to_end(key)
        self._index_add(key, epoch)
        while len(self._entries) > self._maxsize:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._index_discard(evicted_key, evicted[0])
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        self._entries.clear()
        self._by_epoch.clear()
        self._min_bucket = None

    def keys(self) -> Sequence[tuple]:
        """Current keys, least-recently used first (for introspection)."""
        return tuple(self._entries)

    def entry_epoch(self, key: tuple) -> int | None:
        """The epoch a key is cached under (``None`` when absent)."""
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    # ------------------------------------------------------------------
    # The delta certificate
    # ------------------------------------------------------------------

    def _delta_outcome(
        self,
        value: object,
        entry_epoch: int,
        epoch: int,
        scoring: Callable[[Sequence[Score]], Score] | None,
        rescore: RescoreFn | None,
    ) -> tuple[str, object | None]:
        """Classify an out-of-epoch entry against the logged delta."""
        if (
            self._log is None
            or scoring is None
            or not isinstance(value, TopKResult)
            or not value.items
        ):
            return "miss", None
        if value.algorithm not in EXACT_SCORE_ALGORITHMS:
            # The certificate compares logged exact aggregates against
            # the cached scores, so it is only sound when those scores
            # *are* exact aggregates — NRA's are lower bounds; unknown
            # algorithms get the safe treatment (whole-epoch expiry).
            return "miss", None
        if value.extras.get("certificate_threshold", False) is None:
            # The certified merge explicitly marked this answer as
            # underfull (fewer than k items existed): its last entry is
            # not an exclusion boundary, so nothing can be proven.
            return "miss", None
        events = self._log.events_between(entry_epoch, epoch)
        if events is None:
            # Truncated or poisoned window: the log cannot enumerate
            # what changed, so the only safe answer is a recomputation.
            return "miss", None

        # The shared certificate core (also driving standing
        # subscriptions — see :mod:`repro.watch`) does the reasoning;
        # this cache maps its verdicts onto cache outcomes:
        # unchanged -> revalidated, patch -> patched, recompute -> miss.
        members = {item.item: item.score for item in value.items}
        boundary = entry_key(value.items[-1])
        verdict, touched = certify.classify_delta(
            members,
            boundary,
            events,
            scoring,
            patch_limit=self._patch_limit,
        )
        if verdict == certify.UNCHANGED:
            return "revalidated", value
        if verdict != certify.PATCH or rescore is None:
            return "miss", None
        merged = certify.patch_entries(
            value.items,
            touched,
            boundary,
            scoring,
            rescore,
            k=len(value.items),
        )
        if merged is None:
            return "miss", None
        patched = replace(
            value,
            items=merged,
            extras={
                **value.extras,
                "certificate_threshold": merged[-1].score,
                "patched_items": len(touched)
                + value.extras.get("patched_items", 0),
            },
        )
        return "patched", patched

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache {len(self._entries)}/{self._maxsize} entries, "
            f"hit_rate={self.stats.hit_rate:.2f}>"
        )
