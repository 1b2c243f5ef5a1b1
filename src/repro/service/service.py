"""The embeddable query-service front-end.

:class:`QueryService` glues the three mechanisms of this package into
one submit path::

    cache lookup -> plan (on a miss) -> shard fan-out -> merge -> truncate
    (epoch-checked LRU) (planner)       (ShardExecutor)   (exact) (k-overfetch)

Every query executes on the shard pool; running a query over list
owners is :mod:`repro.distributed`'s job.  The cache is keyed by the
*request* (requested algorithm, bucketed ``k``, scoring, options), so a
reused answer is served without planning; its entry keeps the plan that
computed it.  Every answer comes with a :class:`ServiceStats` record:
that plan, whether the cache answered, the shard fan-out, the exact
access tallies the execution performed, and the wall-clock latency.

**Serving over mutable data.**  A service built from a
:class:`repro.dynamic.DynamicDatabase` subscribes to its mutation
stream: every update bumps the service *epoch* and is recorded in a
bounded :class:`repro.dynamic.MutationLog`, and the columnar snapshot
plus shard partitions are rebuilt on the next query — a mutation costs
one O(m log n) score capture (the post-state of a single-list change
is derived from the pre-state) plus an O(1) log append, never a cache
scan, and queries pay the snapshot refresh only when data actually
changed.  Cached results are *not* dropped wholesale: on lookup the
cache consults the log and serves entries whose certificate proves the
delta harmless (``revalidated``) or repairable by re-scoring a handful
of touched items (``patched``); see :mod:`repro.service.cache`.  Every
answer's :class:`ServiceStats` names its ``cache_outcome``.
"""

from __future__ import annotations

import asyncio
import time
import weakref
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from repro.columnar import ColumnarDatabase, ColumnarList, patch_database
from repro.dynamic import DynamicDatabase, MutationLog
from repro.exec.keys import QuerySpec
from repro.service.cache import ResultCache, normalized_query_key
from repro.service.planner import (
    PlanDecision,
    QueryPlanner,
    ServicePolicy,
    ShardDecision,
)
from repro.service.sharding import ShardExecutor, resolve_pool
from repro.types import AccessTally, CostModel, ItemId, Score, TopKResult


@dataclass(frozen=True)
class ServiceStats:
    """Per-query service telemetry."""

    #: the plan that computed the answer; a reuse reports its entry's
    #: plan with this query's own ``k_requested``
    plan: PlanDecision
    cache_hit: bool
    epoch: int  #: data epoch the answer was computed (or cached) under
    fanout: int  #: shards the execution fanned out to (1 on a cache hit)
    tally: AccessTally  #: accesses performed (zero on a cache hit)
    seconds: float  #: end-to-end latency of this submit
    planned_shards: int = 1  #: shard count the service executes with
    #: the query reused a result another in-flight ``submit_async`` was
    #: already computing (single-flight coalescing; counts as a hit)
    coalesced: bool = False
    #: the AIMD controller's concurrency window when this query started
    #: executing (0: not admitted through a controller — serial submits,
    #: cache hits, coalesced waits and semaphore-gated submits)
    concurrency_window: int = 0
    #: how the result cache answered: ``"hit"`` (same epoch),
    #: ``"revalidated"`` (delta proven harmless), ``"patched"`` (touched
    #: items re-scored and re-merged), or ``"miss"`` (executed fresh;
    #: coalesced reuses of an in-flight execution also report ``"hit"``).
    cache_outcome: str = "miss"


class AdaptiveConcurrency:
    """AIMD admission control for :meth:`QueryService.gather_many`.

    Classic additive-increase / multiplicative-decrease, fed by the
    observed per-query execution latency: every completion below
    ``threshold`` times the exponentially-weighted latency baseline
    grows the window by ``increase / window`` (``increase`` additive
    steps per window's worth of acks); a completion above it multiplies
    the window by ``backoff``.  The window starts at half the ceiling
    (at least 2) and probes from there — the service finds its own
    concurrency instead of trusting a caller's fixed semaphore — and is
    always clamped to ``[min_window, max_window]``.

    The controller is an asyncio admission gate: :meth:`acquire` parks
    callers while ``in_flight >= window``; :meth:`release` records the
    latency, adapts the window and wakes exactly as many waiters as the
    new window admits.
    """

    def __init__(
        self,
        max_window: int,
        *,
        min_window: int = 1,
        start: int | None = None,
        increase: float = 2.0,
        backoff: float = 0.5,
        threshold: float = 2.0,
        smoothing: float = 0.2,
    ) -> None:
        if max_window < 1:
            raise ValueError(f"max_window must be >= 1, got {max_window}")
        if not 1 <= min_window <= max_window:
            raise ValueError(
                f"min_window must be in 1..{max_window}, got {min_window}"
            )
        if not 0.0 < backoff < 1.0:
            raise ValueError(f"backoff must be in (0, 1), got {backoff}")
        self._max = max_window
        self._min = min_window
        if start is None:
            # Half the ceiling: short bursts are not starved by a cold
            # start, while a latency spike still halves the window on
            # the very first congested completion.
            start = max(2, max_window // 2)
        self._window = float(min(max_window, max(min_window, start)))
        self._increase = increase
        self._backoff = backoff
        self._threshold = threshold
        self._smoothing = smoothing
        self._baseline: float | None = None  #: EWMA of observed latency
        self._in_flight = 0
        self._waiters: list[asyncio.Future] = []

    @property
    def window(self) -> int:
        """The current admission window (whole queries)."""
        return max(self._min, int(self._window))

    @property
    def in_flight(self) -> int:
        """Executions currently admitted."""
        return self._in_flight

    @property
    def baseline_seconds(self) -> float | None:
        """The latency baseline (``None`` before the first completion)."""
        return self._baseline

    async def acquire(self) -> None:
        """Wait for an admission slot."""
        while self._in_flight >= self.window:
            waiter: asyncio.Future = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                if waiter in self._waiters:
                    self._waiters.remove(waiter)
                self._wake()  # pass the slot along instead of losing it
                raise
        self._in_flight += 1

    def release(self, latency: float) -> None:
        """Record one completion's latency and adapt the window."""
        self._in_flight -= 1
        if self._baseline is None:
            self._baseline = latency
        if latency > self._threshold * self._baseline:
            # Congestion: this query ran far slower than the baseline —
            # shrink multiplicatively and let the baseline drift up
            # toward what the service actually sustains.
            self._window = max(float(self._min), self._window * self._backoff)
        else:
            self._window = min(
                float(self._max),
                self._window + self._increase / max(1.0, self._window),
            )
        alpha = self._smoothing
        self._baseline = (1.0 - alpha) * self._baseline + alpha * latency
        self._wake()

    def _wake(self) -> None:
        # Woken tasks re-check the window before admitting themselves
        # (their acquire loop), so waking a few too many under racing
        # releases is safe — they simply park again.
        available = self.window - self._in_flight
        while self._waiters and available > 0:
            waiter = self._waiters.pop(0)
            if not waiter.done():
                waiter.set_result(None)
                available -= 1


@dataclass(frozen=True)
class ServiceResult:
    """A served top-k answer plus its service telemetry."""

    result: TopKResult
    stats: ServiceStats

    @property
    def items(self):
        """The served top-k entries, best first."""
        return self.result.items

    @property
    def item_ids(self) -> tuple[ItemId, ...]:
        """The served item ids, best first."""
        return self.result.item_ids

    @property
    def scores(self) -> tuple[Score, ...]:
        """The served overall scores, best first."""
        return self.result.scores


@dataclass
class ServiceCounters:
    """Aggregate counters over a service's lifetime."""

    queries: int = 0
    cache_hits: int = 0  #: cache reuses of any kind plus coalesced reuses
    executions: int = 0
    snapshot_refreshes: int = 0
    #: refreshes served by delta-patching the previous snapshot in place
    #: (a subset of ``snapshot_refreshes``; the rest cold-rebuilt).
    snapshot_patches: int = 0
    coalesced: int = 0  #: async submits that joined an in-flight execution
    revalidated: int = 0  #: cache entries delta-proven current in place
    patched: int = 0  #: cache entries repaired by re-scoring touched items
    #: queries answered with the canonical empty result because every
    #: item had been removed — neither a cache reuse nor an execution.
    empty_serves: int = 0
    # Standing-query maintenance (per mutation x live subscription; see
    # :meth:`QueryService.watch` and :mod:`repro.watch`):
    watch_unchanged: int = 0  #: certificate proved the answer unaffected
    watch_patched: int = 0  #: answers repaired in place from event scores
    watch_recomputed: int = 0  #: answers re-planned through submit
    watch_deltas: int = 0  #: deltas pushed (visible changes only)
    # Adaptive planning (populated only with ``ServicePolicy.adaptive``):
    drift_epochs: int = 0  #: workload-drift epochs declared
    replans: int = 0  #: calibrated selections that changed the incumbent

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of submits answered from the cache."""
        return self.cache_hits / self.queries if self.queries else 0.0


def _snapshot_dynamic(source: DynamicDatabase) -> ColumnarDatabase:
    """A columnar snapshot of a dynamic database's current state."""
    return ColumnarDatabase(
        [
            ColumnarList.from_arrays(
                np.array(lst.items(), dtype=np.int64),
                np.array(lst.scores(), dtype=np.float64),
                name=lst.name,
            )
            for lst in source.lists
        ]
    )


class QueryService:
    """An embeddable sharded top-k query service.

    Args:
        database: the data to serve — a :class:`Database`, a
            :class:`ColumnarDatabase`, or a :class:`DynamicDatabase`.
            A dynamic database is snapshotted and *watched*: every
            mutation bumps the service epoch (dropping stale cache
            entries lazily) and the snapshot is rebuilt on the next
            submit.
        shards: shard fan-out (clamped to the item count), or
            ``"auto"`` to let the planner pick the count minimizing its
            predicted per-query cost for this host's pool and CPU
            budget (re-decided on every snapshot rebuild; the decision
            is exposed as :attr:`shard_decision` and in every
            :class:`ServiceStats`).
        pool: shard execution pool — ``"serial"`` / ``"thread"`` /
            ``"process"`` / ``"auto"`` (see
            :class:`repro.service.sharding.ShardExecutor`).
        cache_size: LRU capacity; ``0`` disables the result cache.
        policy: planning policy (:class:`ServicePolicy`).
        cost_model: cost model for the planner's predictions (defaults
            to the paper's ``cs=1, cr=log2 n``).
        snapshot: a pre-built columnar snapshot of a *dynamic*
            ``database``'s current state, standing in for the
            construction-time cold build (the warm-restart path; see
            :meth:`from_snapshot`).
    """

    def __init__(
        self,
        database,
        *,
        shards: int | str = 1,
        pool: str = "auto",
        cache_size: int = 1024,
        policy: ServicePolicy | None = None,
        cost_model: CostModel | None = None,
        snapshot: ColumnarDatabase | None = None,
    ) -> None:
        if shards != "auto" and (not isinstance(shards, int) or shards < 1):
            raise ValueError(
                f"shards must be a positive int or 'auto', got {shards!r}"
            )
        knobs = policy if policy is not None else ServicePolicy()
        self._knobs = knobs
        self._source: DynamicDatabase | None = None
        self._unsubscribe = None
        #: per-epoch mutation record enabling partial cache reuse and
        #: in-place snapshot patching; only a dynamic source produces
        #: deltas worth logging.
        self._log: MutationLog | None = None
        if isinstance(database, DynamicDatabase):
            self._source = database
            wants_log = cache_size > 0 or knobs.snapshot_patch_budget > 0
            if wants_log and knobs.delta_log_depth > 0:
                self._log = MutationLog(knobs.delta_log_depth)
            # Subscribe through a weakref so an un-closed service is not
            # kept alive (pools and all) by the database's subscriber
            # list; a dead service's callback is simply a no-op.  Score
            # vectors are requested only when a delta log consumes them
            # — a log-less service just counts epochs, and its mutations
            # keep the bare O(log n) cost.
            self_ref = weakref.ref(self)

            def _forward(event, _ref=self_ref):
                service = _ref()
                if service is not None:
                    service._on_mutation(event)

            self._unsubscribe = database.subscribe(
                _forward, with_scores=self._log is not None
            )
            # A caller-provided snapshot (the warm-restart path) stands
            # in for the cold build; the caller certifies it matches the
            # source's current state.
            database = (
                snapshot if snapshot is not None
                else _snapshot_dynamic(database)
            )
        elif snapshot is not None:
            raise ValueError(
                "snapshot= is only meaningful with a DynamicDatabase source"
            )
        self._shards_requested = shards
        self._pool = pool
        self._policy = policy
        self._cost_model = cost_model
        #: the adaptive control loop's state (feedback store, drift
        #: detector); survives snapshot rebuilds.
        self._adaptive = None
        if knobs.adaptive:
            from repro.service.feedback import AdaptiveState

            self._adaptive = AdaptiveState.from_policy(knobs)
        self._epoch = 0
        #: the epoch the current snapshot was built at (== ``_epoch``
        #: except while a rebuild is pending or deferred).  Cache
        #: entries are always keyed to it: it names the data an
        #: execution actually read, even when ``_epoch`` moves mid-query.
        self._snapshot_epoch = 0
        self._dirty = False
        self._cache = (
            ResultCache(
                cache_size,
                log=self._log,
                patch_limit=knobs.delta_patch_limit,
            )
            if cache_size > 0
            else None
        )
        self.counters = ServiceCounters()
        self._executor: ShardExecutor | None = None
        self._planner: QueryPlanner | None = None
        self._shard_decision: ShardDecision | None = None
        #: normalized query key -> future of the in-flight execution
        #: (submit_async single-flight coalescing; cache-enabled only).
        self._inflight: dict[tuple, asyncio.Future] = {}
        #: every in-flight async execution, for snapshot quiescing.
        self._running: set[asyncio.Future] = set()
        #: standing-query manager (:meth:`watch`), created on first use.
        self._watch = None
        #: release function for a forced score-capture retain (set when
        #: the first watch registers on a log-less service).
        self._retain_scores = None
        #: reverse top-k state (:meth:`submit_reverse`), created on
        #: first use: the user weight registry, the pruning engine and
        #: — on a log-less dynamic source — its score-capture retain.
        self._reverse_registry = None
        self._reverse = None
        self._reverse_retain = None
        self._closed = False
        self._rebuild(database)

    def _rebuild(self, database) -> None:
        if not isinstance(database, ColumnarDatabase):
            database = ColumnarDatabase.from_database(database)
        # The planner comes first: with ``shards="auto"`` its cost model
        # decides how the executor partitions this snapshot.  The
        # feedback store outlives planners: a snapshot refresh must not
        # forget what the service has learned.
        self._planner = QueryPlanner(
            database,
            policy=self._policy,
            cost_model=self._cost_model,
            feedback=(
                self._adaptive.feedback if self._adaptive is not None else None
            ),
        )
        if (
            self._adaptive is not None
            and self._adaptive.overfetch_override is not None
        ):
            self._planner.set_overfetch_override(
                self._adaptive.overfetch_override
            )
        shards = self._shards_requested
        if shards == "auto":
            self._shard_decision = self._planner.choose_shard_count(
                pool=resolve_pool(self._pool)
            )
            shards = self._shard_decision.shards
        if self._executor is None:
            self._executor = ShardExecutor(
                database, shards=shards, pool=self._pool
            )
        else:
            # Keep pools (and their worker processes) warm across
            # snapshots; only the shard data is replaced.
            self._executor.reload(database, shards=shards)
        self._snapshot_epoch = self._epoch
        self._dirty = False

    def _refresh(self) -> None:
        """Bring the snapshot to the current epoch: patch, else rebuild.

        When the mutation log can prove exactly what happened since the
        snapshot's epoch and the net delta fits the policy's patch
        budget, the successor snapshot is derived in place from the
        previous one (:func:`repro.columnar.patch_database`) — paying
        per *touched* item instead of per epoch.  An unprovable window
        (log truncated or poisoned), a too-wide delta, or a disabled
        budget falls back to the cold rebuild from the dynamic source.
        """
        patched = None
        budget = self._knobs.snapshot_patch_budget
        if self._log is not None and budget > 0:
            window = self._log.events_between(self._snapshot_epoch, self._epoch)
            if window is not None:
                patched = patch_database(
                    self._executor.database, window, budget=budget
                )
        if patched is not None:
            self._rebuild(patched)
            self.counters.snapshot_patches += 1
        else:
            self._rebuild(_snapshot_dynamic(self._source))
        self.counters.snapshot_refreshes += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of served items (as of the current snapshot)."""
        return self._executor.database.n

    @property
    def m(self) -> int:
        """Number of lists."""
        return self._executor.database.m

    @property
    def shards(self) -> int:
        """Effective shard count."""
        return self._executor.shards

    @property
    def pool_kind(self) -> str:
        """The resolved execution pool kind."""
        return self._executor.pool_kind

    @property
    def epoch(self) -> int:
        """The current data epoch; mutations bump it."""
        return self._epoch

    @property
    def cache(self) -> ResultCache | None:
        """The result cache (``None`` when disabled)."""
        return self._cache

    @property
    def mutation_log(self) -> MutationLog | None:
        """The delta log backing partial cache reuse (``None`` when off)."""
        return self._log

    @property
    def planner(self) -> QueryPlanner:
        """The active planner (rebuilt with each snapshot)."""
        return self._planner

    @property
    def shard_decision(self) -> ShardDecision | None:
        """The auto-tuner's verdict (``None`` when shards were fixed)."""
        return self._shard_decision

    @property
    def adaptive_state(self):
        """The control loop's state (``None`` unless policy.adaptive)."""
        return self._adaptive

    # ------------------------------------------------------------------
    # Epoch management
    # ------------------------------------------------------------------

    def _on_mutation(self, event) -> None:
        self._epoch += 1
        self._dirty = True
        if self._log is not None:
            self._log.record(self._epoch, event)
            if self._cache is not None:
                # Entries that fell below the log's retention floor can
                # never be delta-validated again — expire them eagerly
                # (O(dropped), thanks to the cache's epoch index).
                self._cache.drop_expired(self._log.floor)
        if self._watch is not None:
            # After the log record: a subscription forced to recompute
            # re-enters submit, whose cache lookup must see this event.
            self._watch.on_mutation(event, self._epoch)
        if self._reverse is not None:
            # Per-user boundary entries are maintained eagerly from the
            # event's score vectors (the shared certify reasoning), so
            # most mutations re-decide only the users they touch.
            self._reverse.on_mutation(event)

    def invalidate(self) -> None:
        """Manually bump the epoch: every cached result becomes stale.

        The bump carries no mutation record, so the delta log (when
        present) is poisoned up to the new epoch — older entries *miss*
        rather than revalidate against a window the log cannot prove.

        Note this drops *results*, not data — a service over a static
        database keeps serving the snapshot taken at construction (the
        static backends are immutable, so there is nothing newer to
        read).  To serve data that changes, build the service from a
        :class:`DynamicDatabase`, whose mutations both bump the epoch
        and mark the snapshot for rebuild.
        """
        self._epoch += 1
        if self._log is not None:
            self._log.poison(self._epoch)
            if self._cache is not None:
                # Everything below the poisoned floor is permanently
                # dead (it can never revalidate); reclaim it now rather
                # than pinning it until lookup or eviction.
                self._cache.drop_expired(self._log.floor)
        if self._source is not None:
            self._dirty = True
        else:
            # Nothing to rebuild: the snapshot *is* current, and keying
            # future results to the new epoch is what expires old ones.
            self._snapshot_epoch = self._epoch
        if self._watch is not None:
            # No event record to classify against: every standing query
            # recomputes (pushing only if its answer visibly moved).
            self._watch.on_invalidate(self._epoch)
        if self._reverse is not None:
            # Same reasoning: no event to classify, so every cached
            # per-user boundary is unprovable — drop them all.
            self._reverse.flush()

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def _execute_plan(self, plan: PlanDecision, spec: QuerySpec) -> TopKResult:
        """Run one planned query on the shard pool.

        With adaptive mode on, every execution (this thread or a
        ``submit_async`` worker) is timed and folded into its arm of the
        feedback store.
        """
        started = time.perf_counter()
        result = self._executor.run(
            plan.algorithm, spec.options, plan.k_fetch, spec.scoring
        )
        if self._adaptive is not None:
            from repro.service.feedback import plan_signature

            feedback = self._adaptive.feedback
            feedback.record(
                algorithm=plan.algorithm,
                signature=plan_signature(spec.scoring, plan.k_fetch),
                predicted_cost=float(
                    plan.predicted_costs.get(plan.algorithm, 0.0)
                ),
                seconds=time.perf_counter() - started,
            )
            self.counters.replans = feedback.replans
        return result

    def _observe_drift(self, spec: QuerySpec, plan: PlanDecision) -> None:
        """Stream one query into the drift detector; re-tune on an epoch.

        Keys use the *requested* shape (``spec.algorithm``, which stays
        ``"auto"`` across exploration) so adaptation's own algorithm
        churn never reads as workload drift.  On a drift epoch: plans
        are invalidated, cache overfetch is re-tuned to the window's
        key-repetition profile, and — with ``shards="auto"`` and no
        in-flight executions pinning the pools — the shard count is
        re-chosen for the new regime's median ``k``.
        """
        adaptive = self._adaptive
        drift = adaptive.drift
        key = drift.bucket(spec.algorithm, plan.k_requested, spec.scoring)
        if not drift.observe(key, k=plan.k_requested):
            return
        self.counters.drift_epochs += 1
        adaptive.feedback.invalidate()
        # A narrow repeating window hits the cache on exact keys anyway
        # — overfetch only inflates its cold fetches, so turn it off;
        # diverse windows keep the policy default (shared pow2 buckets).
        override = False if drift.distinct_ratio <= 0.5 else None
        adaptive.overfetch_override = override
        self._planner.set_overfetch_override(override)
        if self._shards_requested == "auto" and not self._running:
            ks = sorted(drift.recent_k) or [plan.k_requested]
            median_k = ks[len(ks) // 2]
            decision = self._planner.choose_shard_count(
                pool=resolve_pool(self._pool), k=median_k
            )
            if decision.shards != self._executor.shards:
                self._shard_decision = decision
                self._executor.reload(
                    self._executor.database, shards=decision.shards
                )

    def _rescore(
        self, items: Sequence[ItemId]
    ) -> Mapping[ItemId, tuple[Score, ...] | None]:
        """Current per-list local scores of ``items`` (``None`` = absent).

        Batched random access (``lookup_many``) against the live
        snapshot — the cache's patch path re-scores the few touched
        objects through this instead of re-running the query.
        """
        database = self._executor.database
        present = [item for item in items if database.has_item(item)]
        scores: dict[ItemId, tuple[Score, ...] | None] = {
            item: None for item in items
        }
        if present:
            wanted = np.asarray(present, dtype=np.int64)
            columns = [lst.lookup_many(wanted)[0] for lst in database.lists]
            for row, item in enumerate(present):
                scores[item] = tuple(
                    float(column[row]) for column in columns
                )
        return scores

    def _package(
        self,
        plan: PlanDecision,
        full: TopKResult,
        started: float,
        epoch: int,
        *,
        outcome: str,
        coalesced: bool = False,
        window: int = 0,
    ) -> ServiceResult:
        served = self._truncate(full, plan)
        reused = outcome != "miss" or coalesced
        stats = ServiceStats(
            plan=plan,
            cache_hit=reused,
            epoch=epoch,
            fanout=1 if reused else int(full.extras.get("shards", 1)),
            tally=AccessTally() if reused else full.tally.copy(),
            seconds=time.perf_counter() - started,
            planned_shards=self.shards,
            coalesced=coalesced,
            concurrency_window=window,
            cache_outcome="hit" if coalesced else outcome,
        )
        self.counters.queries += 1
        self.counters.cache_hits += reused
        self.counters.executions += not reused
        self.counters.coalesced += coalesced
        self.counters.revalidated += outcome == "revalidated"
        self.counters.patched += outcome == "patched"
        return ServiceResult(result=served, stats=stats)

    def _request_key(self, spec: QuerySpec) -> tuple:
        """The result-cache key of ``spec``: the request, not its plan.

        The requested algorithm (``"auto"`` stays ``"auto"``), the
        ``k_fetch`` any plan of it executes, the scoring semantics and
        the options — all known without planning.
        """
        return normalized_query_key(
            spec.algorithm,
            self._planner.fetch_k(spec, cache_enabled=True),
            spec.scoring,
            spec.options,
        )

    @staticmethod
    def _reuse_plan(plans: dict, k_requested: int) -> PlanDecision:
        """The plan a reuse reports: its entry's plan, at its own k.

        ``plans`` is the entry's ``{k_requested: PlanDecision}`` memo,
        seeded with the plan that computed it; each further
        ``k_requested`` is derived once and kept, so a reuse costs one
        dict lookup.
        """
        plan = plans.get(k_requested)
        if plan is None:
            plan = replace(next(iter(plans.values())), k_requested=k_requested)
            plans[k_requested] = plan
        return plan

    def submit(self, spec: QuerySpec) -> ServiceResult:
        """Answer one query: reuse a cached answer, or plan, execute, merge."""
        if self._closed:
            raise RuntimeError("service is closed")
        started = time.perf_counter()
        deferred = False
        if self._dirty and self._source is not None:
            if self._running:
                # In-flight ``submit_async`` executions pin the current
                # snapshot (the executor's pools cannot be reloaded
                # mid-query), so this query serves the pinned snapshot
                # and leaves the rebuild to the next submit after the
                # flights drain — the async path quiesces the same way.
                deferred = True
            else:
                self._refresh()

        n = self.n
        if n == 0:
            # Every item was removed from the source: "all items, ranked"
            # is the empty answer, not a planning error (the caller's k
            # was valid; the data is just gone for now).
            return self._serve_empty(spec, started)

        # Cache entries are keyed to the *snapshot* epoch — the data the
        # execution actually reads.  A mutation landing mid-query bumps
        # ``self._epoch`` but not the snapshot, so the entry stays
        # honest: the next lookup sees the gap and delta-validates (or
        # misses) through the mutation log instead of serving stale data
        # as fresh.  A deferred rebuild serves data whose epoch already
        # passed, so the cache is bypassed entirely for that query.
        epoch = self._snapshot_epoch
        caching = self._cache is not None and not deferred
        if caching:
            key = self._request_key(spec)
            looked = self._cache.lookup(
                key, epoch, scoring=spec.scoring, rescore=self._rescore
            )
            if looked.value is not None:
                plan = self._reuse_plan(looked.plans, min(spec.k, n))
                if self._adaptive is not None:
                    self._observe_drift(spec, plan)
                return self._package(
                    plan, looked.value, started, epoch, outcome=looked.outcome
                )
        plan = self._planner.plan(spec, cache_enabled=caching)
        if self._adaptive is not None:
            self._observe_drift(spec, plan)
        full = self._execute_plan(plan, spec)
        # An underfull answer (fewer items than planned — impossible
        # today, the planner clamps k to n, but cheap to guard) has no
        # exclusion boundary for the delta certificate: never cache one.
        if caching and len(full.items) == plan.k_fetch:
            self._cache.put(key, full, epoch, {plan.k_requested: plan})
        return self._package(plan, full, started, epoch, outcome="miss")

    def submit_many(self, specs: Sequence[QuerySpec]) -> list[ServiceResult]:
        """Answer a batch of queries in order (empty batch -> empty list)."""
        return [self.submit(spec) for spec in specs]

    # ------------------------------------------------------------------
    # Async query path
    # ------------------------------------------------------------------

    async def submit_async(
        self,
        spec: QuerySpec,
        *,
        semaphore: asyncio.Semaphore | None = None,
        limiter: AdaptiveConcurrency | None = None,
    ) -> ServiceResult:
        """Answer one query without blocking the event loop.

        Cache lookups run inline on the loop, and so does planning on a
        miss (after a snapshot patch it walks a cold first-seen prefix,
        so it can take far longer than a lookup).  Execution is
        offloaded to a worker thread, gated by ``semaphore`` when given,
        or admitted through ``limiter`` — the AIMD controller
        :meth:`gather_many` shares across a replay, which also feeds it
        the observed execution latency and stamps the admission window
        into :attr:`ServiceStats.concurrency_window`.  With the result
        cache enabled, identical requests in flight are *coalesced*: the
        first submit plans and executes, the rest await the same future,
        report its plan at their own ``k`` and count as cache hits — so a
        concurrent replay performs exactly the executions (and reports
        the hit counts) of a serial one, which
        ``tests/integration/test_service_async.py`` asserts.  With the
        cache disabled every submit executes, matching the serial
        cache-off path's accounting.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        started = time.perf_counter()
        if self._dirty and self._source is not None:
            # Quiesce in-flight executions before swapping the snapshot:
            # the executor's pools cannot be reloaded mid-query.
            while self._running:
                await asyncio.gather(
                    *(asyncio.shield(f) for f in list(self._running)),
                    return_exceptions=True,
                )
            if self._dirty:
                self._refresh()

        n = self.n
        if n == 0:
            return self._serve_empty(spec, started)

        caching = self._cache is not None
        # The execution reads the current snapshot, so its result — and
        # any cache entry holding it — is keyed to the *snapshot* epoch.
        # A mutation landing mid-flight bumps ``self._epoch`` but not
        # the snapshot; the entry stays keyed to the data it was
        # computed from, and the next lookup delta-validates (or
        # misses) across the gap through the mutation log.
        epoch = self._snapshot_epoch
        if caching:
            key = self._request_key(spec)
            while True:
                looked = self._cache.lookup(
                    key, epoch, scoring=spec.scoring, rescore=self._rescore
                )
                if looked.value is not None:
                    plan = self._reuse_plan(looked.plans, min(spec.k, n))
                    if self._adaptive is not None:
                        self._observe_drift(spec, plan)
                    return self._package(
                        plan,
                        looked.value,
                        started,
                        epoch,
                        outcome=looked.outcome,
                    )
                pending = self._inflight.get(key)
                if pending is None:
                    break
                try:
                    full, plans = await asyncio.shield(pending)
                except asyncio.CancelledError:
                    if not pending.cancelled():
                        raise  # our own cancellation, not the owner's
                    # The executing owner was cancelled.  If this task
                    # was cancelled too (e.g. the whole gather is being
                    # torn down), honor that instead of retrying;
                    # otherwise retry, possibly becoming the new owner.
                    # (Task.cancelling is 3.11+; on 3.10 a simultaneous
                    # cancel falls back to the retry.)
                    cancelling = getattr(
                        asyncio.current_task(), "cancelling", None
                    )
                    if cancelling is not None and cancelling() > 0:
                        raise
                    continue
                # The owner's plan, at this waiter's own k.
                plan = self._reuse_plan(plans, min(spec.k, n))
                if self._adaptive is not None:
                    self._observe_drift(spec, plan)
                return self._package(
                    plan, full, started, epoch, outcome="miss", coalesced=True
                )

        plan = self._planner.plan(spec, cache_enabled=caching)
        if self._adaptive is not None:
            self._observe_drift(spec, plan)
        plans = {plan.k_requested: plan}
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        if caching:
            self._inflight[key] = future
        self._running.add(future)
        window = 0
        try:
            if limiter is not None:
                await limiter.acquire()
                window = limiter.window
                admitted = time.perf_counter()
                try:
                    full = await asyncio.to_thread(
                        self._execute_plan, plan, spec
                    )
                finally:
                    limiter.release(time.perf_counter() - admitted)
            elif semaphore is None:
                full = await asyncio.to_thread(self._execute_plan, plan, spec)
            else:
                async with semaphore:
                    full = await asyncio.to_thread(self._execute_plan, plan, spec)
        except asyncio.CancelledError:
            # Cancel (don't poison) the shared future: coalesced waiters
            # see a cancelled owner and re-execute themselves.
            future.cancel()
            raise
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # consume; waiters re-raise their own copy
            raise
        finally:
            if caching:
                self._inflight.pop(key, None)
            self._running.discard(future)
        future.set_result((full, plans))
        # Underfull answers carry no certificate boundary; see submit().
        if caching and len(full.items) == plan.k_fetch:
            self._cache.put(key, full, epoch, plans)
        return self._package(
            plan, full, started, epoch, outcome="miss", window=window
        )

    async def gather_many(
        self,
        specs: Sequence[QuerySpec],
        *,
        concurrency: int = 8,
    ) -> list[ServiceResult]:
        """Answer a batch concurrently; results come back in spec order.

        Admission is adaptive: an :class:`AdaptiveConcurrency`
        controller starts at half the ceiling and AIMD-tunes the window
        from each execution's observed latency, with ``concurrency`` as
        the ceiling; every executed query's :class:`ServiceStats` records
        the window it was admitted under.  Cache hits and coalesced
        waits are never throttled — they do no work.
        """
        limiter = AdaptiveConcurrency(max_window=max(1, concurrency))
        return list(
            await asyncio.gather(
                *(self.submit_async(spec, limiter=limiter) for spec in specs)
            )
        )

    def serve_concurrently(
        self,
        specs: Sequence[QuerySpec],
        *,
        concurrency: int = 8,
    ) -> list[ServiceResult]:
        """Synchronous convenience wrapper around :meth:`gather_many`."""
        return asyncio.run(self.gather_many(specs, concurrency=concurrency))

    # ------------------------------------------------------------------
    # Standing queries
    # ------------------------------------------------------------------

    def watch(self, spec: QuerySpec, *, callback=None):
        """Register a standing top-k query; returns a live subscription.

        The initial answer is computed through the normal submit path;
        from then on every committed mutation of the dynamic source is
        classified against the maintained answer through the shared
        k-th-entry certificate (:mod:`repro.exec.certify`) — provably
        harmless mutations cost nothing, small deltas are repaired in
        place from the event's own score vectors, and everything else
        recomputes.  A :class:`repro.watch.ResultDelta` is delivered
        (to ``callback``, or queued for ``poll()``) only when the
        visible answer actually changes.  Maintenance runs
        synchronously inside the mutation call, so after any mutation
        returns, every subscription's ``entries`` is already current.

        Requires a :class:`DynamicDatabase` source (a static snapshot
        never changes, so there is nothing to watch).  Policy knobs:
        ``max_subscriptions`` caps concurrently live subscriptions,
        ``watch_patch_limit`` bounds the in-place repair width.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        if self._source is None:
            from repro.errors import ServiceError

            raise ServiceError(
                "standing queries need a DynamicDatabase source; a "
                "static database never mutates, so there is nothing "
                "to watch"
            )
        if self._watch is None:
            from repro.service.cache import EXACT_SCORE_ALGORITHMS
            from repro.watch.manager import SubscriptionManager

            self._watch = SubscriptionManager(
                submit=self.submit,
                exact_algorithms=EXACT_SCORE_ALGORITHMS,
                patch_limit=self._knobs.watch_patch_limit,
                max_subscriptions=self._knobs.max_subscriptions,
                counters=self.counters,
            )
            if self._log is None:
                # The service subscribed score-less (no delta log);
                # maintenance needs the event vectors, so force capture
                # on for as long as the service lives.
                self._retain_scores = self._source.retain_scores()
        subscription = self._watch.watch(spec, callback=callback)
        if subscription.epoch != self._epoch:
            # In-flight async executions pinned an older snapshot, so
            # the initial answer is honestly stale — but a standing
            # query must start current (the events in the gap were
            # never classified against it).
            from repro.errors import ServiceError

            subscription.cancel()
            raise ServiceError(
                "cannot register a standing query while in-flight "
                "executions defer the snapshot rebuild; retry after "
                "they drain"
            )
        return subscription

    @property
    def subscriptions(self) -> tuple:
        """The live standing-query subscriptions (empty when none)."""
        if self._watch is None:
            return ()
        return self._watch.subscriptions

    # ------------------------------------------------------------------
    # Reverse top-k
    # ------------------------------------------------------------------

    @property
    def reverse_registry(self):
        """The reverse top-k user registry (created on first access).

        Register per-user weight vectors here
        (:class:`repro.reverse.UserWeightRegistry`), then ask
        :meth:`submit_reverse` which of them rank a given item in
        their top-k.
        """
        if self._reverse_registry is None:
            from repro.reverse import UserWeightRegistry

            self._reverse_registry = UserWeightRegistry()
        return self._reverse_registry

    def _ensure_reverse(self):
        if self._reverse is None:
            from repro.reverse import ReverseTopkEngine

            self._reverse = ReverseTopkEngine(
                self.reverse_registry,
                runner=self._reverse_execute,
                patch_limit=self._knobs.delta_patch_limit,
                boundary_limit=self._knobs.reverse_boundary_limit,
            )
            if self._source is not None and self._log is None:
                # The service subscribed score-less (no delta log);
                # boundary maintenance needs the event vectors, so
                # force capture on for as long as the service lives.
                self._reverse_retain = self._source.retain_scores()
        return self._reverse

    def _reverse_execute(self, scoring, k: int):
        """One exact certified top-k for the reverse engine's fallback.

        Runs through the planner and the shard pool — but **never**
        through the result cache: a cached entry may be a tie-shifted
        sibling of the canonical answer (the cache's ``answers_match``
        contract), while reverse membership is defined bit-exactly
        against the ``(-score, id)`` order.  Fresh merges are canonical,
        so the returned entries decide membership by plain lookup.  The
        query is forced to BPA, so its plan skips the planner walk, and
        BPA's kernel is the stop-depth search: it never stops deeper
        than TA and builds no scalar layout.
        """
        spec = QuerySpec(algorithm="bpa", k=k, scoring=scoring)
        plan = self._planner.plan(spec, cache_enabled=False)
        full = self._execute_plan(plan, spec)
        return self._truncate(full, plan).items

    def submit_reverse(self, item: ItemId, k: int):
        """Which registered users rank ``item`` inside their top-``k``?

        The exact monochromatic reverse top-k over the current
        snapshot: a user matches iff ``item`` appears in their
        brute-force top-``k`` (ties at the boundary resolve by
        ascending id).  Most users are decided by two vectorized bound
        comparisons against per-list order statistics; the undecided
        few run (or reuse) one certified top-k each, whose cached
        boundary is then maintained incrementally under the mutation
        stream.  Returns a :class:`repro.reverse.ReverseResult`.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        deferred = False
        if self._dirty and self._source is not None:
            if self._running:
                # In-flight async executions pin the snapshot (see
                # submit()); serve the pinned one, bypassing the
                # boundary cache below — its entries are maintained to
                # the *live* epoch, not this stale snapshot's.
                deferred = True
            else:
                self._refresh()
        engine = self._ensure_reverse()
        return engine.query(
            item,
            k,
            database=self._executor.database,
            token=self._snapshot_epoch,
            cacheable=not deferred and self._snapshot_epoch == self._epoch,
        )

    @property
    def reverse_engine(self):
        """The reverse top-k engine (``None`` before the first query)."""
        return self._reverse

    def _serve_empty(self, spec: QuerySpec, started: float) -> ServiceResult:
        from repro.errors import InvalidQueryError

        if spec.k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {spec.k}")
        plan = PlanDecision(
            algorithm=spec.algorithm,
            backend="none",
            k_requested=0,
            k_fetch=0,
            reason="database is empty",
        )
        result = TopKResult(
            items=(),
            tally=AccessTally(),
            rounds=0,
            stop_position=0,
            algorithm=spec.algorithm,
            extras={"shards": 0},
        )
        stats = ServiceStats(
            plan=plan,
            cache_hit=False,
            epoch=self._epoch,
            fanout=0,
            tally=AccessTally(),
            seconds=time.perf_counter() - started,
        )
        self.counters.queries += 1
        self.counters.empty_serves += 1
        return ServiceResult(result=result, stats=stats)

    @staticmethod
    def _truncate(full: TopKResult, plan: PlanDecision) -> TopKResult:
        """Serve the requested prefix of an overfetched answer.

        A prefix of an exact ranked top-``k_fetch`` is the exact ranked
        top-``k_requested`` under the same total order, so truncation
        never changes correctness — only how much the cache can reuse.
        """
        if plan.k_fetch == plan.k_requested:
            return full
        return TopKResult(
            items=full.items[: plan.k_requested],
            tally=full.tally.copy(),
            rounds=full.rounds,
            stop_position=full.stop_position,
            algorithm=full.algorithm,
            extras={**full.extras, "k_fetched": plan.k_fetch},
        )

    # ------------------------------------------------------------------
    # Snapshot persistence (warm restarts)
    # ------------------------------------------------------------------

    def save_snapshot(self, path, *, compress: bool = True) -> int:
        """Persist the served snapshot to ``path``; returns its epoch.

        The snapshot is refreshed first if mutations are pending (so the
        file captures the source's current state), unless in-flight
        async executions pin the current one — then the pinned snapshot
        is saved under the epoch it honestly carries.  The write is
        atomic; a crash mid-save leaves any previous file intact.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        from repro.storage import write_snapshot

        if self._dirty and self._source is not None and not self._running:
            self._refresh()
        write_snapshot(
            self._executor.database,
            path,
            epoch=self._snapshot_epoch,
            compress=compress,
        )
        return self._snapshot_epoch

    @classmethod
    def from_snapshot(
        cls, path, *, source: DynamicDatabase | None = None, **kwargs
    ) -> "QueryService":
        """Warm-start a service from a snapshot file.

        The snapshot is loaded (checksum-verified) and served directly —
        no cold rebuild.  Pass ``source`` to keep serving a live
        :class:`DynamicDatabase` whose current state the snapshot
        captures: the service subscribes to its mutations as usual, and
        its delta log is floored at the restored epoch so only
        post-restart windows can ever be proven.  ``kwargs`` are
        forwarded to the constructor (``shards``, ``pool``, ...).
        """
        from repro.storage import load_snapshot

        database, epoch = load_snapshot(path)
        if source is not None:
            service = cls(source, snapshot=database, **kwargs)
        else:
            service = cls(database, **kwargs)
        service._epoch = epoch
        service._snapshot_epoch = epoch
        if service._log is not None:
            # Epochs below the restored stamp predate this process; the
            # log must never claim to cover them.
            service._log.poison(epoch)
        return service

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the executor pools and detach from the source."""
        if self._closed:
            return
        self._closed = True
        if self._watch is not None:
            self._watch.cancel_all()
            self._watch = None
        if self._retain_scores is not None:
            self._retain_scores()
            self._retain_scores = None
        if self._reverse_retain is not None:
            self._reverse_retain()
            self._reverse_retain = None
        self._reverse = None
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cache = self._cache.maxsize if self._cache is not None else "off"
        return (
            f"<QueryService n={self.n} m={self.m} shards={self.shards} "
            f"pool={self.pool_kind} cache={cache} epoch={self._epoch}>"
        )
