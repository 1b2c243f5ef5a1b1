"""Cost-model query planning: algorithm, backend and k-overfetch.

The planner answers three questions per query, before any list is
touched:

* **Which algorithm?**  For an ``"auto"`` query it predicts the paper's
  execution cost (:class:`repro.types.CostModel`) of TA, BPA and BPA2
  from *observed* list statistics — the actual overall-score
  distribution and the actual per-position thresholds of this database,
  not a distributional assumption — combined with the closed-form
  best-position advance model of :mod:`repro.analysis.model`, and picks
  the cheapest.  NRA (sorted access only) is selected when the policy
  says random access is unavailable, the regime NRA exists for; its
  quadratic bound-maintenance cost prices it out everywhere else.
* **Which backend?**  The exact vectorized columnar kernel when the
  configuration has one (``TopKAlgorithm.fast_kernel()``), the reference
  implementation through the metered accessors otherwise.  Either way
  the results are identical — the differential suite proves it — so this
  is purely a throughput decision.
* **How much to fetch?**  With caching enabled, ``k`` is rounded up to
  the next power of two ("k-overfetch"): a top-8 answer serves every
  ``k <= 8`` query of the same shape by truncation, so mixed-k workloads
  share cache entries instead of fragmenting them.  Overfetch is cheap
  — the stop depth grows sublinearly in ``k`` — and stays below ``2k``.

Predicted stop positions use the observed data: TA stops at the first
position ``p`` where the k-th best overall score reaches the threshold
``scoring(last scores at p)``, so the estimate is a binary search over
the thresholds, not a simulation.  (It is a lower bound — TA's running
top-k can lag the true top-k — which is fine for *ranking* candidate
algorithms that all share the bias.)  The k-th best overall score comes
from a certified walk down the lists (:class:`ListStatistics`), not a
sort of all ``n`` totals.  The walk reads the snapshot's first-seen
prefix (:meth:`repro.columnar.ColumnarDatabase.first_seen_prefix`), the
same one the TA and BPA kernels search for their stop depths, and the
snapshot's totals memo (:meth:`repro.columnar.ColumnarDatabase.totals_memo`),
where the kernels find what it left.  For the stock sums it certifies
on the memo's approximate totals, computed once along the prefix and
shared with the kernels, and sums exactly only the rows that can reach
the k-th total (about ``k``, in one batch), which are the rows the
kernel's answer needs; every other scoring fills each row it reaches,
so it pays for roughly the rows above its stop depth, once.  Specs
that force an algorithm skip the estimate unless adaptive feedback
reads it.  The planner keeps no plans: the service plans only on a
cache miss, and each cache entry keeps the plan that computed it.
Statistics are kept for at most :func:`repro.columnar.scoring_capacity`
scorings (oldest out), as the memos are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.algorithms.base import get_algorithm
from repro.analysis.model import expected_best_position_advance
from repro.columnar import ColumnarDatabase, scoring_capacity, step_end
from repro.columnar.walk import kth_largest
from repro.errors import InvalidQueryError
from repro.exec.keys import QuerySpec, scoring_key
from repro.scoring import SUM, ScoringFunction
from repro.service.sharding import available_cpus
from repro.types import AccessTally, CostModel

if TYPE_CHECKING:
    from repro.service.feedback import PlanFeedback

#: Algorithms the auto-planner ranks by predicted cost.  NRA is excluded
#: — it only wins when random access is impossible, which is a policy
#: fact, not a cost estimate.
AUTO_CANDIDATES = ("ta", "bpa", "bpa2")


@dataclass(frozen=True)
class ServicePolicy:
    """Knobs governing planning decisions.

    Args:
        allow_random: whether the sources support random access.  When
            ``False`` every query is planned as NRA (the paper's
            sorted-access-only regime, e.g. web sources streaming ranked
            results).
        overfetch: whether to round ``k`` up to a power-of-two bucket
            when caching is enabled, so queries differing only in ``k``
            share cache entries.
        delta_log_depth: how many mutations the service's
            :class:`repro.dynamic.MutationLog` retains for delta-aware
            cache reuse.  Cache entries older than the log's retention
            window degrade to plain misses (never to stale serves);
            ``0`` disables the log entirely — every epoch change is a
            whole-epoch miss, the pre-delta behavior.
        delta_patch_limit: largest number of touched objects the cache
            may re-score (``lookup_many``) to *patch* an entry in
            place; deltas touching more fall through to recomputation.
        snapshot_patch_budget: largest number of net-touched *items* a
            snapshot refresh may apply as an in-place columnar patch
            (:func:`repro.columnar.patch_database`); wider deltas — or
            any window the mutation log cannot prove — fall back to a
            cold rebuild from the dynamic source.  ``0`` disables
            patching entirely (every refresh rebuilds, the pre-patch
            behavior).
        max_subscriptions: most standing queries
            (:meth:`repro.service.QueryService.watch`) concurrently
            live; registration beyond it raises
            :class:`~repro.errors.ServiceError` (every mutation is
            classified against every live subscription, so the cap
            bounds per-mutation maintenance work).
        watch_patch_limit: largest number of touched items one
            subscription maintenance step may re-score in place;
            wider deltas recompute through the service.
        reverse_boundary_limit: most per-user boundary entries the
            reverse top-k engine
            (:meth:`repro.service.QueryService.submit_reverse`) caches
            and maintains under the mutation stream; beyond it the
            least-recently consulted users re-run their certified
            top-k on next touch.  ``0`` disables the boundary cache.
        adaptive: close the control loop
            (:mod:`repro.service.feedback`): calibrate predicted costs
            with observed latencies and watch the workload for drift.
            Answers are bit-identical either way — adaptation only moves
            which exact plan runs.
        feedback_blend: weight of the observation when blending with
            the static prediction (``CostModel.calibrate``).
        feedback_min_samples: observations an arm needs before it
            participates in calibrated selection.
        feedback_tolerance: hysteresis band — a challenger must beat
            the incumbent's calibrated cost by this fraction to take
            over.
        drift_window: queries per drift-detection window.
        drift_threshold: total-variation distance between consecutive
            windows that declares a drift epoch.
    """

    allow_random: bool = True
    overfetch: bool = True
    delta_log_depth: int = 256
    delta_patch_limit: int = 8
    snapshot_patch_budget: int = 64
    max_subscriptions: int = 64
    watch_patch_limit: int = 8
    reverse_boundary_limit: int = 1024
    adaptive: bool = False
    feedback_blend: float = 0.5
    feedback_min_samples: int = 5
    feedback_tolerance: float = 0.25
    drift_window: int = 32
    drift_threshold: float = 0.6

    def __post_init__(self) -> None:
        if self.delta_log_depth < 0:
            raise ValueError(
                f"delta_log_depth must be >= 0, got {self.delta_log_depth}"
            )
        if self.delta_patch_limit < 0:
            raise ValueError(
                f"delta_patch_limit must be >= 0, got {self.delta_patch_limit}"
            )
        if self.snapshot_patch_budget < 0:
            raise ValueError(
                "snapshot_patch_budget must be >= 0, "
                f"got {self.snapshot_patch_budget}"
            )
        if self.max_subscriptions < 0:
            raise ValueError(
                f"max_subscriptions must be >= 0, got {self.max_subscriptions}"
            )
        if self.watch_patch_limit < 0:
            raise ValueError(
                f"watch_patch_limit must be >= 0, got {self.watch_patch_limit}"
            )
        if self.reverse_boundary_limit < 0:
            raise ValueError(
                "reverse_boundary_limit must be >= 0, "
                f"got {self.reverse_boundary_limit}"
            )
        if not 0.0 <= self.feedback_blend <= 1.0:
            raise ValueError(
                f"feedback_blend must be in [0, 1], got {self.feedback_blend}"
            )
        if self.feedback_min_samples < 1:
            raise ValueError(
                "feedback_min_samples must be >= 1, "
                f"got {self.feedback_min_samples}"
            )
        if self.feedback_tolerance < 0.0:
            raise ValueError(
                "feedback_tolerance must be >= 0, "
                f"got {self.feedback_tolerance}"
            )
        if self.drift_window < 2:
            raise ValueError(
                f"drift_window must be >= 2, got {self.drift_window}"
            )
        if not 0.0 < self.drift_threshold <= 1.0:
            raise ValueError(
                "drift_threshold must be in (0, 1], "
                f"got {self.drift_threshold}"
            )


@dataclass(frozen=True)
class PlanDecision:
    """The planner's verdict for one query."""

    algorithm: str  #: resolved algorithm registry name
    backend: str  #: ``"kernel"`` or ``"reference"``
    k_requested: int  #: k after clamping to the database size
    k_fetch: int  #: k actually executed/cached (>= k_requested)
    predicted_costs: Mapping[str, float] = field(default_factory=dict)
    reason: str = ""

    @property
    def overfetched(self) -> bool:
        """Whether the executed k exceeds the requested k."""
        return self.k_fetch > self.k_requested


class ListStatistics:
    """Observed statistics of one (database, scoring) pair.

    Exposes the k-th best overall score and the per-position
    sorted-access threshold, the two ingredients of the data-driven TA
    stop estimate.  Built once per scoring function and reused by every
    plan.

    :meth:`kth_total` walks the lists top-down through the snapshot's
    first-seen prefix (:meth:`ColumnarDatabase.first_seen_prefix`, the
    same walk the TA and BPA kernels search) and stops at the first
    walked depth ``D`` where the k-th best total seen is at least
    :meth:`threshold_at` ``(D)`` — an unseen row ranks below ``D`` in
    every list, so by monotonicity it scores at most that threshold, and
    the k-th best seen is the exact k-th best.  The walk is resumable:
    one walk serves every ``k``, and a larger ``k`` resumes it deeper
    (steps grow with the depth, :func:`repro.columnar.step_end`).

    A stock sum with a finite margin (:meth:`repro.columnar.TotalsMemo.margin`)
    walks the memo's approximations, not its totals, one step at a time
    like any walk, so it pays for its own stop depth whatever depth
    earlier queries left the prefix at.  A ``k`` is certified at ``D``
    when the k-th approximation clears the threshold by the margin, or,
    inside that band, when the exact k-th total reaches it.  The only
    rows summed exactly are those whose approximations come within twice
    the margin of the k-th approximation or above it: the k best and the
    few that might tie them, which are the rows the kernel's answer
    sums.  Any other scoring fills every row it reaches and keeps the
    walked totals sorted, so an already-certified ``k`` is one index.
    """

    __slots__ = (
        "_scoring",
        "_n",
        "_m",
        "_prefix",
        "_score_arrays",
        "_memo",
        "_approximate",
        "_margin",
        "_depth",
        "_values",
        "_threshold",
        "_certified",
        "_thresholds",
    )

    def __init__(
        self, database: ColumnarDatabase, scoring: ScoringFunction
    ) -> None:
        self._scoring = scoring
        self._n = database.n
        self._m = database.m
        self._prefix = database.first_seen_prefix()
        self._score_arrays = [lst.scores_array for lst in database.lists]
        self._memo = database.totals_memo(scoring)
        margin = self._memo.margin(self._prefix)
        #: whether the walk reads approximations or totals, and how far
        #: a walked value may lie from its row's total
        self._approximate = margin < math.inf
        self._margin = margin if self._approximate else 0.0
        #: positions walked in every list
        self._depth = 0
        #: the values of the rows seen by ``_depth``: approximations in
        #: prefix order, or exact totals ascending
        self._values = np.empty(0, dtype=np.float64)
        #: the threshold at ``_depth``
        self._threshold = math.inf
        #: every k up to this one is certified at the current depth
        self._certified = 0
        #: position -> threshold (binary searches for different k
        #: probe the same positions)
        self._thresholds: dict[int, float] = {}

    @property
    def n(self) -> int:
        """Number of items."""
        return self._n

    @property
    def m(self) -> int:
        """Number of lists."""
        return self._m

    def kth_total(self, k: int) -> float:
        """The k-th best overall score in the database."""
        if not 1 <= k <= self._n:
            raise InvalidQueryError(f"k must be in 1..{self._n}, got {k}")
        while self._certified < k:
            values = self._values
            if (
                self._approximate
                and len(values) >= k
                and kth_largest(values, k) >= self._threshold - self._margin
            ):
                # inside the band: the exact k-th total decides
                total = self._kth_seen(k)
                if total >= self._threshold:
                    self._certified = k
                    return total
            self._walk()
        return self._kth_seen(k)

    def _walk(self) -> None:
        """Walk one step deeper and re-certify."""
        prefix, n, values = self._prefix, self._n, self._values
        end = step_end(self._depth, n)
        count = prefix.through(end)  # the rows seen by ``end``, a step end
        if self._approximate:
            values = self._memo.approximations(prefix, count)
        else:
            reached = self._memo.totals_of(prefix.rows[len(values) : count])
            values = np.concatenate((values, reached))
            values.sort()
        threshold = self.threshold_at(end) if end < n else -math.inf
        self._values, self._depth, self._threshold = values, end, threshold
        self._certified = int(np.count_nonzero(values >= threshold + self._margin))

    def _kth_seen(self, k: int) -> float:
        """The exact k-th best total of the rows seen by ``_depth``.

        Every total that high belongs to a row whose approximation comes
        within twice the margin of the k-th approximation or above it,
        so only those rows are summed.
        """
        values = self._values
        if not self._approximate:
            return float(values[-k])
        cut = kth_largest(values, k) - 2 * self._margin
        totals = self._memo.totals_of(self._prefix.rows[: len(values)][values >= cut])
        return float(kth_largest(totals, k))

    def threshold_at(self, position: int) -> float:
        """TA's threshold after ``position`` rounds of sorted access."""
        if not 1 <= position <= self._n:
            raise InvalidQueryError(
                f"position must be in 1..{self._n}, got {position}"
            )
        threshold = self._thresholds.get(position)
        if threshold is None:
            threshold = self._scoring(
                [float(arr[position - 1]) for arr in self._score_arrays]
            )
            self._thresholds[position] = threshold
        return threshold

    def stop_depth_for_target(self, target: float) -> int:
        """Smallest position whose threshold has dropped to ``target``.

        The threshold is non-increasing in the position (lists are score
        descending), so binary search applies; returns ``n`` when the
        threshold never reaches the target (run to exhaustion).
        """
        low, high = 1, self._n
        if self.threshold_at(high) > target:
            return self._n
        while low < high:
            mid = (low + high) // 2
            if self.threshold_at(mid) <= target:
                high = mid
            else:
                low = mid + 1
        return low

    def ta_stop_estimate(self, k: int) -> int:
        """Smallest position where the k-th overall score meets the
        threshold (a data-driven lower bound on TA's stop position).
        """
        return self.stop_depth_for_target(self.kth_total(k))


@dataclass(frozen=True)
class ShardDecision:
    """The auto-tuner's verdict on how many shards to partition into."""

    shards: int
    pool: str  #: the resolved pool kind the prediction assumed
    workers: int  #: parallel workers the prediction assumed
    predicted_costs: Mapping[int, float] = field(default_factory=dict)
    reason: str = ""


class QueryPlanner:
    """Plans queries for one database under one policy and cost model."""

    def __init__(
        self,
        database: ColumnarDatabase,
        *,
        policy: ServicePolicy | None = None,
        cost_model: CostModel | None = None,
        feedback: "PlanFeedback | None" = None,
    ) -> None:
        self._database = database
        self._policy = policy or ServicePolicy()
        self._model = cost_model or CostModel.paper(max(2, database.n))
        self._feedback = feedback
        self._overfetch_override: bool | None = None
        #: Statistics kept for at most this many scorings (oldest out:
        #: a hit must not pay for re-hashing its key).
        self._capacity = scoring_capacity(database.n)
        self._statistics: dict[tuple, ListStatistics] = {}

    @property
    def policy(self) -> ServicePolicy:
        """The active planning policy."""
        return self._policy

    @property
    def cost_model(self) -> CostModel:
        """The cost model predictions are expressed in."""
        return self._model

    @property
    def feedback(self) -> "PlanFeedback | None":
        """The runtime feedback store, when adaptive planning is on."""
        return self._feedback

    def set_overfetch_override(self, value: bool | None) -> None:
        """Override the policy's overfetch knob online (drift re-tune)."""
        self._overfetch_override = value

    def statistics(self, scoring: ScoringFunction) -> ListStatistics:
        """The (cached) observed statistics for a scoring function."""
        key = scoring_key(scoring)
        stats = self._statistics.get(key)
        if stats is None:
            table = self._statistics
            stats = table[key] = ListStatistics(self._database, scoring)
            while len(table) > self._capacity:
                del table[next(iter(table))]
        return stats

    def bucketed_k(self, k: int, *, cache_enabled: bool) -> int:
        """The k to execute: the next power of two (below ``2k``),
        bounded by ``n``; ``k`` itself when not caching."""
        overfetch = (
            self._policy.overfetch
            if self._overfetch_override is None
            else self._overfetch_override
        )
        if not cache_enabled or not overfetch:
            return k
        bucket = 1 << (k - 1).bit_length() if k > 0 else 1
        return min(bucket, self._database.n)

    def fetch_k(self, spec: QuerySpec, *, cache_enabled: bool) -> int:
        """The ``k_fetch`` :meth:`plan` gives ``spec``, in O(1).

        ``spec.k`` clamped to ``n``, then bucketed (:meth:`bucketed_k`)
        — except when the plan runs NRA (``"nra"`` requested, or any
        request under a no-random-access policy): NRA ranks by
        lower-bound scores, so only its full returned set is exact and
        a ``k_fetch`` prefix would NOT be the top-``k_requested``.  It
        fetches exactly what was asked.  :meth:`plan` takes its
        ``k_fetch`` from here, so the service can key its result cache
        by the request without planning.
        """
        if spec.k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {spec.k}")
        k = min(spec.k, self._database.n)
        if spec.algorithm == "nra" or not self._policy.allow_random:
            return k
        return self.bucketed_k(k, cache_enabled=cache_enabled)

    def predicted_tallies(
        self, k: int, scoring: ScoringFunction
    ) -> dict[str, AccessTally]:
        """Predicted access tallies per candidate algorithm for one k."""
        n, m = self._database.n, self._database.m
        stats = self.statistics(scoring)
        p_ta = stats.ta_stop_estimate(k)
        advance = expected_best_position_advance(n, m, p_ta)
        if advance == float("inf"):
            advance = float(n)
        p_bpa = max(1, p_ta - int(round(advance)))
        # Fraction of items seen after p_bpa rounds (rank <= p in >= 1 list).
        seen_fraction = 1.0 - (1.0 - p_bpa / n) ** m
        new_items = max(1, int(round(n * seen_fraction)))
        return {
            # Paper accounting: m sorted accesses per round, m-1 randoms each.
            "ta": AccessTally(sorted=m * p_ta, random=m * p_ta * (m - 1)),
            "bpa": AccessTally(sorted=m * p_bpa, random=m * p_bpa * (m - 1)),
            # BPA2 pays direct accesses and completes each distinct item once.
            "bpa2": AccessTally(direct=m * p_bpa, random=(m - 1) * new_items),
            # NRA never leaves sorted access but re-derives bounds for every
            # seen item each round — the min(m*p, n) term is that CPU cost
            # expressed in sorted-access units, which prices NRA out unless
            # random access is impossible.
            "nra": AccessTally(sorted=m * p_ta + p_ta * min(m * p_ta, n)),
        }

    def predicted_costs(
        self, k: int, scoring: ScoringFunction
    ) -> dict[str, float]:
        """Predicted execution cost per candidate algorithm for one k."""
        return {
            name: self._model.execution_cost(tally)
            for name, tally in self.predicted_tallies(k, scoring).items()
        }

    def choose_shard_count(
        self,
        *,
        pool: str,
        cpus: int | None = None,
        k: int = 16,
        scoring: ScoringFunction = SUM,
        max_shards: int | None = None,
    ) -> ShardDecision:
        """Pick the shard count minimizing predicted per-query cost.

        The model follows the merge proof's geometry: a shard of
        ``n / S`` items answers top-``k'``, and its ``k'``-th best local
        total sits near the global ``k * S``-th best, so the shard's
        stop depth is the full-list depth for that deeper target,
        divided by ``S``.  Predicted wall cost is that per-shard cost
        times the number of worker *waves* (``ceil(S / workers)`` — a
        serial pool has one worker, so sharding there only adds total
        work), plus a merge term linear in the ``S * k`` merged entries.
        Candidates are powers of two; ties go to fewer shards.
        """
        n, m = self._database.n, self._database.m
        if n == 0:
            return ShardDecision(1, pool, 1, {}, "empty database")
        if cpus is None:
            cpus = available_cpus()
        workers = cpus if pool in ("thread", "process") else 1
        k = min(max(1, k), n)
        limit = min(max_shards or 2 * max(1, cpus), n)
        candidates = [1]
        while candidates[-1] * 2 <= limit:
            candidates.append(candidates[-1] * 2)

        stats = self.statistics(scoring)
        model = self._model
        costs: dict[int, float] = {}
        for shards in candidates:
            target = stats.kth_total(min(n, k * shards))
            depth = math.ceil(stats.stop_depth_for_target(target) / shards)
            per_shard = model.execution_cost(
                AccessTally(sorted=m * depth, random=m * depth * (m - 1))
            )
            waves = math.ceil(shards / workers)
            merge = shards * k * model.sorted_cost
            costs[shards] = waves * per_shard + merge
        best = min(candidates, key=lambda s: (costs[s], s))
        return ShardDecision(
            shards=best,
            pool=pool,
            workers=workers,
            predicted_costs=costs,
            reason=(
                f"min predicted cost over S in {candidates} "
                f"({workers} worker(s), k={k}): {costs[best]:,.0f}"
            ),
        )

    def plan(self, spec: QuerySpec, *, cache_enabled: bool) -> PlanDecision:
        """Resolve one query spec into an executable decision.

        ``spec.algorithm`` may be a registry name (honored as-is, except
        that a random-access algorithm under a no-random-access policy
        raises :class:`InvalidQueryError`) or ``"auto"`` (cheapest
        predicted candidate).  ``spec.k`` larger than the database is
        clamped to ``n``.
        """
        n = self._database.n
        if spec.k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {spec.k}")
        k_requested = min(spec.k, n)
        k_fetch = self.fetch_k(spec, cache_enabled=cache_enabled)
        # The stop-depth estimate is the one per-scoring O(depth) cost of
        # planning; a forced plan never reads it.
        costs: dict[str, float] = {}
        if spec.algorithm == "auto" or self._feedback is not None:
            costs = self.predicted_costs(k_fetch, spec.scoring)

        if not self._policy.allow_random:
            if spec.algorithm not in ("auto", "nra"):
                # The policy says the sources cannot answer random
                # accesses, so an explicitly requested random-access
                # algorithm is unsatisfiable — refuse rather than
                # silently substitute one with different score semantics.
                raise InvalidQueryError(
                    f"algorithm {spec.algorithm!r} needs random access, "
                    "which this service's policy disallows "
                    "(use 'nra' or 'auto')"
                )
            algorithm = "nra"
            reason = "policy forbids random access; NRA is the only option"
        elif spec.algorithm != "auto":
            algorithm = spec.algorithm
            reason = "algorithm requested explicitly"
        elif self._feedback is not None:
            from repro.service.feedback import plan_signature

            signature = plan_signature(spec.scoring, k_fetch)
            explore = self._feedback.explore_candidate(
                AUTO_CANDIDATES, signature=signature
            )
            if explore is not None:
                algorithm = explore
                reason = (
                    f"exploring {explore} (arm below "
                    f"{self._feedback.min_samples} samples)"
                )
            else:
                calibrated = self._feedback.calibrated_costs(
                    {name: costs[name] for name in AUTO_CANDIDATES},
                    signature=signature,
                    model=self._model,
                )
                algorithm, _replanned, why = self._feedback.select(
                    AUTO_CANDIDATES, calibrated, signature=signature
                )
                reason = (
                    f"calibrated cost {calibrated[algorithm]:,.0f} "
                    f"({why})"
                )
        else:
            algorithm = min(AUTO_CANDIDATES, key=lambda name: costs[name])
            reason = (
                f"min predicted cost among {'/'.join(AUTO_CANDIDATES)} "
                f"({costs[algorithm]:,.0f})"
            )

        instance = get_algorithm(algorithm, **dict(spec.options))
        backend = "kernel" if instance.fast_kernel() is not None else "reference"
        return PlanDecision(
            algorithm=algorithm,
            backend=backend,
            k_requested=k_requested,
            k_fetch=k_fetch,
            predicted_costs=costs,
            reason=reason,
        )
