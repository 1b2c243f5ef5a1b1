"""An embeddable sharded top-k query service.

The paper's algorithms answer *one* query cheaply; this package serves
*traffic*.  Four cooperating parts (see each module's docstring for the
full story):

* :mod:`repro.service.planner` — per-query planning: algorithm
  (TA/BPA/BPA2/NRA), backend (vectorized kernel vs. reference), and
  k-overfetch, driven by :mod:`repro.analysis.model` predictions over
  *observed* list statistics;
* :mod:`repro.service.sharding` — row-wise shard fan-out over a
  serial/thread/process pool with a provably exact, certificate-checked
  top-k merge;
* :mod:`repro.service.cache` — an LRU result cache keyed by normalized
  query specs, invalidated lazily through epochs so mutations stay O(1);
* :mod:`repro.service.service` — :class:`QueryService`, the
  ``submit()/submit_many()`` front-end — plus the async
  ``submit_async()/gather_many()`` path with bounded concurrency and
  single-flight coalescing — producing per-query :class:`ServiceStats`,
  wired to :class:`repro.dynamic.DynamicDatabase` mutation streams for
  epoch bumps.

Execution itself (kernel dispatch, the exact merge) lives in the
shared core, :mod:`repro.exec`; the service runs every query on its
shard pool.  Queries over list owners, simulated or over sockets, are
:mod:`repro.distributed`'s.

:mod:`repro.service.workload` replays Zipf-popular workloads against a
service, every answer cross-checked (the ``repro-topk serve-workload``
CLI); the timed service benchmark is ``perfbench/``.

:mod:`repro.service.feedback` closes the control loop: a
:class:`PlanFeedback` store calibrates the planner's cost predictions
against observed latencies, and a :class:`DriftDetector` fires
re-tuning epochs when the workload's shape moves
(``ServicePolicy(adaptive=True)``).
"""

from repro.service.cache import (
    CACHE_OUTCOMES,
    CacheLookup,
    CacheStats,
    ResultCache,
    normalized_query_key,
    scoring_key,
)
from repro.service.feedback import (
    AdaptiveState,
    DriftDetector,
    PlanFeedback,
    plan_signature,
    total_variation,
)
from repro.service.planner import (
    ListStatistics,
    PlanDecision,
    QueryPlanner,
    ServicePolicy,
    ShardDecision,
)
from repro.service.service import (
    AdaptiveConcurrency,
    QueryService,
    ServiceCounters,
    ServiceResult,
    ServiceStats,
)
from repro.service.sharding import (
    MERGE_EXACT_ALGORITHMS,
    ShardExecutor,
    merge_shard_results,
    partition_database,
)
from repro.service.workload import (
    WorkloadConfig,
    WorkloadMutator,
    answers_match,
    build_workload,
    dynamic_from,
    fresh_topk,
    replay,
    replay_async,
    replay_with_mutations,
    run_workload,
    write_report,
)

__all__ = [
    "AdaptiveConcurrency",
    "QueryService",
    "ServiceResult",
    "ServiceStats",
    "ServiceCounters",
    "ServicePolicy",
    "QueryPlanner",
    "PlanDecision",
    "ShardDecision",
    "ListStatistics",
    "ResultCache",
    "CacheStats",
    "CacheLookup",
    "CACHE_OUTCOMES",
    "normalized_query_key",
    "scoring_key",
    "ShardExecutor",
    "MERGE_EXACT_ALGORITHMS",
    "merge_shard_results",
    "partition_database",
    "PlanFeedback",
    "DriftDetector",
    "AdaptiveState",
    "plan_signature",
    "total_variation",
    "WorkloadConfig",
    "WorkloadMutator",
    "answers_match",
    "build_workload",
    "dynamic_from",
    "fresh_topk",
    "replay",
    "replay_async",
    "replay_with_mutations",
    "run_workload",
    "write_report",
]
