"""Datagen-driven workload replay and the service speedup benchmark.

A *workload* is a sequence of queries drawn from a pool of distinct
query shapes with Zipf-skewed popularity — the canonical model of
production query traffic, where a few hot queries dominate.  Replaying
one against a :class:`QueryService` exercises every part of the
subsystem at once: the planner sees mixed ``k``, the shard executor sees
every cache miss, and the cache sees the popularity skew it exists for.

:func:`run_workload` replays one configuration and returns a JSON-ready
summary (written under ``reports/service_*.json`` by the
``serve-workload`` CLI).  :func:`speedup_benchmark` measures the
unsharded-vs-sharded x cold-vs-warm grid behind
``reports/service_speedup.json`` and cross-checks that every cached or
sharded answer is identical to the cache-off replay.

**Mutation replay** (``serve-workload --mutation-rate R``): the same
Zipf-popular query stream interleaved with a seeded stream of random
``update``/``insert``/``remove`` mutations against a live
:class:`repro.dynamic.DynamicDatabase` — the workload the delta-aware
result cache exists for.  ``--verify`` cross-checks every served answer
(hit, revalidated, patched or fresh) against a brute-force ranking of
the database's *current* state, bit for bit.
:func:`mutation_contrast` replays the identical mutation-heavy stream
under the delta-aware cache and under the legacy whole-epoch scheme
(``delta_log_depth=0``) and backs the ``mutation_workload`` section of
``reports/service_speedup.json``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.algorithms.naive import brute_force_topk
from repro.datagen.base import make_generator
from repro.dynamic import DynamicDatabase, DynamicSortedList
from repro.exec.keys import QuerySpec
from repro.reverse import brute_force_reverse_topk
from repro.service.cache import CACHE_OUTCOMES, scoring_key
from repro.service.planner import ServicePolicy
from repro.service.service import QueryService, ServiceResult
from repro.types import AccessTally


@dataclass(frozen=True)
class WorkloadConfig:
    """One serve-workload run, fully seeded and reproducible."""

    generator: str = "uniform"  #: datagen family for the database
    alpha: float | None = None  #: correlation parameter (correlated only)
    n: int = 10_000
    m: int = 3
    seed: int = 42
    queries: int = 200  #: total replayed queries
    distinct: int = 30  #: size of the distinct query pool
    k_max: int = 20  #: per-query k is drawn uniformly from 1..k_max
    zipf_theta: float = 1.0  #: popularity skew over the query pool
    algorithm: str = "auto"  #: algorithm per query ("auto" = planner)
    shards: int | str = 1  #: shard count, or "auto" for the planner's pick
    pool: str = "auto"
    cache_size: int = 1024  #: 0 disables the cache
    #: popularity skew override for the phased generator (``--key-skew``;
    #: ``None`` falls back to ``zipf_theta``).
    key_skew: float | None = None
    #: probability a query is adversarial — a ``k`` far past the pool's
    #: range (``(k_max, 4*k_max]``), the deep-stop worst case.
    adversarial_ratio: float = 0.0
    #: number of workload phase *shifts*: ``N`` shifts split the stream
    #: into ``N + 1`` phases with alternating k-regimes and fresh query
    #: pools (0 keeps the legacy single-phase stream, byte-identical to
    #: what it always was).
    phase_shift: int = 0
    #: serve through an adaptive service (``ServicePolicy.adaptive``).
    adaptive: bool = False


def build_database(config: WorkloadConfig):
    """The (seeded) database a workload runs against."""
    params = {}
    if config.generator == "correlated" and config.alpha is not None:
        params["alpha"] = config.alpha
    generator = make_generator(config.generator, **params)
    return generator.generate(config.n, config.m, seed=config.seed)


def build_workload(config: WorkloadConfig) -> list[QuerySpec]:
    """Draw the query sequence: a Zipf-popular replay over a spec pool.

    The pool holds ``distinct`` specs with k drawn from ``1..k_max``;
    each replayed query picks a pool entry with probability proportional
    to ``1 / rank**zipf_theta``.  ``zipf_theta = 0`` gives a uniform
    (cache-hostile) workload, larger values concentrate traffic on a
    few hot queries.

    ``phase_shift > 0`` (or a nonzero ``adversarial_ratio`` / an
    explicit ``key_skew``) switches to the *phased* generator: the
    stream splits into ``phase_shift + 1`` contiguous phases, each with
    its own freshly drawn pool, and the k-regime alternates between
    *narrow* (``1..k_max//4`` — shallow stops, tiny rounds) and *deep*
    (``3*k_max//4..k_max`` — long scans) phases.  Each query is
    additionally replaced, with probability ``adversarial_ratio``, by an
    adversarial spec with ``k`` drawn from ``(k_max, 4*k_max]`` — the
    deep-stop worst case no static tuning anticipates.  The legacy
    single-phase stream (all three knobs at their defaults) is
    byte-identical to what this function always produced.
    """
    rng = np.random.default_rng(config.seed + 1)
    theta = (
        config.key_skew if config.key_skew is not None else config.zipf_theta
    )
    phased = (
        config.phase_shift > 0
        or config.adversarial_ratio > 0
        or config.key_skew is not None
    )
    if not phased:
        pool = [
            QuerySpec(
                algorithm=config.algorithm,
                k=int(rng.integers(1, max(2, config.k_max + 1))),
            )
            for _ in range(max(1, config.distinct))
        ]
        ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks, max(0.0, config.zipf_theta))
        weights /= weights.sum()
        draws = rng.choice(len(pool), size=max(0, config.queries), p=weights)
        return [pool[index] for index in draws]

    phases = max(1, config.phase_shift + 1)
    total = max(0, config.queries)
    per_phase = -(-total // phases) if total else 0  # ceiling division
    specs: list[QuerySpec] = []
    for phase in range(phases):
        if phase % 2 == 0:
            k_low, k_high = 1, max(1, config.k_max // 4)
        else:
            k_low, k_high = max(1, (3 * config.k_max) // 4), config.k_max
        pool = [
            QuerySpec(
                algorithm=config.algorithm,
                k=int(rng.integers(k_low, k_high + 1)),
            )
            for _ in range(max(1, config.distinct))
        ]
        ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks, max(0.0, theta))
        weights /= weights.sum()
        count = min(per_phase, total - len(specs))
        if count <= 0:
            break
        draws = rng.choice(len(pool), size=count, p=weights)
        for index in draws:
            spec = pool[int(index)]
            if (
                config.adversarial_ratio > 0
                and float(rng.random()) < config.adversarial_ratio
            ):
                spec = QuerySpec(
                    algorithm=config.algorithm,
                    k=int(
                        rng.integers(config.k_max + 1, 4 * config.k_max + 1)
                    ),
                )
            specs.append(spec)
    return specs


def replay(
    service: QueryService, workload: Sequence[QuerySpec]
) -> tuple[dict, list[ServiceResult]]:
    """Replay a workload through a service; returns (summary, results)."""
    started = time.perf_counter()
    results = service.submit_many(list(workload))
    seconds = time.perf_counter() - started
    return _summarize(service, results, seconds), results


def replay_async(
    service: QueryService,
    workload: Sequence[QuerySpec],
    *,
    concurrency: int = 8,
) -> tuple[dict, list[ServiceResult]]:
    """Replay a workload through ``gather_many`` on a fresh event loop.

    Same summary shape as :func:`replay` plus the concurrency used and
    the number of coalesced submits.  Answers are identical to the
    serial replay's (single-flight coalescing keeps even the cache-hit
    accounting the same) — ``run_workload`` cross-checks that.
    """
    started = time.perf_counter()
    results = service.serve_concurrently(
        list(workload), concurrency=concurrency
    )
    seconds = time.perf_counter() - started
    summary = _summarize(service, results, seconds)
    summary["concurrency"] = concurrency
    summary["coalesced"] = sum(r.stats.coalesced for r in results)
    return summary, results


def _summarize(
    service: QueryService, results: list[ServiceResult], seconds: float
) -> dict:
    tally = AccessTally()
    plan_mix: dict[str, int] = {}
    backend_mix: dict[str, int] = {}
    outcome_mix = {outcome: 0 for outcome in CACHE_OUTCOMES}
    hits = 0
    latencies = sorted(r.stats.seconds for r in results) or [0.0]
    max_fanout = 1
    for served in results:
        stats = served.stats
        tally = tally + stats.tally
        hits += stats.cache_hit
        outcome_mix[stats.cache_outcome] += 1
        plan_mix[stats.plan.algorithm] = plan_mix.get(stats.plan.algorithm, 0) + 1
        backend_mix[stats.plan.backend] = (
            backend_mix.get(stats.plan.backend, 0) + 1
        )
        max_fanout = max(max_fanout, stats.fanout)

    def percentile(fraction: float) -> float:
        index = min(len(latencies) - 1, int(fraction * len(latencies)))
        return latencies[index]

    summary = {
        "queries": len(results),
        "seconds": seconds,
        "queries_per_second": len(results) / seconds if seconds > 0 else 0.0,
        "cache_hits": hits,
        "cache_hit_rate": hits / len(results) if results else 0.0,
        "cache_outcomes": outcome_mix,
        "plan_mix": plan_mix,
        "backend_mix": backend_mix,
        "shards": service.shards,
        "max_fanout": max_fanout,
        "accesses": {
            "sorted": tally.sorted,
            "random": tally.random,
            "direct": tally.direct,
        },
        "latency_ms": {
            "p50": percentile(0.50) * 1e3,
            "p95": percentile(0.95) * 1e3,
            "max": latencies[-1] * 1e3,
        },
    }
    return summary


def _served_answers(results: Sequence[ServiceResult]) -> list[tuple]:
    return [(r.item_ids, r.scores) for r in results]


def _adaptive_summary(service: QueryService) -> dict | None:
    """The JSON-ready adaptive section of a summary (None if static)."""
    state = service.adaptive_state
    if state is None:
        return None
    return {
        "drift_epochs": service.counters.drift_epochs,
        "replans": service.counters.replans,
        "arms": state.feedback.arm_count,
        "plan_generation": state.feedback.generation,
        "width_histogram": {
            str(width): count
            for width, count in state.width_histogram().items()
        },
        "width_adjustments": sum(
            controller.adjustments
            for controller in state.controllers.values()
        ),
        "overfetch_override": state.overfetch_override,
        "last_drift_divergence": state.drift.last_divergence,
    }


# ----------------------------------------------------------------------
# Mutation replay
# ----------------------------------------------------------------------


def dynamic_from(database) -> DynamicDatabase:
    """A mutable copy of a static database (same items, same scores)."""
    return DynamicDatabase(
        [
            DynamicSortedList(zip(lst.items(), lst.scores()), name=lst.name)
            for lst in database.lists
        ]
    )


def fresh_topk(
    source: DynamicDatabase, k: int, scoring
) -> tuple[tuple, tuple]:
    """Brute-force oracle: the exact ranked top-k of the *current* state.

    Delegates to the library's one true oracle
    (:func:`repro.algorithms.naive.brute_force_topk`, which aggregates
    with the very same scoring callable the engine uses), so a correct
    serve matches bit for bit — items, scores, tie-breaks.
    """
    ranked = brute_force_topk(source, k, scoring)
    return (
        tuple(entry.item for entry in ranked),
        tuple(entry.score for entry in ranked),
    )


def answers_match(
    served_ids,
    served_scores,
    source: DynamicDatabase,
    k: int,
    scoring,
    *,
    expected: tuple | None = None,
) -> bool:
    """Whether a served answer is an exact ranked top-k of current data.

    The served *score* sequence must be bit-identical to the oracle's
    (same floats, same descending order), and every served item must
    honestly carry its own current aggregate.  Item *identity* within
    an equal-score tie group is deliberately not pinned: the library's
    equivalence contract (see :meth:`repro.types.TopKResult.same_scores`)
    lets algorithms resolve boundary ties differently — all correctly —
    and which tied item an engine run includes can shift with unrelated
    data changes, so a cache serving either tied answer is exact.
    Wherever scores are untied this degenerates to ids being identical.

    ``expected`` short-circuits the oracle recompute with a precomputed
    :func:`fresh_topk` result — only sound while the source is static.
    """
    expected_ids, expected_scores = (
        expected if expected is not None else fresh_topk(source, k, scoring)
    )
    if tuple(served_scores) != expected_scores:
        return False
    if tuple(served_ids) == expected_ids:
        return True
    if len(set(served_ids)) != len(served_ids):
        return False
    for item, score in zip(served_ids, served_scores):
        try:
            local = source.local_scores(item)
        except Exception:
            return False  # served an item that no longer exists
        if scoring(list(local)) != score:
            return False
    return True


class WorkloadMutator:
    """A seeded stream of random mutations against a dynamic database.

    Kinds are drawn ~70% score updates, ~15% inserts, ~15% removals
    (removals pause while the database is small so the workload's k
    range stays meaningful); scores are drawn uniformly from the initial
    data's observed score range.  The stream depends only on the seed,
    so two services replaying the same workload see byte-identical
    mutation sequences.
    """

    def __init__(self, source: DynamicDatabase, rng: np.random.Generator) -> None:
        self._source = source
        self._rng = rng
        self._ids = sorted(source.item_ids)
        self._next_id = (self._ids[-1] + 1) if self._ids else 0
        scores = [s for lst in source.lists for s in lst.scores()]
        self._low = min(scores, default=0.0)
        self._high = max(scores, default=1.0)
        self._floor = max(4, len(self._ids) // 2)
        self.applied = {"update_score": 0, "insert_item": 0, "remove_item": 0}

    def _draw_score(self) -> float:
        return float(self._rng.uniform(self._low, self._high))

    @property
    def ids(self) -> tuple:
        """The live item ids (insertion order) — for picking query targets."""
        return tuple(self._ids)

    def apply_one(self) -> str:
        """Apply one random mutation; returns its kind."""
        roll = float(self._rng.random())
        if roll < 0.15:
            item = self._next_id
            self._next_id += 1
            self._source.insert_item(
                item, [self._draw_score() for _ in range(self._source.m)]
            )
            self._ids.append(item)
            kind = "insert_item"
        elif roll < 0.30 and len(self._ids) > self._floor:
            index = int(self._rng.integers(len(self._ids)))
            item = self._ids.pop(index)
            self._source.remove_item(item)
            kind = "remove_item"
        else:
            index = int(self._rng.integers(len(self._ids)))
            self._source.update_score(
                int(self._rng.integers(self._source.m)),
                self._ids[index],
                self._draw_score(),
            )
            kind = "update_score"
        self.applied[kind] += 1
        return kind


def replay_with_mutations(
    service: QueryService,
    workload: Sequence[QuerySpec],
    source: DynamicDatabase,
    *,
    mutation_rate: float,
    seed: int,
    verify: bool = False,
    lock=None,
    reverse_rate: float = 0.0,
    reverse_k: int = 10,
) -> tuple[dict, list[ServiceResult]]:
    """Replay a workload with mutations interleaved between queries.

    Before each query a mutation is applied with probability
    ``mutation_rate`` (rates above 1 apply ``floor(rate)`` mutations
    plus a fractional chance of one more).  With ``verify`` every served
    answer — whatever its cache outcome — is checked for exactness
    against the brute-force oracle on the database's current state
    (:func:`answers_match`: bit-identical ranked scores, honest
    per-item aggregates); the summary's ``verified_identical`` records
    the verdict.  Verification runs outside the timed path.

    A positive ``reverse_rate`` additionally issues a reverse top-k
    query (:meth:`QueryService.submit_reverse`, ``k=reverse_k``) on a
    random live item after each forward query with that probability,
    against whatever users the service's ``reverse_registry`` holds;
    with ``verify`` each reverse answer is checked bit-exactly against
    :func:`repro.reverse.brute_force_reverse_topk` and the summary
    gains a ``"reverse"`` section.

    ``lock`` (any context manager, e.g. a
    :attr:`repro.watch.server.WatchServer.lock`) is held around every
    service/database touch, so the replay can drive a service that
    concurrently serves watch connections from other threads.
    """
    if mutation_rate < 0:
        raise ValueError(f"mutation rate must be >= 0, got {mutation_rate}")
    if reverse_rate < 0:
        raise ValueError(f"reverse rate must be >= 0, got {reverse_rate}")
    guard = lock if lock is not None else nullcontext()
    rng = np.random.default_rng(seed + 2)
    mutator = WorkloadMutator(source, rng)
    results: list[ServiceResult] = []
    seconds = 0.0
    mismatches = 0
    reverse_seconds = 0.0
    reverse_queries = reverse_matches = reverse_mismatches = 0
    for spec in workload:
        count = int(mutation_rate)
        if float(rng.random()) < mutation_rate - count:
            count += 1
        for _ in range(count):
            with guard:
                mutator.apply_one()
        started = time.perf_counter()
        with guard:
            served = service.submit(spec)
        seconds += time.perf_counter() - started
        results.append(served)
        if verify:
            with guard:
                matched = answers_match(
                    served.item_ids,
                    served.scores,
                    source,
                    spec.k,
                    spec.scoring,
                )
            if not matched:
                mismatches += 1
        if reverse_rate > 0 and float(rng.random()) < reverse_rate:
            ids = mutator.ids
            item = ids[int(rng.integers(len(ids)))]
            started = time.perf_counter()
            with guard:
                reverse_result = service.submit_reverse(item, reverse_k)
            reverse_seconds += time.perf_counter() - started
            reverse_queries += 1
            reverse_matches += len(reverse_result)
            if verify:
                with guard:
                    expected = brute_force_reverse_topk(
                        source, service.reverse_registry, item, reverse_k
                    )
                if reverse_result.users != expected:
                    reverse_mismatches += 1
    summary = _summarize(service, results, seconds)
    if reverse_queries:
        engine = service.reverse_engine
        counters = engine.counters
        summary["reverse"] = {
            "queries": reverse_queries,
            "k": reverse_k,
            "users": len(service.reverse_registry),
            "matched_users": reverse_matches,
            "seconds": reverse_seconds,
            "bound_in": counters.bound_in,
            "bound_out": counters.bound_out,
            "boundary_hits": counters.boundary_hits,
            "fallbacks": counters.fallbacks,
            "maintenance": {
                "unchanged": counters.maintenance_unchanged,
                "patched": counters.maintenance_patched,
                "dropped": counters.maintenance_dropped,
                "flushes": counters.flushes,
            },
        }
        if verify:
            summary["reverse"]["verified_identical"] = reverse_mismatches == 0
            summary["reverse"]["verify_mismatches"] = reverse_mismatches
    outcomes = summary["cache_outcomes"]
    reused = outcomes["hit"] + outcomes["revalidated"] + outcomes["patched"]
    summary["mutation_rate"] = mutation_rate
    summary["mutations"] = dict(mutator.applied)
    summary["reuse_rate"] = reused / len(results) if results else 0.0
    if verify:
        summary["verified_identical"] = mismatches == 0
        summary["verify_mismatches"] = mismatches
    return summary, results


def mutation_contrast(
    *,
    n: int = 5_000,
    m: int = 3,
    queries: int = 300,
    distinct: int = 30,
    k_max: int = 16,
    zipf_theta: float = 1.0,
    seed: int = 42,
    mutation_rate: float = 1.0,
    generator: str = "uniform",
    verify: bool = True,
) -> dict:
    """Delta-aware vs whole-epoch caching under a mutation-heavy replay.

    The identical query+mutation stream runs twice: once with the
    default delta log and once with ``delta_log_depth=0`` (the legacy
    whole-epoch scheme, where any mutation expires every entry).  Both
    replays are oracle-verified when ``verify`` is set, so the contrast
    is between two *correct* schemes — the delta cache just proves most
    mutations harmless instead of recomputing.
    """
    config = WorkloadConfig(
        generator=generator,
        n=n,
        m=m,
        seed=seed,
        queries=queries,
        distinct=distinct,
        k_max=k_max,
        zipf_theta=zipf_theta,
        shards=1,
        pool="serial",
    )
    base = build_database(config)
    workload = build_workload(config)
    cells: dict[str, dict] = {}
    for label, policy in (
        ("delta_cache", None),
        ("whole_epoch_cache", ServicePolicy(delta_log_depth=0)),
    ):
        source = dynamic_from(base)
        with QueryService(
            source, shards=1, pool="serial", policy=policy
        ) as service:
            summary, _ = replay_with_mutations(
                service,
                workload,
                source,
                mutation_rate=mutation_rate,
                seed=seed,
                verify=verify,
            )
            cache = service.cache
            summary["cache"] = {
                "revalidated": cache.stats.revalidated,
                "patched": cache.stats.patched,
                "invalidations": cache.stats.invalidations,
                "log_truncations": (
                    service.mutation_log.truncations
                    if service.mutation_log is not None
                    else None
                ),
            }
        cells[label] = summary
    delta_rate = cells["delta_cache"]["reuse_rate"]
    legacy_rate = cells["whole_epoch_cache"]["reuse_rate"]
    return {
        "config": {**asdict(config), "mutation_rate": mutation_rate},
        **cells,
        "reuse_rate_delta_vs_whole_epoch": [delta_rate, legacy_rate],
    }


def snapshot_refresh_benchmark(
    *,
    n: int = 5_000,
    m: int = 3,
    epochs: int = 120,
    mutations_per_epoch: int = 4,
    seed: int = 42,
    generator: str = "uniform",
) -> dict:
    """Patched vs cold-rebuild snapshot refresh, same mutation stream.

    Two services over identical dynamic databases replay the identical
    seeded mutation stream; after every burst of ``mutations_per_epoch``
    mutations each refreshes its columnar snapshot — one through the
    default delta-patching path (:func:`repro.columnar.patch_database`),
    one with ``snapshot_patch_budget=0`` (every refresh cold-rebuilds,
    the pre-patch behavior).  Only the refresh itself is timed; query
    execution is excluded.  Both final snapshots are cross-checked
    byte-identical, and a final served answer is compared, so the
    contrast is between two correct refresh strategies.
    """
    config = WorkloadConfig(generator=generator, n=n, m=m, seed=seed)
    base = build_database(config)
    spec = QuerySpec(algorithm="bpa2", k=10)
    cells: dict[str, dict] = {}
    answers: dict[str, tuple] = {}
    snapshots: dict[str, object] = {}
    for label, policy in (
        ("patched", None),
        ("rebuild", ServicePolicy(snapshot_patch_budget=0)),
    ):
        source = dynamic_from(base)
        rng = np.random.default_rng(seed + 3)
        with QueryService(
            source, shards=1, pool="serial", cache_size=0, policy=policy
        ) as service:
            mutator = WorkloadMutator(source, rng)
            seconds = 0.0
            for _ in range(max(1, epochs)):
                for _ in range(max(1, mutations_per_epoch)):
                    mutator.apply_one()
                started = time.perf_counter()
                service._refresh()
                seconds += time.perf_counter() - started
            served = service.submit(spec)
            snapshot = service._executor.database
            cells[label] = {
                "epochs": epochs,
                "mutations_per_epoch": mutations_per_epoch,
                "refresh_seconds_total": seconds,
                "refresh_seconds_per_epoch": seconds / max(1, epochs),
                "snapshot_refreshes": service.counters.snapshot_refreshes,
                "snapshot_patches": service.counters.snapshot_patches,
            }
            answers[label] = (served.item_ids, served.scores)
            snapshots[label] = snapshot
    identical = answers["patched"] == answers["rebuild"] and all(
        bool(np.array_equal(a.items_array, b.items_array))
        and a.scores_array.tobytes() == b.scores_array.tobytes()
        and bool(np.array_equal(a.rank_by_row, b.rank_by_row))
        for a, b in zip(snapshots["patched"].lists, snapshots["rebuild"].lists)
    )
    rebuild_cost = cells["rebuild"]["refresh_seconds_per_epoch"]
    patched_cost = cells["patched"]["refresh_seconds_per_epoch"]
    return {
        "config": {
            **asdict(config),
            "epochs": epochs,
            "mutations_per_epoch": mutations_per_epoch,
        },
        **cells,
        "speedup_patched_vs_rebuild": (
            rebuild_cost / patched_cost if patched_cost > 0 else float("inf")
        ),
        "snapshots_identical": identical,
    }


def run_workload(
    config: WorkloadConfig,
    *,
    include_baseline: bool = True,
    mode: str = "serial",
    concurrency: int = 8,
    mutation_rate: float = 0.0,
    verify: bool = False,
    snapshot_in=None,
    snapshot_out=None,
    watch_port: int | None = None,
    watch_wait: float = 0.0,
    reverse_rate: float = 0.0,
    reverse_users: int = 32,
    reverse_k: int = 10,
) -> dict:
    """Replay one workload configuration; returns the JSON-ready report.

    ``mode="async"`` replays through ``submit_async``/``gather_many``
    with the given concurrency instead of the serial ``submit_many``.
    With ``include_baseline`` the same workload is also replayed
    serially, unsharded, with the cache off (the repo's status-quo
    execution path) and every answer is cross-checked for equality — a
    cache, merge or coalescing bug fails the run instead of polluting
    the numbers.

    A positive ``mutation_rate`` switches to the mutation replay: the
    database becomes a live :class:`repro.dynamic.DynamicDatabase`,
    mutations interleave with the queries, and correctness is checked
    per query against the brute-force oracle (``verify``) instead of
    against a fixed baseline replay (the data a baseline would answer
    over no longer exists by the time the replay ends).

    ``snapshot_in`` warm-starts the replay from a ``.bpsn`` snapshot
    file instead of regenerating the dataset (in the mutation replay
    the service itself is restored via
    :meth:`QueryService.from_snapshot`, so its epoch clock resumes at
    the persisted epoch); ``snapshot_out`` persists the final snapshot
    after the replay so the next process can pick up where this one
    stopped.

    ``watch_port`` (mutation replay only) additionally serves the live
    service behind a :class:`repro.watch.server.WatchServer` on that
    port for the duration of the replay, so external processes can hold
    standing subscriptions against the mutating data (``repro watch``
    tails their deltas); ``watch_wait`` blocks up to that many seconds
    for at least one subscription to register before replaying, so a
    tailing client observes the stream from the start.

    A positive ``reverse_rate`` seeds ``reverse_users`` weight vectors
    into the service's reverse registry and interleaves reverse top-k
    queries (``k=reverse_k``) into the replay (see
    :func:`replay_with_mutations`); it rides the same live-database
    path as the mutation replay and composes with any
    ``mutation_rate`` (including zero).
    """
    if mode not in ("serial", "async"):
        raise ValueError(f"unknown mode {mode!r}; expected 'serial' or 'async'")
    if watch_port is not None and mutation_rate <= 0:
        raise ValueError(
            "watch_port needs the mutation replay (mutation_rate > 0): "
            "standing queries over static data never produce a delta"
        )
    if reverse_rate > 0 and reverse_users < 1:
        raise ValueError(
            f"reverse_users must be >= 1 with reverse_rate > 0, "
            f"got {reverse_users}"
        )
    if snapshot_in is not None:
        from repro.storage import load_snapshot

        database, restored_epoch = load_snapshot(snapshot_in)
    else:
        database, restored_epoch = build_database(config), None
    workload = build_workload(config)
    policy = ServicePolicy(adaptive=True) if config.adaptive else None

    if mutation_rate > 0 or reverse_rate > 0:
        if mode != "serial":
            raise ValueError(
                "mutation replay is serial: interleaving a deterministic "
                "mutation stream with concurrent submits would make the "
                "per-query oracle ambiguous"
            )
        source = dynamic_from(database)
        if snapshot_in is not None:
            service_cm = QueryService.from_snapshot(
                snapshot_in,
                source=source,
                shards=config.shards,
                pool=config.pool,
                cache_size=config.cache_size,
                policy=policy,
            )
        else:
            service_cm = QueryService(
                source,
                shards=config.shards,
                pool=config.pool,
                cache_size=config.cache_size,
                policy=policy,
            )
        watch_server = None
        if watch_port is not None:
            from repro.watch.server import WatchServer

            watch_server = WatchServer(service_cm, port=watch_port).start()
            if watch_wait > 0:
                deadline = time.monotonic() + watch_wait
                while (
                    not service_cm.subscriptions
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
        watch_summary = None
        try:
            with service_cm as service:
                if reverse_rate > 0:
                    service.reverse_registry.seed_users(
                        reverse_users, source.m, seed=config.seed + 7
                    )
                summary, _ = replay_with_mutations(
                    service,
                    workload,
                    source,
                    mutation_rate=mutation_rate,
                    seed=config.seed,
                    verify=verify,
                    lock=watch_server.lock if watch_server else None,
                    reverse_rate=reverse_rate,
                    reverse_k=reverse_k,
                )
                cache = service.cache
                summary["cache"] = (
                    {
                        "maxsize": cache.maxsize,
                        "entries": len(cache),
                        "hits": cache.stats.hits,
                        "misses": cache.stats.misses,
                        "evictions": cache.stats.evictions,
                        "invalidations": cache.stats.invalidations,
                        "revalidated": cache.stats.revalidated,
                        "patched": cache.stats.patched,
                    }
                    if cache is not None
                    else None
                )
                adaptive = _adaptive_summary(service)
                if adaptive is not None:
                    summary["adaptive"] = adaptive
                pool_kind = service.pool_kind
                if watch_server is not None:
                    with watch_server.lock:
                        counters = service.counters
                        watch_summary = {
                            "port": watch_server.port,
                            "subscriptions": len(service.subscriptions),
                            "unchanged": counters.watch_unchanged,
                            "patched": counters.watch_patched,
                            "recomputed": counters.watch_recomputed,
                            "deltas": counters.watch_deltas,
                        }
                snapshot_info = None
                if snapshot_out is not None:
                    guard = (
                        watch_server.lock if watch_server else nullcontext()
                    )
                    with guard:
                        saved_epoch = service.save_snapshot(snapshot_out)
                    snapshot_info = {
                        "path": str(snapshot_out),
                        "epoch": saved_epoch,
                    }
        finally:
            if watch_server is not None:
                watch_server.close()
        report = {
            "config": asdict(config),
            "mode": "serial+mutations",
            "pool_resolved": pool_kind,
            "cpu_count": os.cpu_count(),
            "service": summary,
        }
        if watch_summary is not None:
            report["watch"] = watch_summary
        if restored_epoch is not None:
            report["snapshot_restored_epoch"] = restored_epoch
        if snapshot_info is not None:
            report["snapshot_saved"] = snapshot_info
        return report

    with QueryService(
        database,
        shards=config.shards,
        pool=config.pool,
        cache_size=config.cache_size,
        policy=policy,
    ) as service:
        if mode == "async":
            summary, results = replay_async(
                service, workload, concurrency=concurrency
            )
        else:
            summary, results = replay(service, workload)
        cache = service.cache
        summary["cache"] = (
            {
                "maxsize": cache.maxsize,
                "entries": len(cache),
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "evictions": cache.stats.evictions,
                "invalidations": cache.stats.invalidations,
            }
            if cache is not None
            else None
        )
        adaptive = _adaptive_summary(service)
        if adaptive is not None:
            summary["adaptive"] = adaptive
        if verify:
            oracle = dynamic_from(database)
            mismatches = sum(
                not answers_match(
                    served.item_ids,
                    served.scores,
                    oracle,
                    min(spec.k, database.n),
                    spec.scoring,
                )
                for spec, served in zip(workload, results)
            )
            summary["verified_identical"] = mismatches == 0
            summary["verify_mismatches"] = mismatches
        pool_kind = service.pool_kind
        snapshot_info = None
        if snapshot_out is not None:
            saved_epoch = service.save_snapshot(snapshot_out)
            snapshot_info = {"path": str(snapshot_out), "epoch": saved_epoch}

    report = {
        "config": asdict(config),
        "mode": mode,
        "pool_resolved": pool_kind,
        "cpu_count": os.cpu_count(),
        "service": summary,
    }
    if restored_epoch is not None:
        report["snapshot_restored_epoch"] = restored_epoch
    if snapshot_info is not None:
        report["snapshot_saved"] = snapshot_info

    if include_baseline:
        with QueryService(
            database, shards=1, pool="serial", cache_size=0
        ) as baseline:
            baseline_summary, baseline_results = replay(baseline, workload)
        report["baseline_unsharded_no_cache"] = baseline_summary
        report["results_identical_to_baseline"] = _served_answers(
            results
        ) == _served_answers(baseline_results)
        baseline_qps = baseline_summary["queries_per_second"]
        report["speedup_vs_baseline"] = (
            summary["queries_per_second"] / baseline_qps
            if baseline_qps > 0
            else float("inf")
        )
    return report


def adaptive_contrast(
    *,
    n: int = 3_000,
    m: int = 7,
    queries: int = 240,
    distinct: int = 12,
    k_max: int = 16,
    seed: int = 42,
    generator: str = "correlated",
    alpha: float | None = 0.001,
    phase_shift: int = 3,
    adversarial_ratio: float = 0.1,
    key_skew: float | None = None,
    static_widths: Sequence[int] = (1, 4, 16),
    adaptive_initial_width: int = 4,
    feedback_min_samples: int = 2,
    stationary_tolerance: float = 1.15,
    verify: bool = True,
) -> dict:
    """Adaptive vs every static block width, phase-shifting workload.

    The same phase-shifting query stream (alternating narrow-k and
    deep-k phases with adversarial deep-stop queries sprinkled in) is
    replayed over the simulated network once per static ``block_width``
    and once adaptively (:class:`repro.service.feedback.AdaptiveState`:
    feedback-calibrated planning plus the AIMD width controller).  Every
    cell runs cache-off, serial, single-shard, so wall-clock and
    message/byte counts measure execution, not caching.

    No static width wins everywhere — narrow phases punish wide blocks
    (wasted probes), deep phases punish narrow ones (per-round message
    overhead) — so the adaptive controller, which converges to each
    phase's best width within a few queries, should beat the *best*
    static cell on wall-clock and/or combined network cost
    (``messages * 256 + bytes``, the batch protocol's framing-dominated
    cost).  A *stationary* replay of the same shape pins the other side:
    adaptation overhead must stay within ``stationary_tolerance`` of the
    best static cell's wall-clock, or match it on the deterministic
    network cost.  With ``verify`` every served answer in every cell
    is checked bit-identical against the brute-force oracle, and all
    cells are cross-checked identical to each other — the contrast is
    between equally-correct executions.

    The default dataset is strongly *correlated* (``alpha = 0.001``):
    only when the lists agree does the stop depth track ``k``, which is
    what makes the phases genuinely disagree about the best width — on
    uniform data even ``k = 1`` stops deeper than the widest block and
    the widest static width quietly wins everything.
    """
    base = WorkloadConfig(
        generator=generator,
        alpha=alpha,
        n=n,
        m=m,
        seed=seed,
        queries=queries,
        distinct=distinct,
        k_max=k_max,
        shards=1,
        pool="serial",
        cache_size=0,
    )
    database = build_database(base)
    oracle = dynamic_from(database) if verify else None
    # The database is static, so the brute-force oracle's answer for a
    # given (k, scoring) never changes — compute each once, not per cell.
    expected_cache: dict[tuple, tuple] = {}

    def expected_for(k: int, scoring) -> tuple:
        key = (k, scoring_key(scoring))
        if key not in expected_cache:
            expected_cache[key] = fresh_topk(oracle, k, scoring)
        return expected_cache[key]

    def run_cell(workload: list[QuerySpec], policy: ServicePolicy) -> dict:
        with QueryService(
            database, shards=1, pool="serial", cache_size=0, policy=policy
        ) as service:
            # Warmup replay: the adaptive cell spends its bounded
            # exploration and converges here; static cells (and the
            # cache-off service itself) are unaffected.  The timed pass
            # then measures steady state — the regime a long-running
            # service actually operates in.  Phase transitions still
            # happen live inside the timed pass; only the one-time
            # cold-start exploration is amortized out.
            started = time.perf_counter()
            service.submit_many(list(workload))
            cold_seconds = time.perf_counter() - started
            started = time.perf_counter()
            results = service.submit_many(list(workload))
            seconds = time.perf_counter() - started
            messages = 0
            transferred = 0
            for served in results:
                network = served.result.extras.get("network") or {}
                messages += int(network.get("messages", 0))
                transferred += int(network.get("bytes", 0))
            cell: dict[str, object] = {
                "seconds": seconds,
                "cold_seconds": cold_seconds,
                "queries_per_second": (
                    len(results) / seconds if seconds > 0 else 0.0
                ),
                "messages": messages,
                "bytes": transferred,
                "network_cost": messages * 256 + transferred,
            }
            adaptive = _adaptive_summary(service)
            if adaptive is not None:
                cell["adaptive"] = adaptive
            if oracle is not None:
                mismatches = sum(
                    not answers_match(
                        served.item_ids,
                        served.scores,
                        oracle,
                        min(spec.k, database.n),
                        spec.scoring,
                        expected=expected_for(
                            min(spec.k, database.n), spec.scoring
                        ),
                    )
                    for spec, served in zip(workload, results)
                )
                cell["verified_identical"] = mismatches == 0
                cell["verify_mismatches"] = mismatches
            cell["_answers"] = _served_answers(results)
            return cell

    def run_grid(workload: list[QuerySpec]) -> dict:
        cells: dict[str, dict] = {}
        for width in static_widths:
            cells[f"static_w{width}"] = run_cell(
                workload,
                ServicePolicy(
                    transport="network",
                    wire_protocol="batch",
                    block_width=int(width),
                ),
            )
        cells["adaptive"] = run_cell(
            workload,
            ServicePolicy(
                transport="network",
                wire_protocol="batch",
                block_width=adaptive_initial_width,
                adaptive=True,
                feedback_min_samples=feedback_min_samples,
            ),
        )
        reference = cells["adaptive"]["_answers"]
        identical = all(
            cell["_answers"] == reference for cell in cells.values()
        )
        for cell in cells.values():
            del cell["_answers"]
        static = {
            label: cell
            for label, cell in cells.items()
            if label != "adaptive"
        }
        best_wall = min(static, key=lambda label: static[label]["seconds"])
        best_cost = min(
            static, key=lambda label: static[label]["network_cost"]
        )
        adaptive_cell = cells["adaptive"]
        wall_ratio = (
            adaptive_cell["seconds"] / static[best_wall]["seconds"]
            if static[best_wall]["seconds"] > 0
            else float("inf")
        )
        cost_ratio = (
            adaptive_cell["network_cost"] / static[best_cost]["network_cost"]
            if static[best_cost]["network_cost"] > 0
            else float("inf")
        )
        return {
            "cells": cells,
            "best_static_wall": best_wall,
            "best_static_network_cost": best_cost,
            "adaptive_wall_vs_best_static": wall_ratio,
            "adaptive_network_cost_vs_best_static": cost_ratio,
            "answers_identical_across_cells": identical,
            "all_verified": (
                all(
                    cell.get("verified_identical", False)
                    for cell in cells.values()
                )
                if verify
                else None
            ),
        }

    shifting_config = WorkloadConfig(
        **{
            **asdict(base),
            "phase_shift": phase_shift,
            "adversarial_ratio": adversarial_ratio,
            "key_skew": key_skew,
        }
    )
    shifting = run_grid(build_workload(shifting_config))
    stationary = run_grid(build_workload(base))

    beats_wall = shifting["adaptive_wall_vs_best_static"] < 1.0
    beats_cost = shifting["adaptive_network_cost_vs_best_static"] < 1.0
    # Wall-clock on a loaded box is noisy; the deterministic network
    # accounting is the authoritative tie-breaker for the stationary
    # side just as it is for the phase-shifting side.
    ties = (
        stationary["adaptive_wall_vs_best_static"] <= stationary_tolerance
        or stationary["adaptive_network_cost_vs_best_static"] <= 1.0
    )
    return {
        "benchmark": "adaptive_speedup",
        "config": {
            **asdict(shifting_config),
            "static_widths": [int(w) for w in static_widths],
            "adaptive_initial_width": adaptive_initial_width,
            "feedback_min_samples": feedback_min_samples,
            "stationary_tolerance": stationary_tolerance,
        },
        "cpu_count": os.cpu_count(),
        "phase_shifting": shifting,
        "stationary": stationary,
        "summary": {
            "adaptive_beats_best_static_wall": beats_wall,
            "adaptive_beats_best_static_network_cost": beats_cost,
            "adaptive_beats_best_static": beats_wall or beats_cost,
            "adaptive_ties_stationary_within_tolerance": ties,
            "all_verified": (
                bool(
                    shifting["all_verified"] and stationary["all_verified"]
                )
                if verify
                else None
            ),
        },
    }


def speedup_benchmark(
    *,
    n: int = 100_000,
    m: int = 3,
    queries: int = 400,
    distinct: int = 40,
    k_max: int = 20,
    shards: int = 4,
    generator: str = "uniform",
    zipf_theta: float = 1.0,
    seed: int = 42,
    pool: str = "auto",
) -> dict:
    """The unsharded-vs-sharded x cold-vs-warm service benchmark.

    For each shard count in {1, ``shards``} the same Zipf-popular
    workload is replayed three ways: cache off (the status-quo
    baseline), cache on starting cold (compulsory misses included), and
    cache on warm (an identical second replay).  All answers are
    cross-checked against the cache-off replay.  The headline
    ``speedup_s{S}_service_vs_unsharded_baseline`` compares the service
    as shipped (S shards, cache on, cold start) against replaying every
    query unsharded with no cache.

    The report also carries a ``mutation_workload`` section
    (:func:`mutation_contrast`, at a reduced scale): the same replay
    with a mutation before every query, served once by the delta-aware
    cache and once by the whole-epoch scheme — both oracle-verified.

    Note: shard fan-out buys wall-clock time only where there are cores
    to fan out to; ``cpu_count`` is recorded so single-core numbers read
    as what they are.
    """
    config = WorkloadConfig(
        generator=generator,
        n=n,
        m=m,
        seed=seed,
        queries=queries,
        distinct=distinct,
        k_max=k_max,
        zipf_theta=zipf_theta,
        shards=shards,
        pool=pool,
    )
    database = build_database(config)
    workload = build_workload(config)

    grid: dict[str, dict] = {}
    reference_answers: list[tuple] | None = None
    identical = True
    for shard_count in sorted({1, max(1, shards)}):
        label = "unsharded" if shard_count == 1 else f"sharded_s{shard_count}"
        cell: dict[str, object] = {"shards": shard_count}

        with QueryService(
            database, shards=shard_count, pool=pool, cache_size=0
        ) as service:
            off_summary, off_results = replay(service, workload)
        cell["cache_off"] = off_summary
        if reference_answers is None:
            reference_answers = _served_answers(off_results)
        else:
            identical &= reference_answers == _served_answers(off_results)

        with QueryService(
            database, shards=shard_count, pool=pool, cache_size=1024
        ) as service:
            cold_summary, cold_results = replay(service, workload)
            warm_summary, warm_results = replay(service, workload)
        cell["cache_cold"] = cold_summary
        cell["cache_warm"] = warm_summary
        identical &= reference_answers == _served_answers(cold_results)
        identical &= reference_answers == _served_answers(warm_results)
        grid[label] = cell

    sharded_label = f"sharded_s{shards}" if shards > 1 else "unsharded"
    sharded = grid[sharded_label]
    hit_rate = sharded["cache_cold"]["cache_hit_rate"]
    baseline_qps = grid["unsharded"]["cache_off"]["queries_per_second"]
    cold_qps = sharded["cache_cold"]["queries_per_second"]
    warm_qps = sharded["cache_warm"]["queries_per_second"]
    mutation = mutation_contrast(
        n=min(n, 5_000),
        m=m,
        queries=min(queries, 300),
        distinct=min(distinct, 30),
        k_max=k_max,
        zipf_theta=zipf_theta,
        seed=seed,
        generator=generator,
    )
    refresh = snapshot_refresh_benchmark(
        n=min(n, 5_000),
        m=m,
        epochs=min(queries, 120),
        seed=seed,
        generator=generator,
    )
    return {
        "benchmark": "service_speedup",
        "config": asdict(config),
        "cpu_count": os.cpu_count(),
        "grid": grid,
        "mutation_workload": mutation,
        "snapshot_refresh": refresh,
        "speedups": {
            f"speedup_s{shards}_service_vs_unsharded_baseline": (
                cold_qps / baseline_qps if baseline_qps > 0 else float("inf")
            ),
            f"speedup_s{shards}_warm_vs_cold_cache": (
                warm_qps / cold_qps if cold_qps > 0 else float("inf")
            ),
            f"speedup_s{shards}_vs_unsharded_cache_off": (
                sharded["cache_off"]["queries_per_second"] / baseline_qps
                if baseline_qps > 0
                else float("inf")
            ),
        },
        "cache_hit_rate_zipf_replay": hit_rate,
        "results_identical_to_cache_off": identical,
    }


def write_report(report: dict, path) -> Path:
    """Write a JSON report, creating parent directories as needed."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return out
