"""Datagen-driven workload replay through a :class:`QueryService`.

A *workload* is a sequence of queries drawn from a pool of distinct
query shapes with Zipf-skewed popularity — the canonical model of
production query traffic, where a few hot queries dominate.  Replaying
one against a :class:`QueryService` exercises every part of the
subsystem at once: the planner sees mixed ``k``, the shard executor sees
every cache miss, and the cache sees the popularity skew it exists for.

:func:`run_workload` replays one configuration and returns a JSON-ready
summary (written under ``reports/service_*.json`` by the
``serve-workload`` CLI).  A static replay is cross-checked answer by
answer against an unsharded, cache-off replay of the same queries.

**Mutation replay** (``serve-workload --mutation-rate R``): the same
Zipf-popular query stream interleaved with a seeded stream of random
``update``/``insert``/``remove`` mutations against a live
:class:`repro.dynamic.DynamicDatabase` — the workload the delta-aware
result cache exists for.  ``--verify`` cross-checks every served answer
(hit, revalidated, patched or fresh) against a brute-force ranking of
the database's *current* state, bit for bit.

Timings here are indicative only; the service benchmark with bounds is
``perfbench/`` (see ``perfbench/README.md`` and ``BENCHMARK.json``),
which reuses :class:`WorkloadMutator`, :func:`dynamic_from`,
:func:`fresh_topk` and :func:`answers_match` from this module.
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
from repro.service.cache import CACHE_OUTCOMES
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


def write_report(report: dict, path) -> Path:
    """Write a JSON report, creating parent directories as needed."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return out
