"""QueryService end to end: correctness, caching, epochs, stats, pools."""

from __future__ import annotations

import pytest

from repro.algorithms.base import get_algorithm
from repro.datagen import UniformGenerator
from repro.dynamic import DynamicDatabase
from repro.errors import InvalidQueryError
from repro.exec import QuerySpec
from repro.scoring import MIN, SUM
from repro.service import QueryService, ServicePolicy
from repro.service.workload import WorkloadConfig, build_workload, run_workload


@pytest.fixture(scope="module")
def database():
    return UniformGenerator().generate(400, 3, seed=13)


@pytest.fixture()
def service(database):
    with QueryService(database, shards=3, pool="serial") as svc:
        yield svc


class TestServedAnswers:
    def test_matches_the_reference_algorithm(self, service, database):
        for name in ("ta", "bpa", "bpa2", "nra"):
            for k in (1, 7, 50):
                served = service.submit(QuerySpec(name, k=k))
                reference = get_algorithm(name).run(database, k)
                assert served.item_ids == reference.item_ids, (name, k)
                assert served.scores == reference.scores, (name, k)

    def test_cache_on_equals_cache_off(self, database):
        specs = [QuerySpec("auto", k=k) for k in (3, 9, 3, 17, 9, 3)]
        with QueryService(database, shards=3, pool="serial") as cached, \
                QueryService(
                    database, shards=3, pool="serial", cache_size=0
                ) as uncached:
            a = cached.submit_many(specs)
            b = uncached.submit_many(specs)
        assert [(r.item_ids, r.scores) for r in a] == [
            (r.item_ids, r.scores) for r in b
        ]
        assert any(r.stats.cache_hit for r in a)
        assert not any(r.stats.cache_hit for r in b)

    def test_k_larger_than_n_is_clamped(self, service, database):
        served = service.submit(QuerySpec("bpa2", k=10 * database.n))
        assert len(served.items) == database.n
        assert served.stats.plan.k_requested == database.n

    def test_k_below_one_raises(self, service):
        with pytest.raises(InvalidQueryError):
            service.submit(QuerySpec("bpa2", k=0))

    def test_empty_batch_returns_empty_list(self, service):
        assert service.submit_many([]) == []

    def test_non_default_scoring_is_served_exactly(self, service, database):
        served = service.submit(QuerySpec("bpa2", k=5, scoring=MIN))
        reference = get_algorithm("bpa2").run(database, 5, MIN)
        assert served.item_ids == reference.item_ids
        assert served.scores == reference.scores


class TestCachingAndStats:
    def test_repeat_query_hits_and_skips_execution(self, service):
        first = service.submit(QuerySpec("auto", k=6))
        second = service.submit(QuerySpec("auto", k=6))
        assert not first.stats.cache_hit
        assert second.stats.cache_hit
        assert second.stats.tally.total == 0  # no list was touched
        assert second.item_ids == first.item_ids

    def test_overfetch_shares_entries_across_k(self, service):
        big = service.submit(QuerySpec("auto", k=8))
        small = service.submit(QuerySpec("auto", k=5))  # same bucket (8)
        assert small.stats.cache_hit
        assert small.item_ids == big.item_ids[:5]
        assert small.stats.plan.k_fetch == 8

    def test_stats_describe_the_execution(self, service):
        served = service.submit(QuerySpec("bpa2", k=4, scoring=SUM))
        stats = served.stats
        assert stats.plan.algorithm == "bpa2"
        assert stats.plan.backend == "kernel"
        assert stats.fanout == service.shards
        assert stats.tally.total > 0
        assert stats.seconds >= 0.0
        assert stats.epoch == 0

    def test_counters_aggregate(self, database):
        with QueryService(database, shards=2, pool="serial") as svc:
            svc.submit_many([QuerySpec("auto", k=3)] * 5)
            assert svc.counters.queries == 5
            assert svc.counters.cache_hits == 4
            assert svc.counters.executions == 1
            assert svc.counters.cache_hit_rate == pytest.approx(0.8)

    def test_nearby_weight_vectors_never_share_a_cache_entry(self, database):
        # Regression: WeightedSumScoring's 6-significant-digit name
        # rendered 0.3 and 0.30000004 identically, and the name feeds
        # the cache key — caching under one vector must never serve
        # the other's (different) ranking.
        from repro.algorithms.naive import brute_force_topk
        from repro.scoring import WeightedSumScoring

        close = WeightedSumScoring([0.3, 1.0, 0.5])
        closer = WeightedSumScoring([0.30000004, 1.0, 0.5])
        with QueryService(database, shards=1, pool="serial") as svc:
            cached = svc.submit(QuerySpec("bpa2", k=12, scoring=close))
            other = svc.submit(QuerySpec("bpa2", k=12, scoring=closer))
            assert not other.stats.cache_hit
            for served, scoring in ((cached, close), (other, closer)):
                oracle = brute_force_topk(database, 12, scoring)
                assert served.scores == tuple(e.score for e in oracle)

    def test_nra_bypasses_the_shard_fanout(self, service):
        served = service.submit(QuerySpec("nra", k=4))
        assert served.stats.fanout == 1

    def test_policy_without_random_access_plans_nra(self, database):
        with QueryService(
            database,
            shards=2,
            pool="serial",
            policy=ServicePolicy(allow_random=False),
        ) as svc:
            served = svc.submit(QuerySpec("auto", k=4))
        assert served.stats.plan.algorithm == "nra"
        reference = get_algorithm("nra").run(database, 4)
        assert served.item_ids == reference.item_ids

    def test_nra_is_never_overfetched(self, database):
        # NRA ranks by lower-bound scores, so only the full returned set
        # is exact — a truncated prefix of a larger fetch would serve
        # wrong items.  The planner must fetch exactly k, cache or not.
        with QueryService(database, shards=2, pool="serial") as svc:
            for k in (3, 5, 9):
                served = svc.submit(QuerySpec("nra", k=k))
                assert served.stats.plan.k_fetch == k
                reference = get_algorithm("nra").run(database, k)
                assert served.item_ids == reference.item_ids
                assert served.scores == reference.scores


class TestEpochInvalidation:
    def _dynamic(self) -> DynamicDatabase:
        rows = [
            [float((7 * i) % 23) for i in range(23)],
            [float((5 * i) % 23) for i in range(23)],
        ]
        return DynamicDatabase.from_score_rows(rows)

    def test_mutation_bumps_epoch_and_patches_affected_results(self):
        source = self._dynamic()
        with QueryService(source, shards=2, pool="serial") as svc:
            before = svc.submit(QuerySpec("auto", k=3))
            assert svc.epoch == 0
            source.update_score(0, 11, 1_000.0)
            assert svc.epoch == 1
            after = svc.submit(QuerySpec("auto", k=3))
            # The delta log proves the touched item is the only change:
            # the cached answer is repaired in place, never served stale.
            assert after.stats.cache_outcome == "patched"
            assert after.item_ids[0] == 11
            assert after.item_ids != before.item_ids

    def test_nra_entries_expire_whole_epoch_and_match_fresh_runs(self):
        # NRA reports lower-bound scores, so the delta certificate is
        # unsound for it: after any mutation a cached NRA entry must
        # recompute, and the recomputed serve must equal a fresh NRA
        # run over the same data (order, scores, lower bounds and all).
        rows = [
            [float((7 * i) % 23) for i in range(23)],
            [float((5 * i) % 23) for i in range(23)],
        ]
        source = DynamicDatabase.from_score_rows(rows)
        fresh_source = DynamicDatabase.from_score_rows(rows)
        with QueryService(source, shards=1, pool="serial") as svc, \
                QueryService(
                    fresh_source, shards=1, pool="serial", cache_size=0
                ) as oracle:
            svc.submit(QuerySpec("nra", k=4))
            member = svc.submit(QuerySpec("nra", k=4)).item_ids[2]
            for db in (source, fresh_source):
                db.update_score(0, member, 40.0)
            served = svc.submit(QuerySpec("nra", k=4))
            fresh = oracle.submit(QuerySpec("nra", k=4))
            assert served.stats.cache_outcome == "miss"
            assert served.item_ids == fresh.item_ids
            assert served.scores == fresh.scores

    def test_whole_epoch_policy_drops_stale_results(self):
        # delta_log_depth=0 restores the pre-delta behavior: any epoch
        # change is a full miss and the query re-executes.
        source = self._dynamic()
        policy = ServicePolicy(delta_log_depth=0)
        with QueryService(source, shards=2, pool="serial", policy=policy) as svc:
            svc.submit(QuerySpec("auto", k=3))
            source.update_score(0, 11, 1_000.0)
            after = svc.submit(QuerySpec("auto", k=3))
            assert not after.stats.cache_hit
            assert after.stats.cache_outcome == "miss"
            assert after.item_ids[0] == 11
            assert svc.mutation_log is None

    def test_every_mutation_kind_invalidates(self):
        source = self._dynamic()
        with QueryService(source, shards=1, pool="serial") as svc:
            svc.submit(QuerySpec("auto", k=2))
            source.apply_delta(1, 3, 5.0)
            source.insert_item(99, [50.0, 50.0])
            source.remove_item(0)
            assert svc.epoch == 3
            served = svc.submit(QuerySpec("auto", k=2))
            assert 99 in served.item_ids
            assert svc.counters.snapshot_refreshes == 1  # lazily, once

    def test_emptied_source_serves_empty_answers_then_recovers(self):
        source = DynamicDatabase.from_score_rows([[3.0, 1.0], [1.0, 3.0]])
        with QueryService(source, shards=2, pool="serial") as svc:
            assert len(svc.submit(QuerySpec("ta", k=2)).items) == 2
            source.remove_item(0)
            source.remove_item(1)
            served = svc.submit(QuerySpec("ta", k=2))
            assert served.items == ()
            assert served.stats.plan.reason == "database is empty"
            with pytest.raises(InvalidQueryError):
                svc.submit(QuerySpec("ta", k=0))  # k < 1 is still an error
            source.insert_item(7, [5.0, 5.0])
            again = svc.submit(QuerySpec("ta", k=2))
            assert again.item_ids == (7,)

    def test_manual_invalidate_forces_a_miss(self, database):
        with QueryService(database, shards=1, pool="serial") as svc:
            svc.submit(QuerySpec("auto", k=3))
            svc.invalidate()
            again = svc.submit(QuerySpec("auto", k=3))
            assert not again.stats.cache_hit
            assert svc.cache.stats.invalidations == 1

    def test_manual_invalidate_reclaims_dead_entries_eagerly(self):
        # With a delta log, invalidate() poisons the floor: every cached
        # entry is permanently unprovable, so it is purged immediately
        # instead of lingering until lookup or LRU eviction.
        source = self._dynamic()
        with QueryService(source, shards=1, pool="serial") as svc:
            for k in (2, 3, 5):
                svc.submit(QuerySpec("auto", k=k))
            assert len(svc.cache) > 0
            svc.invalidate()
            assert len(svc.cache) == 0
            after = svc.submit(QuerySpec("auto", k=3))
            assert after.stats.cache_outcome == "miss"


class TestPools:
    def test_thread_pool_serves_identical_answers(self, database):
        with QueryService(database, shards=3, pool="thread") as svc:
            served = svc.submit(QuerySpec("bpa2", k=9))
        reference = get_algorithm("bpa2").run(database, 9)
        assert served.item_ids == reference.item_ids
        assert served.scores == reference.scores

    def test_process_pool_serves_identical_answers(self):
        database = UniformGenerator().generate(120, 3, seed=3)
        with QueryService(
            database, shards=2, pool="process", cache_size=0
        ) as svc:
            served = [svc.submit(QuerySpec("bpa2", k=k)) for k in (1, 5, 30)]
        for result, k in zip(served, (1, 5, 30)):
            reference = get_algorithm("bpa2").run(database, k)
            assert result.item_ids == reference.item_ids
            assert result.scores == reference.scores
            assert result.stats.fanout == 2

    def test_process_pool_reload_reuses_workers_across_mutations(self):
        import os

        rows = [
            [float((7 * i) % 31) for i in range(30)],
            [float((11 * i) % 29) for i in range(30)],
        ]
        source = DynamicDatabase.from_score_rows(rows)
        with QueryService(
            source, shards=2, pool="process", cache_size=0
        ) as svc:
            svc.submit(QuerySpec("bpa2", k=3))
            pids_before = {
                pool.submit(os.getpid).result()
                for pool in svc._executor._process_pools
            }
            source.update_score(0, 5, 500.0)
            after = svc.submit(QuerySpec("bpa2", k=3))
            assert after.item_ids[0] == 5  # new snapshot is live
            pids_after = {
                pool.submit(os.getpid).result()
                for pool in svc._executor._process_pools
            }
            assert pids_before == pids_after  # no process respawn


class TestWorkloadReplay:
    def test_run_workload_report_shape_and_equality(self, tmp_path):
        config = WorkloadConfig(
            n=500, m=3, queries=40, distinct=8, k_max=6, shards=2,
            pool="serial",
        )
        report = run_workload(config)
        assert report["results_identical_to_baseline"] is True
        summary = report["service"]
        assert summary["queries"] == 40
        assert summary["cache_hit_rate"] > 0.5  # zipf-popular replay
        assert summary["shards"] == 2
        assert set(summary["accesses"]) == {"sorted", "random", "direct"}

    def test_build_workload_is_seeded_and_sized(self):
        config = WorkloadConfig(n=100, queries=25, distinct=5, seed=9)
        first = build_workload(config)
        second = build_workload(config)
        assert first == second
        assert len(first) == 25
        assert len({spec.k for spec in first}) <= 5


class TestPatchedRefreshMatchesRebuild:
    """A patched snapshot refresh lands on the bytes a cold rebuild does."""

    def test_patched_and_rebuilt_snapshots_are_byte_identical(self):
        import numpy as np

        from repro.service.workload import (
            WorkloadMutator,
            build_database,
            dynamic_from,
        )

        base = build_database(WorkloadConfig(n=2_000, m=3, seed=12))
        spec = QuerySpec("bpa2", k=10)
        runs = {}
        for label, policy in (
            ("patched", None),
            ("rebuild", ServicePolicy(snapshot_patch_budget=0)),
        ):
            source = dynamic_from(base)
            mutator = WorkloadMutator(source, np.random.default_rng(15))
            with QueryService(
                source, shards=1, pool="serial", cache_size=0, policy=policy
            ) as service:
                answers = []
                for _ in range(40):
                    for _ in range(3):
                        mutator.apply_one()
                    served = service.submit(spec)
                    answers.append((served.item_ids, served.scores))
                counters = service.counters
                runs[label] = (
                    answers,
                    service._executor.database.lists,
                    counters.snapshot_patches,
                    counters.snapshot_refreshes,
                )
        answers, lists, patches, refreshes = runs["patched"]
        rebuilt_answers, rebuilt_lists, rebuilt_patches, _ = runs["rebuild"]
        assert answers == rebuilt_answers
        assert len(lists) == len(rebuilt_lists) == 3
        for ours, theirs in zip(lists, rebuilt_lists):
            assert ours.items_array.tobytes() == theirs.items_array.tobytes()
            assert ours.scores_array.tobytes() == theirs.scores_array.tobytes()
            assert ours.rank_by_row.tobytes() == theirs.rank_by_row.tobytes()
        # The default service patched every refresh; the budget-0 control
        # rebuilt every time.
        assert patches == refreshes > 0
        assert rebuilt_patches == 0


class TestPerScoringStateIsBounded:
    """One distinct scoring per query (e.g. one per reverse-top-k user)
    must not grow any per-scoring structure past its cap."""

    def test_ten_thousand_scorings_stay_under_the_cap(self):
        import numpy as np

        from repro.columnar import scoring_capacity
        from repro.scoring import WeightedSumScoring

        database = UniformGenerator().generate(40, 3, seed=8)
        cap = scoring_capacity(database.n)
        assert cap < 10_000
        rng = np.random.default_rng(0)
        with QueryService(database, shards=1, pool="serial") as service:
            planner = service.planner
            snapshot = planner._database
            peaks = {"statistics": 0, "memos": 0}
            for index in range(10_000):
                scoring = WeightedSumScoring((1.0 - rng.random(3)).tolist())
                algorithm = "auto" if index % 4 else "bpa2"
                service.submit(QuerySpec(algorithm, k=1 + index % 7, scoring=scoring))
                sizes = {
                    "statistics": len(planner._statistics),
                    "memos": len(snapshot._memos),
                }
                for name, size in sizes.items():
                    peaks[name] = max(peaks[name], size)
            assert service.planner is planner  # one snapshot throughout
        assert peaks == {"statistics": cap, "memos": cap}
