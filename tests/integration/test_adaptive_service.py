"""Service-level integration of the adaptive front-end.

* ``gather_many``'s AIMD admission control: replays stay answer- and
  cache-accounting-identical to the serial path, and every executed
  query's :class:`ServiceStats` records the admission window it ran
  under.
* ``ServicePolicy(adaptive=True)``: every local execution feeds its arm
  of the feedback store, and the planner explores each candidate before
  calibrated selection takes over.  Forced algorithms, reverse top-k
  fallbacks and snapshot refreshes go through the same shard-pool path,
  and every spec serves the static service's answer.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.algorithms.base import get_algorithm
from repro.datagen.base import make_generator
from repro.exec import QuerySpec
from repro.scoring import MIN, SUM, WeightedSumScoring
from repro.service import QueryService, ServicePolicy
from repro.service.feedback import plan_signature
from repro.service.workload import WorkloadConfig, dynamic_from, run_workload

#: Every algorithm the service plans or honors when forced.
SERVED_ALGORITHMS = ("auto", "ta", "bpa", "bpa2", "nra", "qc")


@pytest.fixture(scope="module")
def database():
    return make_generator("uniform").generate(400, 3, seed=23)


class TestAdaptiveGatherMany:
    def test_adaptive_replay_matches_serial(self, database):
        specs = [QuerySpec("auto", k=1 + (i % 7)) for i in range(30)]
        with QueryService(database, shards=1, pool="serial") as service:
            serial = service.submit_many(specs)
            serial_counts = (
                service.counters.executions,
                service.counters.cache_hits,
            )
        with QueryService(database, shards=1, pool="serial") as service:
            adaptive = asyncio.run(service.gather_many(specs, concurrency=8))
            adaptive_counts = (
                service.counters.executions,
                service.counters.cache_hits,
            )
        assert [r.item_ids for r in serial] == [r.item_ids for r in adaptive]
        assert [r.scores for r in serial] == [r.scores for r in adaptive]
        assert serial_counts == adaptive_counts

    def test_executed_queries_record_their_window(self, database):
        specs = [QuerySpec("ta", k=k) for k in range(1, 9)]
        with QueryService(database, shards=1, pool="serial", cache_size=0) as service:
            results = asyncio.run(service.gather_many(specs, concurrency=4))
        windows = [r.stats.concurrency_window for r in results]
        # Cache off: every query executed, so every stat carries the
        # window it was admitted under, clamped to the ceiling.
        assert all(1 <= w <= 4 for w in windows)

    def test_cache_hits_and_serial_submits_report_window_zero(self, database):
        spec = QuerySpec("bpa2", k=3)
        with QueryService(database, shards=1, pool="serial") as service:
            assert service.submit(spec).stats.concurrency_window == 0
            hit = asyncio.run(service.gather_many([spec], concurrency=2))[0]
            assert hit.stats.cache_hit
            assert hit.stats.concurrency_window == 0

    @pytest.mark.parametrize("ceiling", [1, 3, 8])
    def test_serve_concurrently_admits_within_the_ceiling(
        self, database, ceiling
    ):
        specs = [QuerySpec("bpa", k=k) for k in range(1, 10)]
        with QueryService(
            database, shards=1, pool="serial", cache_size=0
        ) as service:
            expected = service.submit_many(specs)
            served = service.serve_concurrently(specs, concurrency=ceiling)
        assert [(r.item_ids, r.scores) for r in served] == [
            (r.item_ids, r.scores) for r in expected
        ]
        assert all(
            1 <= r.stats.concurrency_window <= ceiling for r in served
        )


class TestAdaptivePlanningOnTheShardPool:
    def test_local_executions_feed_the_feedback_store(self, database):
        policy = ServicePolicy(adaptive=True, feedback_min_samples=1)
        with QueryService(
            database, shards=1, pool="serial", cache_size=0, policy=policy
        ) as service:
            plans = [
                service.submit(QuerySpec("auto", k=5)).stats.plan
                for _ in range(4)
            ]
            feedback = service.adaptive_state.feedback
            # Least-sampled candidate first, ties by name.
            assert [plan.algorithm for plan in plans[:3]] == [
                "bpa",
                "bpa2",
                "ta",
            ]
            assert all(plan.reason.startswith("exploring") for plan in plans[:3])
            # Every arm holds its one sample: calibrated selection.
            assert not plans[3].reason.startswith("exploring")
            assert feedback.arm_count == 3
            assert service.counters.replans == feedback.replans

    def test_workload_report_names_the_adaptive_fields(self):
        config = WorkloadConfig(
            n=300, m=3, queries=40, distinct=6, k_max=8, shards=1,
            pool="serial", adaptive=True,
        )
        report = run_workload(config, include_baseline=False)
        assert set(report["service"]["adaptive"]) == {
            "drift_epochs",
            "replans",
            "arms",
            "overfetch_override",
            "last_drift_divergence",
        }

    @pytest.mark.parametrize("algorithm", ["ta", "bpa", "bpa2", "nra", "qc"])
    def test_forced_algorithms_feed_their_own_arm(self, database, algorithm):
        policy = ServicePolicy(adaptive=True, feedback_min_samples=1)
        with QueryService(
            database, shards=1, pool="serial", cache_size=0, policy=policy
        ) as service:
            served = service.submit(QuerySpec(algorithm, k=6))
            feedback = service.adaptive_state.feedback
            signature = plan_signature(SUM, served.stats.plan.k_fetch)
            assert served.stats.plan.algorithm == algorithm
            assert feedback.arm_count == 1
            assert feedback.samples(algorithm, signature) == 1
            # Only a run the cost model priced seeds the seconds-per-cost
            # rate; qc is the one algorithm it does not price.
            unseeded = feedback.observed_cost(algorithm, signature) is None
            assert unseeded == (algorithm == "qc")
        reference = get_algorithm(algorithm).run(database, 6)
        assert served.item_ids == reference.item_ids
        assert served.scores == reference.scores

    @pytest.mark.parametrize(
        "adaptive", [False, True], ids=["static", "adaptive"]
    )
    def test_reverse_fallbacks_force_bpa(self, database, adaptive, monkeypatch):
        from repro.reverse import brute_force_reverse_topk

        planned = []
        execute = QueryService._execute_plan

        def recorded(self, plan, spec):
            planned.append(plan.algorithm)
            return execute(self, plan, spec)

        monkeypatch.setattr(QueryService, "_execute_plan", recorded)
        policy = ServicePolicy(adaptive=adaptive, feedback_min_samples=1)
        with QueryService(
            database, shards=1, pool="serial", policy=policy
        ) as service:
            registry = service.reverse_registry
            registry.seed_users(12, database.m, seed=4)
            item = service.submit(QuerySpec("bpa2", 1)).item_ids[0]
            planned.clear()
            result = service.submit_reverse(item, 5)
        assert result.stats.fallbacks > 0
        assert result.users == brute_force_reverse_topk(
            database, registry, item, 5
        )
        # Adaptive exploration moves "auto" plans only: the fallback's
        # stop-depth search is BPA under either policy.
        assert planned == ["bpa"] * result.stats.fallbacks

    def test_feedback_survives_a_snapshot_refresh(self):
        source = dynamic_from(
            make_generator("uniform").generate(200, 3, seed=3)
        )
        policy = ServicePolicy(adaptive=True, feedback_min_samples=1)
        with QueryService(
            source, shards=1, pool="serial", cache_size=0, policy=policy
        ) as service:
            state = service.adaptive_state
            explored = [
                service.submit(QuerySpec("auto", k=4)) for _ in range(3)
            ]
            assert all(
                r.stats.plan.reason.startswith("exploring") for r in explored
            )
            last = explored[-1].item_ids[-1]
            source.update_score(0, last, 10.0)
            after = service.submit(QuerySpec("auto", k=4))
            assert service.epoch == 1
            assert after.item_ids[0] == last
            # The refresh rebuilt the planner over the same store: every
            # candidate arm is still mature, so nothing is re-explored.
            assert service.adaptive_state is state
            assert not after.stats.plan.reason.startswith("exploring")
            assert state.feedback.arm_count == 3


class TestAdaptiveServesTheStaticAnswer:
    """Adaptation moves which exact plan runs, never the answer."""

    @pytest.mark.parametrize(
        "scoring",
        [SUM, MIN, WeightedSumScoring([0.2, 1.0, 0.5])],
        ids=["sum", "min", "weighted"],
    )
    @pytest.mark.parametrize("algorithm", SERVED_ALGORITHMS)
    def test_every_spec_matches_a_static_service(
        self, database, algorithm, scoring
    ):
        specs = [
            QuerySpec(algorithm, k=k, scoring=scoring)
            for k in (1, 5, 5, 5, 12, 40)
        ]
        with QueryService(
            database, shards=2, pool="serial", cache_size=0
        ) as static:
            expected = static.submit_many(specs)
        policy = ServicePolicy(
            adaptive=True, feedback_min_samples=1, drift_window=4
        )
        with QueryService(
            database, shards=2, pool="serial", cache_size=0, policy=policy
        ) as adaptive:
            served = adaptive.submit_many(specs)
            assert adaptive.counters.executions == len(specs)
        assert [(r.item_ids, r.scores) for r in served] == [
            (r.item_ids, r.scores) for r in expected
        ]
