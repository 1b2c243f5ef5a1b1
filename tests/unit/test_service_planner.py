"""QueryPlanner: observed statistics, cost ranking, overfetch, policies."""

from __future__ import annotations

import pytest

from repro.algorithms.base import get_algorithm
from repro.columnar import ColumnarDatabase
from repro.datagen import UniformGenerator
from repro.errors import InvalidQueryError
from repro.exec import QuerySpec
from repro.scoring import MIN, SUM
from repro.service.planner import (
    AUTO_CANDIDATES,
    ListStatistics,
    QueryPlanner,
    ServicePolicy,
)


@pytest.fixture(scope="module")
def columnar() -> ColumnarDatabase:
    return ColumnarDatabase.from_database(
        UniformGenerator().generate(300, 3, seed=5)
    )


@pytest.fixture(scope="module")
def planner(columnar) -> QueryPlanner:
    return QueryPlanner(columnar)


class TestListStatistics:
    def test_stop_estimate_matches_definition(self, columnar):
        stats = ListStatistics(columnar, SUM)
        for k in (1, 5, 20):
            p = stats.ta_stop_estimate(k)
            assert 1 <= p <= columnar.n
            # p is the *first* position where the k-th total meets the
            # threshold: it qualifies, and p-1 (if any) does not.
            assert stats.kth_total(k) >= stats.threshold_at(p)
            if p > 1:
                assert stats.kth_total(k) < stats.threshold_at(p - 1)

    def test_stop_estimate_is_monotone_in_k(self, columnar):
        stats = ListStatistics(columnar, SUM)
        estimates = [stats.ta_stop_estimate(k) for k in (1, 3, 10, 40, 150)]
        assert estimates == sorted(estimates)

    def test_estimate_lower_bounds_the_real_stop_position(self, columnar):
        stats = ListStatistics(columnar, SUM)
        for k in (1, 5, 25):
            measured = get_algorithm("ta").run(columnar, k, SUM).stop_position
            assert stats.ta_stop_estimate(k) <= measured

    def test_validates_arguments(self, columnar):
        stats = ListStatistics(columnar, SUM)
        with pytest.raises(InvalidQueryError):
            stats.kth_total(0)
        with pytest.raises(InvalidQueryError):
            stats.threshold_at(columnar.n + 1)


class TestPlanning:
    def test_auto_resolves_to_a_candidate_with_min_cost(self, planner):
        plan = planner.plan(QuerySpec("auto", k=10), cache_enabled=False)
        assert plan.algorithm in AUTO_CANDIDATES
        assert plan.predicted_costs[plan.algorithm] == min(
            plan.predicted_costs[name] for name in AUTO_CANDIDATES
        )

    def test_explicit_algorithm_is_honored(self, planner):
        plan = planner.plan(QuerySpec("bpa2", k=10), cache_enabled=False)
        assert plan.algorithm == "bpa2"
        assert plan.backend == "kernel"

    def test_non_default_options_fall_back_to_reference(self, planner):
        plan = planner.plan(
            QuerySpec("ta", k=10, options={"memoize": True}),
            cache_enabled=False,
        )
        assert plan.backend == "reference"

    def test_no_random_access_policy_forces_nra(self, columnar):
        planner = QueryPlanner(
            columnar, policy=ServicePolicy(allow_random=False)
        )
        plan = planner.plan(QuerySpec("auto", k=5), cache_enabled=True)
        assert plan.algorithm == "nra"
        # An explicit NRA request is satisfiable; anything needing
        # random access is refused, never silently substituted.
        assert (
            planner.plan(QuerySpec("nra", k=5), cache_enabled=True).algorithm
            == "nra"
        )
        with pytest.raises(InvalidQueryError, match="random access"):
            planner.plan(QuerySpec("bpa2", k=5), cache_enabled=True)

    def test_k_is_clamped_to_the_database(self, planner, columnar):
        plan = planner.plan(QuerySpec("auto", k=10_000), cache_enabled=False)
        assert plan.k_requested == columnar.n
        assert plan.k_fetch == columnar.n
        with pytest.raises(InvalidQueryError):
            planner.plan(QuerySpec("auto", k=0), cache_enabled=False)

    def test_statistics_are_cached_per_scoring(self, planner):
        assert planner.statistics(SUM) is planner.statistics(SUM)
        assert planner.statistics(SUM) is not planner.statistics(MIN)


class TestOverfetch:
    def test_bucketing_rounds_up_to_powers_of_two(self, planner):
        assert planner.bucketed_k(1, cache_enabled=True) == 1
        assert planner.bucketed_k(5, cache_enabled=True) == 8
        assert planner.bucketed_k(8, cache_enabled=True) == 8
        assert planner.bucketed_k(9, cache_enabled=True) == 16

    def test_bucketing_is_capped_by_n(self, columnar):
        planner = QueryPlanner(columnar)
        assert planner.bucketed_k(columnar.n, cache_enabled=True) == columnar.n

    def test_no_overfetch_without_cache_or_when_disabled(self, columnar):
        planner = QueryPlanner(columnar)
        assert planner.bucketed_k(5, cache_enabled=False) == 5
        frugal = QueryPlanner(columnar, policy=ServicePolicy(overfetch=False))
        assert frugal.bucketed_k(5, cache_enabled=True) == 5

    def test_plans_expose_the_overfetch(self, planner):
        plan = planner.plan(QuerySpec("bpa2", k=5), cache_enabled=True)
        assert plan.k_requested == 5
        assert plan.k_fetch == 8
        assert plan.overfetched


class TestShardAutoTuning:
    def test_serial_pool_keeps_one_shard(self, planner):
        decision = planner.choose_shard_count(pool="serial", cpus=1)
        assert decision.shards == 1
        assert decision.workers == 1
        # Sharding on one worker only adds work: cost must not decrease.
        assert decision.predicted_costs[1] == min(
            decision.predicted_costs.values()
        )

    def test_parallel_pool_fans_out(self, planner):
        decision = planner.choose_shard_count(pool="process", cpus=8)
        assert decision.shards > 1
        assert decision.workers == 8

    def test_candidates_are_bounded_powers_of_two(self, planner):
        decision = planner.choose_shard_count(
            pool="process", cpus=4, max_shards=6
        )
        assert set(decision.predicted_costs) == {1, 2, 4}

    def test_empty_database_decides_one_shard(self):
        from repro.lists.database import Database

        empty = ColumnarDatabase.from_database(Database.from_score_rows([[]]))
        decision = QueryPlanner(empty).choose_shard_count(pool="process", cpus=4)
        assert decision.shards == 1

    def test_service_exposes_the_decision(self, columnar):
        from repro.service import QueryService

        with QueryService(columnar, shards="auto", pool="serial") as service:
            assert service.shard_decision is not None
            assert service.shards == service.shard_decision.shards == 1
            served = service.submit(QuerySpec("bpa2", k=3))
            assert served.stats.planned_shards == service.shards

    def test_fixed_shards_skip_the_tuner(self, columnar):
        from repro.service import QueryService

        with QueryService(columnar, shards=2, pool="serial") as service:
            assert service.shard_decision is None
            assert service.shards == 2

    def test_invalid_shard_request_rejected(self, columnar):
        from repro.service import QueryService

        with pytest.raises(ValueError, match="positive int or 'auto'"):
            QueryService(columnar, shards=0)


class TestFeedbackDrivenPlanning:
    def _feedback_planner(self, columnar, **kwargs):
        from repro.service.feedback import PlanFeedback

        feedback = PlanFeedback(**kwargs)
        planner = QueryPlanner(columnar, feedback=feedback)
        return planner, feedback

    def test_exploration_covers_every_candidate(self, columnar):
        planner, feedback = self._feedback_planner(columnar, min_samples=1)
        from repro.service.feedback import plan_signature

        seen = set()
        for _ in range(len(AUTO_CANDIDATES)):
            plan = planner.plan(QuerySpec("auto", k=10), cache_enabled=True)
            seen.add(plan.algorithm)
            feedback.record(
                algorithm=plan.algorithm,
                signature=plan_signature(SUM, plan.k_fetch),
                predicted_cost=plan.predicted_costs[plan.algorithm],
                seconds=0.001,
            )
        assert seen == set(AUTO_CANDIDATES)

    def test_overfetch_override_rebuckets_k(self, columnar):
        planner = QueryPlanner(columnar)
        assert planner.bucketed_k(5, cache_enabled=True) == 8
        planner.set_overfetch_override(False)
        assert planner.bucketed_k(5, cache_enabled=True) == 5
        planner.set_overfetch_override(None)
        assert planner.bucketed_k(5, cache_enabled=True) == 8

    def test_adaptive_knob_validation(self):
        with pytest.raises(ValueError, match="feedback_blend"):
            ServicePolicy(feedback_blend=2.0)
        with pytest.raises(ValueError, match="feedback_min_samples"):
            ServicePolicy(feedback_min_samples=0)
        with pytest.raises(ValueError, match="feedback_tolerance"):
            ServicePolicy(feedback_tolerance=-1.0)
        with pytest.raises(ValueError, match="drift_window"):
            ServicePolicy(drift_window=1)
        with pytest.raises(ValueError, match="drift_threshold"):
            ServicePolicy(drift_threshold=1.5)


class TestPolicyRanges:
    """Every ``ServicePolicy`` range check, on both sides of its edge."""

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("delta_log_depth", -1),
            ("delta_patch_limit", -1),
            ("snapshot_patch_budget", -1),
            ("max_subscriptions", -1),
            ("watch_patch_limit", -1),
            ("reverse_boundary_limit", -1),
            ("feedback_blend", -0.1),
            ("feedback_blend", 1.1),
            ("feedback_min_samples", 0),
            ("feedback_tolerance", -0.01),
            ("drift_window", 1),
            ("drift_threshold", 0.0),
            ("drift_threshold", 1.01),
        ],
    )
    def test_rejects_a_value_past_the_edge(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            ServicePolicy(**{knob: value})

    @pytest.mark.parametrize(
        "knob, value",
        [
            # 0 switches the delta log, snapshot patching and the
            # reverse boundary cache off; it is not an error.
            ("delta_log_depth", 0),
            ("delta_patch_limit", 0),
            ("snapshot_patch_budget", 0),
            ("max_subscriptions", 0),
            ("watch_patch_limit", 0),
            ("reverse_boundary_limit", 0),
            ("feedback_blend", 0.0),
            ("feedback_blend", 1.0),
            ("feedback_min_samples", 1),
            ("feedback_tolerance", 0.0),
            ("drift_window", 2),
            ("drift_threshold", 1.0),
        ],
    )
    def test_accepts_the_edge_value(self, knob, value):
        assert getattr(ServicePolicy(**{knob: value}), knob) == value


class CountingScoring:
    """A weighted sum counting its calls; its default repr keys it by
    identity, so no other instance shares its statistics or memo."""

    name = "counting"

    def __init__(self, weights) -> None:
        from repro.scoring import WeightedSumScoring

        self.calls = 0
        self._inner = WeightedSumScoring(weights)

    def __call__(self, scores):
        self.calls += 1
        return self._inner(scores)


class TestForcedSpecsSkipTheEstimate:
    """The stop-depth estimate runs only where a decision reads it."""

    @pytest.mark.parametrize("algorithm", ("ta", "bpa", "bpa2", "nra", "qc"))
    def test_forced_local_plan_makes_no_scoring_calls(self, columnar, algorithm):
        planner = QueryPlanner(columnar)
        scoring = CountingScoring([0.7, 1.0, 0.2])
        plan = planner.plan(QuerySpec(algorithm, 10, scoring), cache_enabled=False)
        assert scoring.calls == 0
        assert plan.predicted_costs == {}
        assert plan.algorithm == algorithm
        assert plan.reason == "algorithm requested explicitly"

    def test_auto_plan_keeps_its_estimate(self, columnar):
        planner = QueryPlanner(columnar)
        scoring = CountingScoring([0.7, 1.0, 0.2])
        plan = planner.plan(QuerySpec("auto", 10, scoring), cache_enabled=True)
        assert scoring.calls > 0
        assert plan.predicted_costs == planner.predicted_costs(plan.k_fetch, scoring)
        assert plan.algorithm == min(
            AUTO_CANDIDATES, key=lambda name: plan.predicted_costs[name]
        )

    @pytest.mark.parametrize("algorithm", ("ta", "bpa", "bpa2", "nra", "qc"))
    def test_adaptive_forced_plan_keeps_its_estimate(self, columnar, algorithm):
        from repro.service.feedback import PlanFeedback

        planner = QueryPlanner(columnar, feedback=PlanFeedback())
        scoring = CountingScoring([0.7, 1.0, 0.2])
        plan = planner.plan(
            QuerySpec(algorithm, 10, scoring), cache_enabled=False
        )
        assert plan.algorithm == algorithm
        assert plan.reason == "algorithm requested explicitly"
        assert plan.predicted_costs == planner.predicted_costs(10, scoring)
        # The model prices every algorithm but qc, whose runs then
        # record a zero prediction and leave the feedback rate alone.
        assert (algorithm in plan.predicted_costs) == (algorithm != "qc")

    def test_reverse_fallbacks_plan_without_the_estimate(self, columnar):
        from repro.service import QueryService

        with QueryService(columnar, shards=1, pool="serial") as service:
            service.reverse_registry.seed_users(12, columnar.m, seed=4)
            item = service.submit(QuerySpec("bpa2", 1)).item_ids[0]
            result = service.submit_reverse(item, 5)
            assert result.stats.fallbacks > 0
            # every fallback forced bpa: no scoring walked the lists
            assert len(service.planner._statistics) == 0

    def test_reverse_only_service_builds_no_scalar_layout(self, monkeypatch):
        from repro.columnar.database import DatabaseLayout
        from repro.reverse import brute_force_reverse_topk
        from repro.service import QueryService
        from repro.service.workload import dynamic_from

        layouts = []
        build = DatabaseLayout.__init__

        def counted_build(self, database):
            layouts.append("build")
            build(self, database)

        monkeypatch.setattr(DatabaseLayout, "__init__", counted_build)
        source = dynamic_from(UniformGenerator().generate(400, 3, seed=6))
        ids = sorted(source.item_ids)
        fallbacks = 0
        with QueryService(source, shards=1, pool="serial") as service:
            registry = service.reverse_registry
            registry.seed_users(16, 3, seed=2)
            for step in range(8):
                source.update_score(step % 3, ids[7 * step], 0.5 + 0.05 * step)
                item = service.submit(QuerySpec("ta", 1 + step)).item_ids[-1]
                result = service.submit_reverse(item, 5)
                fallbacks += result.stats.fallbacks
                assert result.users == brute_force_reverse_topk(source, registry, item, 5)
        assert fallbacks > 0
        assert layouts == []
