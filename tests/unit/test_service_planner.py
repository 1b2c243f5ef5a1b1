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


class TestTransportChoice:
    def test_default_policy_plans_local(self, planner):
        plan = planner.plan(QuerySpec("bpa2", k=5), cache_enabled=True)
        assert plan.transport == "local"

    def test_auto_never_pays_for_the_network(self, columnar):
        from repro.types import CostModel

        pricey = CostModel.paper(columnar.n)
        pricey = CostModel(
            sorted_cost=pricey.sorted_cost,
            random_cost=pricey.random_cost,
            message_cost=0.5,
            byte_cost=0.01,
        )
        planner = QueryPlanner(columnar, cost_model=pricey)
        plan = planner.plan(QuerySpec("ta", k=5), cache_enabled=True)
        assert plan.transport == "local"

    def test_forced_network_picks_the_cheaper_protocol(self, columnar):
        from repro.types import CostModel

        model = CostModel(message_cost=1.0, byte_cost=0.001)
        planner = QueryPlanner(
            columnar,
            policy=ServicePolicy(transport="network"),
            cost_model=model,
        )
        plan = planner.plan(QuerySpec("bpa2", k=5), cache_enabled=True)
        # Batch never ships more messages or bytes than per-entry.
        assert plan.transport == "network-batch"
        assert "network" in plan.reason

    def test_network_policy_keeps_local_for_undriven_algorithms(self, columnar):
        planner = QueryPlanner(columnar, policy=ServicePolicy(transport="network"))
        assert (
            planner.plan(QuerySpec("naive", k=2), cache_enabled=True).transport
            == "local"
        )
        # Non-default options have no distributed driver either.
        assert (
            planner.plan(
                QuerySpec("ta", k=2, options={"memoize": True}),
                cache_enabled=True,
            ).transport
            == "local"
        )

    def test_network_transport_serves_identical_answers(self, columnar):
        from repro.service import QueryService

        spec = QuerySpec("bpa", k=6)
        with QueryService(columnar, pool="serial", cache_size=0) as local:
            expected = local.submit(spec)
        with QueryService(
            columnar,
            pool="serial",
            cache_size=0,
            policy=ServicePolicy(transport="network"),
        ) as networked:
            served = networked.submit(spec)
        assert served.item_ids == expected.item_ids
        assert served.scores == expected.scores
        assert served.stats.plan.transport.startswith("network-")
        assert "network" in served.result.extras

    def test_predicted_network_rejects_undriven_algorithm(self, planner):
        with pytest.raises(InvalidQueryError, match="no distributed driver"):
            planner.predicted_network("naive", 5, SUM)

    def test_typod_transport_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown transport policy"):
            ServicePolicy(transport="netwok")

    def test_forced_network_with_options_annotates_the_pin(self, columnar):
        planner = QueryPlanner(
            columnar, policy=ServicePolicy(transport="network")
        )
        plan = planner.plan(
            QuerySpec("ta", k=2, options={"memoize": True}), cache_enabled=True
        )
        # The forced network policy cannot apply (drivers run default
        # configs); the override is dropped *visibly*, not silently.
        assert plan.transport == "local"
        assert "options pin the query to the shard pool" in plan.reason


class TestBlockRoundArithmetic:
    def test_partial_final_block_still_costs_a_wave(self, columnar):
        # 3 predicted rounds at width 2 need ceil(3/2) = 2 waves — the
        # old floor division under-billed the partial final block,
        # making wide blocks look free exactly when they waste the most.
        import math

        def batch_messages(width):
            planner = QueryPlanner(
                columnar, policy=ServicePolicy(block_width=width)
            )
            return planner.predicted_network("ta", 5, SUM)["batch"]["messages"]

        tally = QueryPlanner(columnar).predicted_tallies(5, SUM)["ta"]
        rounds = max(1, (tally.sorted + tally.direct) // columnar.m)
        for width in (1, 2, 3, 4, 7, 8, 16):
            waves = max(1, math.ceil(rounds / width))
            assert batch_messages(width) == 4 * columnar.m * waves

    def test_wider_blocks_never_predict_more_messages(self, columnar):
        previous = None
        for width in (1, 2, 4, 8, 16):
            planner = QueryPlanner(
                columnar, policy=ServicePolicy(block_width=width)
            )
            messages = planner.predicted_network("ta", 5, SUM)["batch"][
                "messages"
            ]
            if previous is not None:
                assert messages <= previous
            previous = messages


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
                transport=plan.transport,
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
    @pytest.mark.parametrize("transport", ("auto", "local"))
    def test_forced_local_plan_makes_no_scoring_calls(
        self, columnar, algorithm, transport
    ):
        planner = QueryPlanner(columnar, policy=ServicePolicy(transport=transport))
        scoring = CountingScoring([0.7, 1.0, 0.2])
        plan = planner.plan(QuerySpec(algorithm, 10, scoring), cache_enabled=False)
        assert scoring.calls == 0
        assert plan.predicted_costs == {}
        assert plan.algorithm == algorithm
        assert plan.transport == "local"
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

    def test_adaptive_forced_plan_keeps_its_estimate(self, columnar):
        from repro.service.feedback import PlanFeedback

        planner = QueryPlanner(columnar, feedback=PlanFeedback())
        scoring = CountingScoring([0.7, 1.0, 0.2])
        plan = planner.plan(QuerySpec("bpa2", 10, scoring), cache_enabled=False)
        assert plan.predicted_costs == planner.predicted_costs(10, scoring)

    def test_network_forced_plan_keeps_its_estimate(self, columnar):
        planner = QueryPlanner(columnar, policy=ServicePolicy(transport="network"))
        plan = planner.plan(QuerySpec("bpa2", 10, SUM), cache_enabled=False)
        assert plan.transport.startswith("network-")
        assert plan.predicted_costs == planner.predicted_costs(10, SUM)

    def test_auto_transport_estimates_when_the_wire_can_win(self, columnar):
        from repro.types import CostModel

        model = CostModel.paper(columnar.n)
        remote = CostModel(
            sorted_cost=model.sorted_cost,
            random_cost=model.random_cost,
            direct_cost=model.direct_cost,
            message_cost=-1.0,
        )
        planner = QueryPlanner(columnar, cost_model=remote)
        plan = planner.plan(QuerySpec("bpa2", 10, SUM), cache_enabled=False)
        assert plan.transport.startswith("network-")
        assert plan.predicted_costs == planner.predicted_costs(10, SUM)

    def test_reverse_fallbacks_plan_without_the_estimate(self, columnar):
        from repro.service import QueryService

        with QueryService(columnar, shards=1, pool="serial") as service:
            service.reverse_registry.seed_users(12, columnar.m, seed=4)
            item = service.submit(QuerySpec("bpa2", 1)).item_ids[0]
            result = service.submit_reverse(item, 5)
            assert result.stats.fallbacks > 0
            # every fallback forced bpa: no scoring walked the lists
            assert len(service.planner._statistics) == 0

    def test_networked_reverse_fallbacks_force_bpa2(self, columnar, monkeypatch):
        from repro.reverse import brute_force_reverse_topk
        from repro.service import QueryService, ServicePolicy

        plans = []
        execute = QueryService._execute_plan

        def recorded(self, plan, spec):
            plans.append((plan.algorithm, plan.transport))
            return execute(self, plan, spec)

        monkeypatch.setattr(QueryService, "_execute_plan", recorded)
        policy = ServicePolicy(transport="network")
        with QueryService(columnar, shards=1, pool="serial", policy=policy) as service:
            registry = service.reverse_registry
            registry.seed_users(12, columnar.m, seed=4)
            item = service.submit(QuerySpec("bpa2", 1)).item_ids[0]
            plans.clear()
            result = service.submit_reverse(item, 5)
        assert result.stats.fallbacks > 0
        assert result.users == brute_force_reverse_topk(columnar, registry, item, 5)
        # BPA2's direct accesses send fewer messages than BPA's
        assert len(plans) == result.stats.fallbacks
        assert all(name == "bpa2" and how.startswith("network-") for name, how in plans)

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
