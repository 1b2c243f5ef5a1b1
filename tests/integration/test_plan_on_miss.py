"""The result cache is keyed by the request, so only a miss plans.

A reused answer (hit, revalidated or patched) is served without calling
:meth:`QueryPlanner.plan` and without building :class:`ListStatistics`,
also right after a snapshot patch, when the service's planner is new
and cold.  The key's ``k`` comes from :meth:`QueryPlanner.fetch_k`,
which :meth:`QueryPlanner.plan` itself uses, so the key and the executed
``k`` agree; each entry keeps the plan that computed it, and a reuse
reports that plan at its own ``k_requested``.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import replace

import pytest

import repro.service.planner as planner_module
from repro.algorithms.base import known_algorithms
from repro.columnar import ColumnarDatabase
from repro.datagen import UniformGenerator
from repro.errors import InvalidQueryError
from repro.exec import QuerySpec
from repro.scoring import SUM
from repro.service import (
    QueryPlanner,
    QueryService,
    ServicePolicy,
    normalized_query_key,
)
from repro.service.workload import dynamic_from, fresh_topk

N, M = 300, 3


@pytest.fixture(scope="module")
def database():
    return UniformGenerator().generate(N, M, seed=41)


@pytest.fixture()
def calls(monkeypatch):
    """Counts ``QueryPlanner.plan`` calls and ``ListStatistics`` builds."""
    tally = Counter()
    plan = QueryPlanner.plan
    statistics = planner_module.ListStatistics

    def counting_plan(self, spec, *, cache_enabled):
        tally["plan"] += 1
        return plan(self, spec, cache_enabled=cache_enabled)

    def counting_statistics(*args, **kwargs):
        tally["statistics"] += 1
        return statistics(*args, **kwargs)

    monkeypatch.setattr(QueryPlanner, "plan", counting_plan)
    monkeypatch.setattr(planner_module, "ListStatistics", counting_statistics)
    return tally


def _ranked_totals(source):
    """Every item id, best total first (ties by id)."""
    totals = {
        item: SUM(source.local_scores(item)) for item in source.item_ids
    }
    return sorted(totals, key=lambda item: (-totals[item], item))


def _writes(source, top):
    """One write of each kind that leaves a cached top-8 reusable."""
    ranked = _ranked_totals(source)
    bottom, second_bottom = ranked[-1], ranked[-2]
    return {
        "none": lambda: None,
        # Same membership, a non-member moves further down: revalidated.
        "update_score": lambda: source.update_score(
            0, bottom, source.local_scores(bottom)[0] / 2
        ),
        # A new item far below the boundary: revalidated.
        "insert_item": lambda: source.insert_item(10**6, [0.0] * M),
        # A non-member leaves: revalidated.
        "remove_item": lambda: source.remove_item(second_bottom),
        # The best member gains: its score is patched in place.
        "member_update": lambda: source.update_score(
            0, top[0], source.local_scores(top[0])[0] + 0.5
        ),
    }


class TestReusesNeverPlan:
    @pytest.mark.parametrize(
        "write, outcome",
        [
            ("none", "hit"),
            ("update_score", "revalidated"),
            ("insert_item", "revalidated"),
            ("remove_item", "revalidated"),
            ("member_update", "patched"),
        ],
    )
    def test_reuse_after_a_write_makes_no_plan(
        self, database, calls, write, outcome
    ):
        source = dynamic_from(database)
        with QueryService(source, pool="serial") as service:
            spec = QuerySpec("auto", k=8)
            first = service.submit(spec)
            assert first.stats.cache_outcome == "miss"
            assert calls["plan"] == 1
            _writes(source, first.item_ids)[write]()
            calls.clear()
            served = service.submit(spec)
            assert served.stats.cache_outcome == outcome
            assert calls["plan"] == 0
            assert calls["statistics"] == 0
            assert (served.item_ids, served.scores) == fresh_topk(
                source, 8, SUM
            )
            if write != "none":
                assert service.counters.snapshot_patches == 1

    def test_a_miss_after_a_patch_plans_exactly_once(self, database, calls):
        source = dynamic_from(database)
        with QueryService(source, pool="serial") as service:
            service.submit(QuerySpec("auto", k=8))
            ranked = _ranked_totals(source)
            source.update_score(0, ranked[-1], 0.0)
            calls.clear()
            served = service.submit(QuerySpec("auto", k=20))
            assert served.stats.cache_outcome == "miss"
            assert calls["plan"] == 1
            assert calls["statistics"] == 1  # the new planner is cold
            assert (served.item_ids, served.scores) == fresh_topk(
                source, 20, SUM
            )

    def test_gather_many_plans_once_per_missing_request(self, database, calls):
        source = dynamic_from(database)
        with QueryService(source, pool="serial") as service:
            service.submit(QuerySpec("auto", k=8))
            _writes(source, ())["update_score"]()
            calls.clear()
            reused = asyncio.run(
                service.gather_many(
                    [QuerySpec("auto", k=k) for k in (8, 5, 8, 7)]
                )
            )
            assert all(result.stats.cache_hit for result in reused)
            assert calls["plan"] == 0
            assert calls["statistics"] == 0
            # Four requests for one missing entry: one owner plans and
            # executes, the rest coalesce onto it (or hit its entry).
            fresh = asyncio.run(
                service.gather_many([QuerySpec("auto", k=20)] * 4)
            )
            assert calls["plan"] == 1
            assert sum(not r.stats.cache_hit for r in fresh) == 1
            expected = fresh_topk(source, 20, SUM)
            assert all((r.item_ids, r.scores) == expected for r in fresh)

    def test_adaptive_reuses_skip_the_feedback_store(self, database, calls):
        policy = ServicePolicy(adaptive=True)
        with QueryService(database, pool="serial", policy=policy) as service:
            drift = service.adaptive_state.drift
            observed = Counter()
            observe = drift.observe

            def counting_observe(key, *, k=None):
                observed["drift"] += 1
                return observe(key, k=k)

            drift.observe = counting_observe
            spec = QuerySpec("auto", k=8)
            results = [service.submit(spec) for _ in range(12)]
        # Exploration runs on misses only, so it never turns a cached
        # answer into a re-execution; drift detection sees every query.
        assert service.counters.executions == 1
        assert all(result.stats.cache_hit for result in results[1:])
        assert calls["plan"] == 1
        assert observed["drift"] == 12


#: (policy, overfetch override) pairs the agreement test covers.
_POLICIES = {
    "default": (ServicePolicy(), None),
    "no-random": (ServicePolicy(allow_random=False), None),
    "no-overfetch": (ServicePolicy(overfetch=False), None),
    "drift-override-off": (ServicePolicy(), False),
    "drift-override-on": (ServicePolicy(overfetch=False), True),
}


class TestFetchKAgreesWithPlan:
    @pytest.fixture(scope="class")
    def snapshot(self):
        return ColumnarDatabase.from_database(
            UniformGenerator().generate(40, M, seed=5)
        )

    @pytest.mark.parametrize("cache_enabled", [True, False])
    @pytest.mark.parametrize("policy_name", sorted(_POLICIES))
    def test_fetch_k_is_the_planned_k_fetch(
        self, snapshot, policy_name, cache_enabled
    ):
        policy, override = _POLICIES[policy_name]
        planner = QueryPlanner(snapshot, policy=policy)
        planner.set_overfetch_override(override)
        names = ["auto", *known_algorithms()]
        specs = [QuerySpec(name, k=1) for name in names]
        specs.append(QuerySpec("ta", k=1, options={"memoize": True}))
        planned = 0
        for base in specs:
            for k in (1, 7, snapshot.n, snapshot.n + 3):
                spec = replace(base, k=k)
                try:
                    plan = planner.plan(spec, cache_enabled=cache_enabled)
                except InvalidQueryError:
                    # A random-access algorithm under a no-random policy.
                    assert not policy.allow_random
                    assert spec.algorithm not in ("auto", "nra")
                    continue
                planned += 1
                assert (
                    planner.fetch_k(spec, cache_enabled=cache_enabled)
                    == plan.k_fetch
                ), (spec, plan)
        assert planned >= 8

    @pytest.mark.parametrize("k", [0, -3])
    @pytest.mark.parametrize("algorithm", ["auto", "nra", "ta"])
    def test_k_below_one_raises_the_same_error(self, snapshot, algorithm, k):
        planner = QueryPlanner(snapshot)
        spec = QuerySpec(algorithm, k=k)
        with pytest.raises(InvalidQueryError) as planned:
            planner.plan(spec, cache_enabled=True)
        with pytest.raises(InvalidQueryError) as fetched:
            planner.fetch_k(spec, cache_enabled=True)
        assert str(fetched.value) == str(planned.value)

    @pytest.mark.parametrize("cache_size", [1024, 0])
    def test_service_keys_by_the_executed_k(self, database, cache_size):
        specs = [
            QuerySpec("auto", k=7),
            QuerySpec("nra", k=7),
            QuerySpec("bpa2", k=N + 3),
            QuerySpec("ta", k=3, options={"memoize": True}),
        ]
        with QueryService(
            database, pool="serial", cache_size=cache_size
        ) as service:
            for spec in specs:
                served = service.submit(spec)
                key = normalized_query_key(
                    spec.algorithm,
                    service.planner.fetch_k(spec, cache_enabled=True),
                    spec.scoring,
                    spec.options,
                )
                if cache_size:
                    assert key in service.cache
                    assert key[1] == served.stats.plan.k_fetch
                else:
                    assert served.stats.plan.k_fetch == min(spec.k, N)


class TestReuseStats:
    def test_reuse_reports_the_computing_plan_at_its_own_k(self, database):
        with QueryService(database, pool="serial") as service:
            first = service.submit(QuerySpec("auto", k=8))
            second = service.submit(QuerySpec("auto", k=5))
            third = service.submit(QuerySpec("auto", k=5))
        computed, reused = first.stats.plan, second.stats.plan
        assert second.stats.cache_outcome == "hit"
        assert (reused.algorithm, reused.backend) == (
            computed.algorithm,
            computed.backend,
        )
        assert (reused.k_fetch, reused.k_requested) == (8, 5)
        assert reused == replace(computed, k_requested=5)
        # Built once per (entry, k_requested), not per reuse.
        assert third.stats.plan is reused
        assert second.item_ids == first.item_ids[:5]

    def test_patched_and_revalidated_reuses_keep_the_plan(self, database):
        source = dynamic_from(database)
        with QueryService(source, pool="serial") as service:
            first = service.submit(QuerySpec("auto", k=8))
            writes = _writes(source, first.item_ids)
            writes["member_update"]()
            patched = service.submit(QuerySpec("auto", k=8))
            writes["update_score"]()
            revalidated = service.submit(QuerySpec("auto", k=6))
        assert patched.stats.cache_outcome == "patched"
        assert patched.stats.plan is first.stats.plan
        assert revalidated.stats.cache_outcome == "revalidated"
        assert revalidated.stats.plan == replace(
            first.stats.plan, k_requested=6
        )

    def test_auto_and_forced_requests_do_not_share_an_entry(self, database):
        with QueryService(database, pool="serial") as service:
            auto = service.submit(QuerySpec("auto", k=8))
            forced = service.submit(QuerySpec(auto.stats.plan.algorithm, k=8))
        assert forced.stats.cache_outcome == "miss"
        assert forced.item_ids == auto.item_ids
        assert len(service.cache) == 2

    def test_coalesced_waiters_report_the_owner_plan(self, database, calls):
        with QueryService(database, pool="serial") as service:

            async def scenario():
                gate = asyncio.Semaphore(0)
                owner = asyncio.create_task(
                    service.submit_async(
                        QuerySpec("auto", k=8), semaphore=gate
                    )
                )
                await asyncio.sleep(0)  # the owner waits at the gate
                waiter = asyncio.create_task(
                    service.submit_async(QuerySpec("auto", k=5))
                )
                await asyncio.sleep(0)  # the waiter joins the flight
                gate.release()
                return await owner, await waiter

            owner, waiter = asyncio.run(scenario())
        assert waiter.stats.coalesced
        assert waiter.stats.plan == replace(owner.stats.plan, k_requested=5)
        assert waiter.item_ids == owner.item_ids[:5]
        assert calls["plan"] == 1
