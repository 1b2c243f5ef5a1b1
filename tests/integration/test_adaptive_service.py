"""Service-level integration of PR 4's engine features.

* ``gather_many``'s AIMD admission control replaces the fixed
  semaphore: replays stay answer- and cache-accounting-identical to the
  serial path, and every executed query's :class:`ServiceStats` records
  the admission window it ran under.
* The planner's ``wire_protocol`` / ``block_width`` policy knobs route
  eligible queries over the networked transport with pipelined waves
  and block rounds, still serving bit-identical answers.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.datagen.base import make_generator
from repro.exec import QuerySpec
from repro.service import QueryService, ServicePolicy


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

    def test_fixed_semaphore_mode_still_available(self, database):
        specs = [QuerySpec("auto", k=4)] * 6
        with QueryService(database, shards=1, pool="serial") as service:
            results = asyncio.run(
                service.gather_many(specs, concurrency=3, adaptive=False)
            )
        assert all(r.stats.concurrency_window == 0 for r in results)
        assert len({r.item_ids for r in results}) == 1


class TestNetworkedServicePolicy:
    def test_pipelined_block_transport_serves_identical_answers(self, database):
        spec = QuerySpec("bpa2", k=5)
        with QueryService(database, shards=1, pool="serial") as baseline:
            expected = baseline.submit(spec)
        policy = ServicePolicy(
            transport="network", wire_protocol="pipelined", block_width=8
        )
        with QueryService(
            database, shards=1, pool="serial", policy=policy
        ) as service:
            served = service.submit(spec)
        assert served.stats.plan.transport == "network-pipelined"
        assert served.item_ids == expected.item_ids
        assert served.scores == expected.scores

    def test_policy_validates_new_knobs(self):
        with pytest.raises(ValueError, match="wire protocol"):
            ServicePolicy(wire_protocol="carrier-pigeon")
        with pytest.raises(ValueError, match="block_width"):
            ServicePolicy(block_width=0)
