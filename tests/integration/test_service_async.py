"""Integration tests for the async query front-end.

The headline property (ISSUE 3's integration criterion): a Zipf-popular
workload replayed through ``submit_async`` with bounded concurrency
yields *identical* answers and *identical* cache-hit accounting to the
serial ``submit_many`` replay — single-flight coalescing makes
concurrent duplicates reuse one execution exactly like the serial
replay reuses the cache.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.datagen import UniformGenerator
from repro.dynamic import DynamicDatabase
from repro.exec import QuerySpec
from repro.scoring import MIN, SUM
from repro.service import QueryService, ServicePolicy, normalized_query_key
from repro.service.workload import (
    WorkloadConfig,
    build_database,
    build_workload,
    replay_async,
)

ZIPF_CONFIG = WorkloadConfig(
    generator="zipf",
    n=800,
    m=3,
    seed=13,
    queries=120,
    distinct=15,
    k_max=12,
    zipf_theta=1.0,
)


class TestAsyncMatchesSerial:
    @pytest.fixture(scope="class")
    def zipf_setup(self):
        return build_database(ZIPF_CONFIG), build_workload(ZIPF_CONFIG)

    def test_zipf_replay_concurrency_8_identical_to_serial(self, zipf_setup):
        database, workload = zipf_setup
        with QueryService(database, shards=2, pool="serial") as serial:
            serial_results = serial.submit_many(workload)
            serial_counters = serial.counters
        with QueryService(database, shards=2, pool="serial") as service:
            async_results = asyncio.run(
                service.gather_many(workload, concurrency=8)
            )
            async_counters = service.counters
        assert [(r.item_ids, r.scores) for r in serial_results] == [
            (r.item_ids, r.scores) for r in async_results
        ]
        assert async_counters.queries == serial_counters.queries
        assert async_counters.cache_hits == serial_counters.cache_hits
        assert async_counters.executions == serial_counters.executions

    def test_results_come_back_in_spec_order(self, zipf_setup):
        database, _ = zipf_setup
        specs = [QuerySpec("bpa2", k=k) for k in (1, 7, 3, 7, 1, 5)]
        with QueryService(database, pool="serial") as service:
            results = asyncio.run(service.gather_many(specs, concurrency=4))
        assert [r.stats.plan.k_requested for r in results] == [
            spec.k for spec in specs
        ]

    def test_replay_async_summary_matches_serial_accounting(self, zipf_setup):
        database, workload = zipf_setup
        with QueryService(database, pool="serial") as service:
            summary, results = replay_async(service, workload, concurrency=8)
        assert summary["queries"] == len(workload)
        assert summary["concurrency"] == 8
        assert summary["cache_hits"] == sum(r.stats.cache_hit for r in results)
        assert summary["coalesced"] == sum(r.stats.coalesced for r in results)


class TestCoalescing:
    @pytest.fixture()
    def service(self):
        database = UniformGenerator().generate(400, 3, seed=5)
        with QueryService(database, pool="serial") as service:
            yield service

    def test_identical_concurrent_queries_execute_once(self, service):
        results = asyncio.run(
            service.gather_many([QuerySpec("auto", k=4)] * 6, concurrency=4)
        )
        assert service.counters.executions == 1
        assert service.counters.cache_hits == 5
        assert service.counters.coalesced == 5
        assert all(r.item_ids == results[0].item_ids for r in results)
        assert sum(r.stats.coalesced for r in results) == 5

    def test_coalesced_stats_report_zero_accesses(self, service):
        results = asyncio.run(
            service.gather_many([QuerySpec("ta", k=3)] * 3, concurrency=3)
        )
        executed = [r for r in results if not r.stats.cache_hit]
        reused = [r for r in results if r.stats.cache_hit]
        assert len(executed) == 1 and len(reused) == 2
        assert all(r.stats.tally.total == 0 for r in reused)
        assert executed[0].stats.tally.total > 0

    def test_submit_async_without_semaphore(self, service):
        result = asyncio.run(service.submit_async(QuerySpec("bpa2", k=2)))
        assert result.result.k == 2

    def test_cache_off_disables_coalescing_like_the_serial_path(self):
        database = UniformGenerator().generate(300, 3, seed=8)
        specs = [QuerySpec("bpa2", k=4)] * 4
        with QueryService(database, pool="serial", cache_size=0) as serial:
            serial_results = serial.submit_many(specs)
            assert serial.counters.executions == 4
        with QueryService(database, pool="serial", cache_size=0) as service:
            results = asyncio.run(service.gather_many(specs, concurrency=4))
            assert service.counters.executions == 4
            assert service.counters.cache_hits == 0
            assert service.counters.coalesced == 0
        assert all(not r.stats.cache_hit for r in results)
        assert [(r.item_ids, r.scores) for r in results] == [
            (r.item_ids, r.scores) for r in serial_results
        ]

    def test_distinct_scorings_do_not_coalesce(self, service):
        specs = [QuerySpec("bpa2", k=3), QuerySpec("bpa2", k=3, scoring=MIN)]
        asyncio.run(service.gather_many(specs, concurrency=2))
        assert service.counters.executions == 2

    def test_cancelled_owner_does_not_fail_coalesced_waiters(self, service):
        spec = QuerySpec("bpa2", k=4)

        async def scenario():
            # A zero-permit semaphore parks the owner before execution,
            # so we can cancel it while a waiter is coalesced onto it.
            gate = asyncio.Semaphore(0)
            owner = asyncio.create_task(
                service.submit_async(spec, semaphore=gate)
            )
            await asyncio.sleep(0)  # owner registers as in-flight
            waiter = asyncio.create_task(service.submit_async(spec))
            await asyncio.sleep(0)  # waiter attaches to the owner
            owner.cancel()
            result = await waiter
            with pytest.raises(asyncio.CancelledError):
                await owner
            return result

        result = asyncio.run(scenario())
        # The waiter retried the execution itself instead of inheriting
        # the owner's cancellation.
        assert result.result.k == 4
        assert service.counters.executions == 1

    def test_cancelling_owner_and_waiter_cancels_the_waiter(self, service):
        spec = QuerySpec("bpa2", k=4)

        async def scenario():
            gate = asyncio.Semaphore(0)
            owner = asyncio.create_task(
                service.submit_async(spec, semaphore=gate)
            )
            await asyncio.sleep(0)
            waiter = asyncio.create_task(service.submit_async(spec))
            await asyncio.sleep(0)
            # A whole-batch teardown cancels both: the waiter must end
            # cancelled, not silently retry the execution to completion.
            owner.cancel()
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            with pytest.raises(asyncio.CancelledError):
                await owner

        asyncio.run(scenario())
        assert service.counters.executions == 0


class TestAsyncOverMutableData:
    @staticmethod
    def _mutable_service():
        source = DynamicDatabase.from_score_rows(
            [[float(v) for v in range(10)], [float(10 - v) for v in range(10)]]
        )
        return source, QueryService(source, pool="serial")

    @staticmethod
    def _race_mutation_into(service, source):
        """Make ``_execute_plan`` mutate the source mid-flight, once.

        Models a writer landing between the snapshot read and the cache
        write: the epoch bumps while the execution is in progress, so
        the computed result describes data that no longer exists.
        """
        real = service._execute_plan

        def racing(plan, spec):
            full = real(plan, spec)
            service._execute_plan = real
            source.update_score(0, 9, 100.0)
            source.update_score(1, 9, 100.0)
            return full

        service._execute_plan = racing

    def test_async_mutation_during_flight_does_not_poison_cache(self):
        source, service = self._mutable_service()
        with service:
            self._race_mutation_into(service, source)
            stale = asyncio.run(service.submit_async(QuerySpec("bpa2", k=1)))
            fresh = asyncio.run(service.submit_async(QuerySpec("bpa2", k=1)))
            again = asyncio.run(service.submit_async(QuerySpec("bpa2", k=1)))
        # The in-flight result is stale but must never be served as a
        # same-epoch hit after the mutation's snapshot rebuild: the
        # delta log sees the gap and *patches* the touched item against
        # the rebuilt snapshot (the answer equals a fresh execution).
        assert stale.item_ids != (9,)
        assert fresh.stats.cache_outcome == "patched"
        assert fresh.item_ids == (9,)
        assert fresh.scores == (200.0,)
        assert again.stats.cache_outcome == "hit"
        assert again.item_ids == (9,)
        # Telemetry reports the epoch each answer was computed under,
        # not whatever the epoch was when it finished.
        assert stale.stats.epoch == 0
        assert fresh.stats.epoch == again.stats.epoch == 2

    def test_sync_mutation_during_flight_does_not_poison_cache(self):
        source, service = self._mutable_service()
        with service:
            self._race_mutation_into(service, source)
            stale = service.submit(QuerySpec("bpa2", k=1))
            fresh = service.submit(QuerySpec("bpa2", k=1))
            again = service.submit(QuerySpec("bpa2", k=1))
        assert stale.item_ids != (9,)
        assert fresh.stats.cache_outcome == "patched"
        assert fresh.item_ids == (9,)
        assert fresh.scores == (200.0,)
        assert again.stats.cache_outcome == "hit"
        assert again.item_ids == (9,)
        assert stale.stats.epoch == 0
        assert fresh.stats.epoch == again.stats.epoch == 2

    def test_mutation_during_flight_misses_under_whole_epoch_policy(self):
        # With the delta log disabled the same race degrades to the
        # legacy behavior: the stale entry is dropped, never patched.
        source = DynamicDatabase.from_score_rows(
            [[float(v) for v in range(10)], [float(10 - v) for v in range(10)]]
        )
        policy = ServicePolicy(delta_log_depth=0)
        service = QueryService(source, pool="serial", policy=policy)
        with service:
            self._race_mutation_into(service, source)
            stale = service.submit(QuerySpec("bpa2", k=1))
            fresh = service.submit(QuerySpec("bpa2", k=1))
        assert stale.item_ids != (9,)
        assert fresh.stats.cache_outcome == "miss"
        assert fresh.item_ids == (9,)

    def test_sync_submit_defers_rebuild_while_async_in_flight(self):
        source, service = self._mutable_service()
        with service:

            async def scenario():
                gate = asyncio.Semaphore(0)
                flight = asyncio.create_task(
                    service.submit_async(QuerySpec("bpa2", k=1), semaphore=gate)
                )
                await asyncio.sleep(0)  # flight registers, parks on gate
                source.update_score(0, 9, 100.0)
                source.update_score(1, 9, 100.0)
                # The sync submit cannot reload the executor under the
                # parked flight: it serves the pinned snapshot instead.
                during = service.submit(QuerySpec("bpa2", k=1))
                refreshes_during = service.counters.snapshot_refreshes
                gate.release()
                await flight
                after = await service.submit_async(QuerySpec("bpa2", k=1))
                return during, refreshes_during, after

            during, refreshes_during, after = asyncio.run(scenario())
        assert refreshes_during == 0  # the rebuild was deferred
        assert not during.stats.cache_hit
        assert during.item_ids != (9,)  # the pinned (pre-mutation) snapshot
        assert during.stats.epoch == 0  # ... and telemetry says so
        assert after.item_ids == (9,)
        assert after.scores == (200.0,)  # equals a fresh post-mutation run
        assert after.stats.epoch == 2
        assert service.counters.snapshot_refreshes == 1
        # The deferred query did not cache its pinned-snapshot answer;
        # what the flight cached under epoch 0 is delta-patched, not
        # served stale.
        assert after.stats.cache_outcome == "patched"

    def test_mutation_between_gathers_refreshes_snapshot(self):
        source = DynamicDatabase.from_score_rows(
            [[float(v) for v in range(10)], [float(10 - v) for v in range(10)]]
        )
        with QueryService(source, pool="serial") as service:
            before = asyncio.run(service.submit_async(QuerySpec("bpa2", k=1)))
            source.update_score(0, 9, 100.0)
            source.update_score(1, 9, 100.0)
            after = asyncio.run(service.submit_async(QuerySpec("bpa2", k=1)))
        assert before.item_ids != after.item_ids
        assert after.item_ids == (9,)
        assert service.counters.snapshot_refreshes == 1

    def test_closed_service_rejects_async_submits(self):
        database = UniformGenerator().generate(50, 2, seed=1)
        service = QueryService(database, pool="serial")
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            asyncio.run(service.submit_async(QuerySpec("ta", k=1)))


class TestDeltaEpochRaces:
    """Mutations racing the async path must never mis-key a cache entry.

    The discipline under test: entries are always keyed to the
    *snapshot* epoch the execution read, and revalidation/patching only
    ever advances an entry to the epoch of the lookup's own snapshot —
    so a mutation landing between coalesced waiters (or mid-execution)
    can never produce an entry stamped with an epoch whose data it
    never saw.
    """

    _KEY = normalized_query_key("bpa2", 1, SUM, {})

    @staticmethod
    def _mutable_service():
        source = DynamicDatabase.from_score_rows(
            [[float(v) for v in range(10)], [float(10 - v) for v in range(10)]]
        )
        return source, QueryService(source, pool="serial")

    def test_mutation_between_coalesced_waiters_keeps_snapshot_epoch(self):
        source, service = self._mutable_service()
        with service:

            async def scenario():
                gate = asyncio.Semaphore(0)
                owner = asyncio.create_task(
                    service.submit_async(QuerySpec("bpa2", k=1), semaphore=gate)
                )
                await asyncio.sleep(0)  # owner in flight under epoch 0
                waiter = asyncio.create_task(
                    service.submit_async(QuerySpec("bpa2", k=1))
                )
                await asyncio.sleep(0)  # waiter coalesces onto the owner
                # The mutation lands between the coalesced waiters.
                source.update_score(0, 9, 100.0)
                source.update_score(1, 9, 100.0)
                gate.release()
                return await owner, await waiter

            owner_res, waiter_res = asyncio.run(scenario())
            # Both flights served (and cached) the epoch-0 snapshot; the
            # entry must be keyed there, not at the live epoch (2).
            assert owner_res.stats.epoch == waiter_res.stats.epoch == 0
            assert waiter_res.stats.coalesced
            assert service.cache.entry_epoch(self._KEY) == 0
            assert service.epoch == 2

            # The next lookup sees the two-epoch gap, patches the entry
            # against the rebuilt snapshot, and re-keys it correctly.
            after = asyncio.run(service.submit_async(QuerySpec("bpa2", k=1)))
            assert after.stats.cache_outcome == "patched"
            assert after.item_ids == (9,)
            assert after.scores == (200.0,)
            assert service.cache.entry_epoch(self._KEY) == 2

    def test_patched_entry_serves_hits_under_its_new_epoch(self):
        source, service = self._mutable_service()
        with service:
            asyncio.run(service.submit_async(QuerySpec("bpa2", k=1)))
            source.update_score(0, 9, 100.0)
            source.update_score(1, 9, 100.0)
            patched = asyncio.run(service.submit_async(QuerySpec("bpa2", k=1)))
            again = asyncio.run(service.submit_async(QuerySpec("bpa2", k=1)))
        assert patched.stats.cache_outcome == "patched"
        assert again.stats.cache_outcome == "hit"
        assert again.item_ids == (9,)
        assert service.counters.executions == 1  # only the first query ran

    def test_revalidated_entry_is_restamped_not_requeried(self):
        source, service = self._mutable_service()
        with service:
            first = asyncio.run(service.submit_async(QuerySpec("bpa2", k=1)))
            # Item 5's total drops from 10 to 8: still below item 0's 10
            # under the id tie-break, so the cached top-1 cannot change.
            source.update_score(0, 5, 3.0)
            second = asyncio.run(service.submit_async(QuerySpec("bpa2", k=1)))
        assert not first.stats.cache_hit
        assert second.stats.cache_outcome == "revalidated"
        assert second.item_ids == first.item_ids
        assert second.stats.epoch == 1
        assert service.cache.entry_epoch(self._KEY) == 1
        assert service.counters.executions == 1

    def test_deferred_sync_submit_cannot_advance_cache_entries(self):
        source, service = self._mutable_service()
        with service:

            async def scenario():
                await service.submit_async(QuerySpec("bpa2", k=1))
                gate = asyncio.Semaphore(0)
                flight = asyncio.create_task(
                    service.submit_async(QuerySpec("ta", k=2), semaphore=gate)
                )
                await asyncio.sleep(0)  # flight pins the snapshot
                source.update_score(0, 9, 100.0)
                source.update_score(1, 9, 100.0)
                # The deferred sync submit serves the pinned snapshot and
                # must leave the epoch-0 entry untouched (no revalidation
                # to an epoch whose data it cannot prove anything about).
                during = service.submit(QuerySpec("bpa2", k=1))
                entry_epoch_during = service.cache.entry_epoch(self._KEY)
                gate.release()
                await flight
                return during, entry_epoch_during

            during, entry_epoch_during = asyncio.run(scenario())
            assert during.stats.epoch == 0
            assert entry_epoch_during == 0
            after = service.submit(QuerySpec("bpa2", k=1))
            assert after.stats.cache_outcome == "patched"
            assert after.item_ids == (9,)
            assert service.cache.entry_epoch(self._KEY) == 2
