"""Service-level snapshot patching and warm restarts.

Two surfaces of the live storage engine:

* **in-process** — a mutating :class:`QueryService` refreshes its
  columnar snapshot by *patching* it with the mutation-log window
  (``counters.snapshot_patches``), cold-rebuilding only when the window
  is unprovable (truncated or poisoned log) or wider than the policy's
  ``snapshot_patch_budget``;
* **across processes** — ``save_snapshot``/``from_snapshot`` round-trip
  the served snapshot through an epoch-stamped ``.bpsn`` file so a
  restarted service answers identically and keeps mutating from the
  restored epoch, with the log floored so pre-restart windows can never
  be claimed.
"""

from __future__ import annotations

import pytest

from repro.datagen.base import make_generator
from repro.exec import QuerySpec
from repro.scoring import SUM
from repro.service import QueryService, ServicePolicy
from repro.service.workload import answers_match, dynamic_from
from repro.storage import load_snapshot, verify_snapshot


def make_source(n=40, m=3, seed=21):
    return dynamic_from(make_generator("uniform").generate(n, m, seed=seed))


SPEC = QuerySpec(algorithm="bpa2", k=8)


def assert_correct(service, source, served):
    assert answers_match(
        served.item_ids, served.scores, source, SPEC.k, SUM
    )


class TestSnapshotPatching:
    def test_small_delta_patches_instead_of_rebuilding(self):
        source = make_source()
        with QueryService(source, shards=1, pool="serial") as service:
            service.submit(SPEC)
            source.update_score(0, 5, 0.99)
            served = service.submit(SPEC)
            assert_correct(service, source, served)
            assert service.counters.snapshot_refreshes == 1
            assert service.counters.snapshot_patches == 1

    def test_budget_zero_disables_patching(self):
        source = make_source()
        policy = ServicePolicy(snapshot_patch_budget=0)
        with QueryService(
            source, shards=1, pool="serial", policy=policy
        ) as service:
            service.submit(SPEC)
            source.update_score(0, 5, 0.99)
            served = service.submit(SPEC)
            assert_correct(service, source, served)
            assert service.counters.snapshot_refreshes == 1
            assert service.counters.snapshot_patches == 0

    def test_wide_delta_falls_back_to_rebuild(self):
        source = make_source()
        policy = ServicePolicy(snapshot_patch_budget=2)
        with QueryService(
            source, shards=1, pool="serial", policy=policy
        ) as service:
            service.submit(SPEC)
            for item in range(5):  # 5 net-touched items > budget of 2
                source.update_score(0, item, 0.9 + item / 100)
            served = service.submit(SPEC)
            assert_correct(service, source, served)
            assert service.counters.snapshot_refreshes == 1
            assert service.counters.snapshot_patches == 0

    def test_truncated_log_falls_back_to_rebuild(self):
        source = make_source()
        policy = ServicePolicy(delta_log_depth=2)
        with QueryService(
            source, shards=1, pool="serial", policy=policy
        ) as service:
            service.submit(SPEC)
            for item in range(6):  # overflow the 2-deep log
                source.update_score(0, item, 0.5 + item / 100)
            served = service.submit(SPEC)
            assert_correct(service, source, served)
            assert service.counters.snapshot_patches == 0
            assert service.mutation_log.truncations > 0

    def test_poisoned_log_falls_back_to_rebuild(self):
        source = make_source()
        with QueryService(source, shards=1, pool="serial") as service:
            service.submit(SPEC)
            source.update_score(0, 5, 0.99)
            service.mutation_log.poison(service.mutation_log.top)
            served = service.submit(SPEC)
            assert_correct(service, source, served)
            assert service.counters.snapshot_patches == 0
            assert service.counters.snapshot_refreshes == 1

    def test_patching_keeps_oracle_exactness_over_many_epochs(self):
        source = make_source(n=24, m=2, seed=3)
        next_id = 5_000
        with QueryService(source, shards=1, pool="serial") as service:
            for step in range(30):
                kind = step % 3
                ids = sorted(source.item_ids)
                if kind == 0:
                    source.update_score(
                        step % source.m, ids[step % len(ids)], step / 31
                    )
                elif kind == 1:
                    source.insert_item(next_id, [0.3, step / 31])
                    next_id += 1
                elif len(ids) > 4:
                    source.remove_item(ids[-1])
                served = service.submit(SPEC)
                assert_correct(service, source, served)
            # Every refresh after the first snapshot was a patch: each
            # step touches one item, far under the default budget.
            assert (
                service.counters.snapshot_patches
                == service.counters.snapshot_refreshes
            )
            assert service.counters.snapshot_refreshes >= 29

    def test_in_flight_view_survives_patch(self):
        """Epoch-versioned views: the old snapshot object is untouched."""
        source = make_source()
        with QueryService(source, shards=1, pool="serial") as service:
            service.submit(SPEC)
            before = service._executor.database
            items_before = before.lists[0].items_array.tobytes()
            source.update_score(0, 5, 0.99)
            service.submit(SPEC)
            after = service._executor.database
            assert after is not before
            assert before.lists[0].items_array.tobytes() == items_before


class TestWarmRestart:
    def test_restart_serves_identical_answers(self, tmp_path):
        source = make_source()
        path = tmp_path / "state.bpsn"
        with QueryService(source, shards=1, pool="serial") as service:
            source.update_score(1, 3, 0.87)
            source.insert_item(9_000, [0.4, 0.9, 0.2])
            first = service.submit(SPEC)
            epoch = service.save_snapshot(path)
        assert epoch == 2
        assert verify_snapshot(path).ok

        with QueryService.from_snapshot(
            path, shards=1, pool="serial"
        ) as restarted:
            served = restarted.submit(SPEC)
            assert served.item_ids == first.item_ids
            assert served.scores == first.scores

    def test_restart_with_source_keeps_mutating(self, tmp_path):
        source = make_source()
        path = tmp_path / "state.bpsn"
        with QueryService(source, shards=1, pool="serial") as service:
            source.update_score(0, 7, 0.91)
            service.submit(SPEC)
            epoch = service.save_snapshot(path)

        # "New process": a live source rebuilt from the snapshot file.
        database, _ = load_snapshot(path)
        revived = dynamic_from(database)
        with QueryService.from_snapshot(
            path, source=revived, shards=1, pool="serial"
        ) as restarted:
            # The log floor is pinned at the restored epoch: windows
            # reaching before the restart are unprovable by fiat.
            assert restarted.mutation_log.floor == epoch
            served = restarted.submit(SPEC)
            assert_correct(restarted, revived, served)
            # post-restart mutations patch as usual
            revived.update_score(1, 2, 0.93)
            served = restarted.submit(SPEC)
            assert_correct(restarted, revived, served)
            assert restarted.counters.snapshot_patches == 1

    def test_epoch_clock_resumes(self, tmp_path):
        source = make_source()
        first = tmp_path / "a.bpsn"
        second = tmp_path / "b.bpsn"
        with QueryService(source, shards=1, pool="serial") as service:
            source.update_score(0, 1, 0.5)
            source.update_score(0, 2, 0.6)
            saved = service.save_snapshot(first)
        assert saved == 2

        database, _ = load_snapshot(first)
        revived = dynamic_from(database)
        with QueryService.from_snapshot(
            first, source=revived, shards=1, pool="serial"
        ) as restarted:
            revived.update_score(0, 3, 0.7)
            assert restarted.save_snapshot(second) == 3
        assert load_snapshot(second)[1] == 3

    def test_save_snapshot_flushes_pending_mutations(self, tmp_path):
        source = make_source()
        path = tmp_path / "state.bpsn"
        with QueryService(source, shards=1, pool="serial") as service:
            service.submit(SPEC)
            source.update_score(0, 4, 0.98)  # pending: no query since
            epoch = service.save_snapshot(path)
            assert epoch == 1
        database, _ = load_snapshot(path)
        assert database.local_scores(4)[0] == 0.98

    def test_save_on_closed_service_raises(self, tmp_path):
        service = QueryService(make_source(), shards=1, pool="serial")
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.save_snapshot(tmp_path / "x.bpsn")

    def test_snapshot_kwarg_requires_dynamic_source(self):
        database = make_generator("uniform").generate(10, 2, seed=1)
        from repro.columnar import ColumnarDatabase

        columnar = ColumnarDatabase.from_database(database)
        with pytest.raises(ValueError):
            QueryService(
                columnar, snapshot=columnar, shards=1, pool="serial"
            )
