"""Differential suite for :func:`repro.columnar.patch_database`.

The contract under test: patching an immutable columnar snapshot with a
mutation window is **bit-identical** to throwing the snapshot away and
cold-rebuilding from the mutated source — same columns byte for byte,
same rank permutations, same derived layout, same query answers *and*
the same access tallies.  Anything less and the "patched" snapshot would
be a different database that merely resembles the right one.

Every datagen family is driven through a seeded mutation stream (score
updates, inserts, removes) and both snapshots are compared field by
field; dedicated cases pin the fallback contract (``None`` on
over-budget or unprovable windows, identity on no-net-change windows).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnar import (
    ColumnarDatabase,
    fast_bpa,
    fast_bpa2,
    fast_ta,
    patch_database,
)
from repro.datagen.base import make_generator
from repro.dynamic.database import MutationEvent
from repro.service.service import _snapshot_dynamic
from repro.service.workload import dynamic_from

FAMILIES = ("uniform", "gaussian", "correlated", "zipf", "copula")


def assert_snapshots_identical(
    patched: ColumnarDatabase, rebuilt: ColumnarDatabase
) -> None:
    """Bit-for-bit equality of two columnar snapshots."""
    assert patched.m == rebuilt.m
    assert patched.n == rebuilt.n
    assert patched.item_ids == rebuilt.item_ids
    for ours, theirs in zip(patched.lists, rebuilt.lists):
        assert ours.name == theirs.name
        assert ours.dense_ids == theirs.dense_ids
        assert ours.items_array.tobytes() == theirs.items_array.tobytes()
        assert ours.scores_array.tobytes() == theirs.scores_array.tobytes()
        assert ours.uids_array.tobytes() == theirs.uids_array.tobytes()
        assert ours.rank_by_row.tobytes() == theirs.rank_by_row.tobytes()


def prefix_state(database: ColumnarDatabase, depth: int) -> tuple:
    """The first-seen prefix extended to ``depth``, as plain lists."""
    prefix = database.first_seen_prefix()
    count = prefix.through(depth)
    return (
        prefix.rows[:count].tolist(),
        prefix.depths[:count].tolist(),
        prefix.threshold_scores(depth)[:depth].tolist(),
        prefix.lambda_scores(depth)[:depth].tolist(),
        [prefix.best_positions(p) for p in range(1, depth + 1)],
    )


def assert_layouts_identical(
    patched: ColumnarDatabase, rebuilt: ColumnarDatabase
) -> None:
    """The derived scalar layout matches a from-scratch derivation."""
    ours, theirs = patched.layout(), rebuilt.layout()
    assert ours.ids == theirs.ids
    assert ours.rows_at == theirs.rows_at
    assert prefix_state(patched, patched.n) == prefix_state(rebuilt, rebuilt.n)
    assert ours.pos1_by_row == theirs.pos1_by_row
    assert ours.score_at == theirs.score_at


def assert_same_answers(
    patched: ColumnarDatabase, rebuilt: ColumnarDatabase, k: int
) -> None:
    """Identical top-k answers *and* access tallies on every engine."""
    for kernel in (fast_ta, fast_bpa, fast_bpa2):
        ours = kernel(patched, k)
        theirs = kernel(rebuilt, k)
        assert ours.items == theirs.items
        assert ours.tally == theirs.tally
        assert ours.stop_position == theirs.stop_position


def apply_mutation_stream(source, rng, count, *, next_id):
    """A seeded mix of updates, inserts and removes; returns next_id."""
    for _ in range(count):
        kind = rng.choice(("update", "update", "update", "insert", "remove"))
        ids = sorted(source.item_ids)
        if kind == "update" and ids:
            source.update_score(
                int(rng.integers(source.m)),
                ids[int(rng.integers(len(ids)))],
                float(rng.random()),
            )
        elif kind == "insert":
            source.insert_item(
                next_id, [float(rng.random()) for _ in range(source.m)]
            )
            next_id += 1
        elif ids and len(ids) > 4:
            source.remove_item(ids[int(rng.integers(len(ids)))])
    return next_id


class TestPatchMatchesColdRebuild:
    """The headline differential: patched == cold rebuild, bit for bit."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", (7, 99))
    def test_mixed_stream_all_families(self, family, seed):
        base_db = make_generator(family).generate(48, 3, seed=seed)
        source = dynamic_from(base_db)
        snapshot = _snapshot_dynamic(source)
        events: list[MutationEvent] = []
        source.subscribe(events.append)
        rng = np.random.default_rng(seed)
        apply_mutation_stream(source, rng, 40, next_id=10_000)

        patched = patch_database(snapshot, events, budget=10**9)
        rebuilt = _snapshot_dynamic(source)
        assert patched is not None
        assert_snapshots_identical(patched, rebuilt)
        assert_layouts_identical(patched, rebuilt)
        assert_same_answers(patched, rebuilt, k=5)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_updates_only_carries_layout_forward(self, family):
        """A membership-unchanged patch's successor derives the same
        layout as a cold rebuild."""
        base_db = make_generator(family).generate(32, 3, seed=3)
        source = dynamic_from(base_db)
        snapshot = _snapshot_dynamic(source)
        snapshot.layout()  # materialize the predecessor's layout
        events: list[MutationEvent] = []
        source.subscribe(events.append)
        rng = np.random.default_rng(11)
        ids = sorted(source.item_ids)
        for _ in range(25):
            source.update_score(
                int(rng.integers(source.m)),
                ids[int(rng.integers(len(ids)))],
                float(rng.random()),
            )

        patched = patch_database(snapshot, events, budget=10**9)
        rebuilt = _snapshot_dynamic(source)
        assert patched is not None
        assert_snapshots_identical(patched, rebuilt)
        assert_layouts_identical(patched, rebuilt)
        assert_same_answers(patched, rebuilt, k=5)

    def test_untouched_lists_are_shared_by_reference(self):
        base_db = make_generator("uniform").generate(20, 3, seed=5)
        source = dynamic_from(base_db)
        snapshot = _snapshot_dynamic(source)
        events: list[MutationEvent] = []
        source.subscribe(events.append)
        source.update_score(1, 4, 0.123456789)

        patched = patch_database(snapshot, events, budget=8)
        assert patched is not None and patched is not snapshot
        assert patched.lists[0] is snapshot.lists[0]
        assert patched.lists[2] is snapshot.lists[2]
        assert patched.lists[1] is not snapshot.lists[1]
        # The predecessor is untouched: epoch-versioned views mean an
        # in-flight query over `snapshot` still sees its own epoch.
        assert_snapshots_identical(snapshot, _snapshot_dynamic(
            dynamic_from(base_db)
        ))

    def test_patch_chain_equals_one_rebuild(self):
        """Successor-of-successor patching stays bit-identical."""
        base_db = make_generator("gaussian").generate(40, 2, seed=17)
        source = dynamic_from(base_db)
        snapshot = _snapshot_dynamic(source)
        rng = np.random.default_rng(17)
        next_id = 10_000
        for _ in range(6):
            events: list[MutationEvent] = []
            unsubscribe = source.subscribe(events.append)
            next_id = apply_mutation_stream(
                source, rng, 7, next_id=next_id
            )
            unsubscribe()
            snapshot = patch_database(snapshot, events, budget=10**9)
            assert snapshot is not None
        assert_snapshots_identical(snapshot, _snapshot_dynamic(source))


class TestFallbackContract:
    """When patching must give up — and when it must do nothing."""

    @pytest.fixture()
    def pair(self):
        base_db = make_generator("uniform").generate(16, 2, seed=1)
        source = dynamic_from(base_db)
        snapshot = _snapshot_dynamic(source)
        events: list[MutationEvent] = []
        source.subscribe(events.append)
        return source, snapshot, events

    def test_budget_exceeded_returns_none(self, pair):
        source, snapshot, events = pair
        for item in range(4):
            source.update_score(0, item, 0.5 + item)
        assert patch_database(snapshot, events, budget=3) is None
        assert patch_database(snapshot, events, budget=4) is not None

    def test_no_net_change_returns_base_object(self, pair):
        source, snapshot, events = pair
        original = source.local_scores(3)
        source.update_score(0, 3, 0.77)
        source.update_score(0, 3, original[0])  # back to the original
        source.insert_item(500, [0.1, 0.2])
        source.remove_item(500)  # insert+remove cancels
        assert patch_database(snapshot, events, budget=8) is snapshot

    def test_event_without_scores_is_unprovable(self, pair):
        _, snapshot, _ = pair
        bare = MutationEvent(kind="update_score", item=3, list_index=0)
        assert patch_database(snapshot, [bare], budget=8) is None

    def test_wrong_arity_scores_is_unprovable(self, pair):
        _, snapshot, _ = pair
        bad = MutationEvent(
            kind="update_score", item=3, list_index=0,
            new_scores=(0.5,),  # m == 2
        )
        assert patch_database(snapshot, [bad], budget=8) is None

    def test_update_then_remove_folds_to_removal(self, pair):
        source, snapshot, events = pair
        source.update_score(0, 2, 0.9)
        source.remove_item(2)
        patched = patch_database(snapshot, events, budget=8)
        assert_snapshots_identical(patched, _snapshot_dynamic(source))
        assert 2 not in patched.item_ids

    def test_insert_then_update_folds_to_final_insert(self, pair):
        source, snapshot, events = pair
        source.insert_item(600, [0.3, 0.4])
        source.update_score(1, 600, 0.95)
        patched = patch_database(snapshot, events, budget=8)
        assert_snapshots_identical(patched, _snapshot_dynamic(source))
        assert patched.local_scores(600) == (0.3, 0.95)

    def test_empty_window_is_identity(self, pair):
        _, snapshot, _ = pair
        assert patch_database(snapshot, [], budget=8) is snapshot
