"""Lazily built snapshot views against a cold rebuild.

A :class:`ColumnarList` builds its plain-list mirrors on the first scalar
read that needs them, and a :class:`ColumnarDatabase` builds its id set
on the first read of ``item_ids``.  A patched snapshot therefore starts
with neither.  This suite drives chains of up to 50 mixed patches
(updates, inserts, removes; ids that turn from ``0..n-1`` into a sparse
set and back) across every datagen family and checks that:

* the whole scalar protocol of the patched snapshot — ``items()``,
  ``scores()``, ``entries()``, ``entry_at``, ``lookup``,
  ``position_of``, ``item_ids``, ``iter_items``, ``has_item`` and
  ``local_scores`` — equals a cold rebuild's;
* a patch builds no mirror and no id set, and the lists it rebuilt
  share one id array, which the same-items check still accepts while it
  keeps rejecting lists with different ids;
* a list pickles and unpickles before and after its mirrors exist, as
  the process-pool shards need.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.columnar import ColumnarDatabase, ColumnarList, patch_database
from repro.datagen.base import make_generator
from repro.errors import InconsistentListsError, UnknownItemError
from repro.service.service import _snapshot_dynamic
from repro.service.workload import dynamic_from

FAMILIES = ("uniform", "gaussian", "correlated", "zipf", "copula")


def mirrors_built(columnar_list: ColumnarList) -> bool:
    return (
        columnar_list._items_list is not None
        or columnar_list._scores_list is not None
    )


def assert_scalar_views_match(
    patched: ColumnarDatabase, rebuilt: ColumnarDatabase
) -> None:
    """Every scalar read of ``patched`` answers as ``rebuilt`` does."""
    assert patched.item_ids == rebuilt.item_ids
    assert list(patched.iter_items()) == list(rebuilt.iter_items())
    for ours, theirs in zip(patched.lists, rebuilt.lists):
        assert len(ours) == len(theirs)
        assert ours.items() == theirs.items()
        assert ours.scores() == theirs.scores()
        assert list(ours.entries()) == list(theirs.entries())
        for position in range(1, len(theirs) + 1):
            assert ours.entry_at(position) == theirs.entry_at(position)
        for item in theirs.items():
            assert ours.lookup(item) == theirs.lookup(item)
            assert ours.position_of(item) == theirs.position_of(item)
            assert ours.position_of(float(item)) == theirs.position_of(item)
    for item in rebuilt.iter_items():
        assert patched.has_item(item)
        assert patched.local_scores(item) == rebuilt.local_scores(item)
        assert all(type(score) is float for score in patched.local_scores(item))
    for absent in (-1, max(rebuilt.item_ids) + 1, 0.5):
        assert not patched.has_item(absent)
        with pytest.raises(UnknownItemError):
            patched.local_scores(absent)


def mutate(source, rng, *, next_id: int, removed: list[int]) -> int:
    """One to three seeded mutations; returns the next fresh id.

    Removed ids go back into ``removed`` and are sometimes re-inserted,
    so the id set turns sparse and, now and then, dense again.
    """
    for _ in range(int(rng.integers(1, 4))):
        ids = sorted(source.item_ids)
        kind = rng.choice(("update", "update", "insert", "remove"))
        if kind == "update":
            source.update_score(
                int(rng.integers(source.m)),
                ids[int(rng.integers(len(ids)))],
                float(rng.random()),
            )
        elif kind == "insert":
            if removed and rng.random() < 0.5:
                item = removed.pop(int(rng.integers(len(removed))))
            else:
                item, next_id = next_id, next_id + 1
            source.insert_item(
                item, [float(rng.random()) for _ in range(source.m)]
            )
        elif len(ids) > 4:
            item = ids[int(rng.integers(len(ids)))]
            source.remove_item(item)
            removed.append(item)
    return next_id


@pytest.mark.parametrize("family", FAMILIES)
def test_patch_chain_matches_cold_rebuild_on_scalar_views(family):
    n, m = 30, 3
    source = dynamic_from(make_generator(family).generate(n, m, seed=11))
    snapshot = _snapshot_dynamic(source)
    assert snapshot.lists[0].dense_ids
    rng = np.random.default_rng(FAMILIES.index(family))
    next_id, removed = n, []
    layouts = set()
    for _ in range(50):
        events = []
        unsubscribe = source.subscribe(events.append)
        next_id = mutate(source, rng, next_id=next_id, removed=removed)
        unsubscribe()
        previous = snapshot
        snapshot = patch_database(previous, events, budget=10**9)
        assert snapshot is not None
        if snapshot is previous:
            continue
        rebuilt = list(
            lst for lst, old in zip(snapshot.lists, previous.lists)
            if lst is not old
        )
        assert rebuilt
        assert not any(mirrors_built(lst) for lst in rebuilt)
        assert snapshot._item_ids is None
        assert len({id(lst._uids) for lst in rebuilt}) == 1
        layouts.add(snapshot.lists[0].dense_ids)
        assert_scalar_views_match(snapshot, _snapshot_dynamic(source))
    # The chain crossed from ids 0..n-1 to a sparse id set.
    assert False in layouts


def test_unread_patch_chain_builds_no_mirrors_or_id_set():
    source = dynamic_from(make_generator("uniform").generate(40, 3, seed=5))
    snapshot = _snapshot_dynamic(source)
    rng = np.random.default_rng(5)
    next_id, removed = 40, []
    for _ in range(20):
        events = []
        unsubscribe = source.subscribe(events.append)
        next_id = mutate(source, rng, next_id=next_id, removed=removed)
        unsubscribe()
        snapshot = patch_database(snapshot, events, budget=10**9)
    assert not any(mirrors_built(lst) for lst in snapshot.lists)
    assert snapshot._item_ids is None
    # Membership tests and local scores read the arrays, not the views.
    item = int(snapshot.uids_array[3])
    snapshot.has_item(item)
    snapshot.local_scores(item)
    snapshot.positions(item)
    assert not any(mirrors_built(lst) for lst in snapshot.lists)
    assert snapshot._item_ids is None
    assert_scalar_views_match(snapshot, _snapshot_dynamic(source))


def test_dense_to_sparse_and_back():
    source = dynamic_from(make_generator("gaussian").generate(12, 2, seed=3))
    snapshot = _snapshot_dynamic(source)

    def out_of_order_inserts():
        # One window inserting ids out of ascending order, beside a
        # removal: the id merge must still place each at its row.
        source.insert_item(30, [0.125, 0.5])
        source.insert_item(11, [0.5, 0.125])
        source.remove_item(0)

    steps = (
        (lambda: source.remove_item(4), False),
        (lambda: source.insert_item(4, [0.25, 0.75]), True),
        (lambda: source.remove_item(11), True),
        (lambda: source.insert_item(20, [0.5, 0.5]), False),
        (out_of_order_inserts, False),
    )
    for mutation, dense in steps:
        events = []
        unsubscribe = source.subscribe(events.append)
        mutation()
        unsubscribe()
        snapshot = patch_database(snapshot, events, budget=8)
        assert snapshot.lists[0].dense_ids == dense
        assert_scalar_views_match(snapshot, _snapshot_dynamic(source))


def test_same_items_check_compares_distinct_arrays():
    shared = ColumnarList([(0, 1.0), (1, 2.0)])
    # One shared array is accepted without comparing; equal distinct
    # arrays are compared and accepted; different ids are rejected.
    ColumnarDatabase([shared, shared])
    ColumnarDatabase([shared, ColumnarList([(1, 0.5), (0, 0.25)])])
    with pytest.raises(InconsistentListsError):
        ColumnarDatabase([shared, ColumnarList([(0, 1.0), (2, 2.0)])])
    # A patched snapshot's shared id array does not mask a list that
    # differs from it.
    source = dynamic_from(make_generator("uniform").generate(8, 3, seed=2))
    snapshot = _snapshot_dynamic(source)
    events = []
    source.subscribe(events.append)
    source.remove_item(3)
    patched = patch_database(snapshot, events, budget=8)
    assert patched.lists[0]._uids is patched.lists[1]._uids
    with pytest.raises(InconsistentListsError):
        ColumnarDatabase([*patched.lists[:2], snapshot.lists[2]])


@pytest.mark.parametrize("dense", [True, False])
def test_lists_pickle_before_and_after_their_mirrors(dense):
    entries = [
        (item if dense else 3 * item, 0.1 * (item % 4)) for item in range(9)
    ]
    columnar = ColumnarList(entries, name="L1")
    for built in (False, True):
        if built:
            columnar.entry_at(2)
        assert mirrors_built(columnar) == built
        restored = pickle.loads(pickle.dumps(columnar))
        assert restored.name == "L1"
        assert len(restored) == len(columnar)
        assert restored.dense_ids == columnar.dense_ids
        assert restored.items() == columnar.items()
        assert list(restored.entries()) == list(columnar.entries())
        for item, _score in entries:
            assert restored.lookup(item) == columnar.lookup(item)
    database = ColumnarDatabase([columnar, ColumnarList(entries)])
    restored = pickle.loads(pickle.dumps(database))
    assert restored.item_ids == database.item_ids
    item = entries[1][0]
    assert restored.local_scores(item) == database.local_scores(item)
