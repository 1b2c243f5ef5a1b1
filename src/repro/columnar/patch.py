"""Delta-patching a columnar snapshot from a mutation window.

:func:`patch_database` turns an immutable :class:`ColumnarDatabase`
snapshot plus the :class:`repro.dynamic.MutationEvent` window that
separates it from the source's current state into the *successor*
snapshot — without re-reading the source and without re-sorting columns
from scratch.  The events carry bit-exact per-list score vectors (the
``MutationLog`` contract established for delta-aware cache reuse), so
the patched snapshot is byte-identical to a cold rebuild; the
differential suite under ``tests/unit/test_patch.py`` proves it across
every datagen family.

The snapshot stays immutable: patching builds a *new*
:class:`ColumnarDatabase` and new :class:`ColumnarList` objects only for
the touched columns, sharing the untouched lists (and, when membership
is unchanged, the predecessor's derived
:class:`~repro.columnar.database.DatabaseLayout`) by reference.  With
membership unchanged the per-scoring
:class:`~repro.columnar.database.TotalsMemo` entries carry over too:
untouched rows keep their overall scores, re-scored rows start over.
That structural sharing is what makes snapshots epoch-versioned views:
in-flight queries keep reading the object they captured while the
service publishes the patched successor.

The work per patch is:

* fold the window to its *net* outcome per item (an insert+remove
  cancels; an update back to the original value is a no-op), bounded by
  the caller's patch budget;
* per touched list, mask-delete the vacated ranks and merge the
  re-scored entries into the canonical (score desc, item asc) order via
  ``searchsorted`` — only the touched span of ``rank_by_row`` is
  recomputed when membership is unchanged;
* give back ``None`` whenever the window cannot prove the net delta
  (score vectors missing) or exceeds the budget — the caller falls back
  to a cold rebuild, trading time for certainty, never correctness.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.columnar.columnar_list import ColumnarList
from repro.columnar.database import ColumnarDatabase, DatabaseLayout
from repro.dynamic.database import MutationEvent


def _fold_events(
    database: ColumnarDatabase, events: Iterable[MutationEvent]
) -> tuple[dict, dict] | None:
    """Net outcome per item: final score vector (or ``None`` = absent).

    Returns ``(final, existed)`` where ``existed[item]`` says whether the
    item was in the base snapshot, or ``None`` when any event lacks the
    score vectors needed to patch (a subscriber captured without scores
    cannot prove the post-state).
    """
    known = database.item_ids
    final: dict[int, tuple[float, ...] | None] = {}
    existed: dict[int, bool] = {}
    for event in events:
        item = event.item
        if item not in existed:
            existed[item] = item in known
        if event.kind == "remove_item":
            final[item] = None
        else:
            if event.new_scores is None or len(event.new_scores) != database.m:
                return None
            final[item] = event.new_scores
    return final, existed


def _merged_positions(
    kept_items: np.ndarray,
    kept_scores: np.ndarray,
    ins_items: np.ndarray,
    ins_scores: np.ndarray,
) -> np.ndarray:
    """Pre-insert indices placing each entry at its canonical rank.

    ``kept_*`` are canonical (score desc, item asc); ``ins_*`` must be
    lexsorted the same way.  The composite (-score, item) key is searched
    in two steps: the equal-score run by score, then the tie position by
    item — equal resulting indices are resolved by ``np.insert`` in
    argument order, which the caller's lexsort already made canonical.
    """
    negated = -kept_scores
    run_start = np.searchsorted(negated, -ins_scores, side="left")
    run_stop = np.searchsorted(negated, -ins_scores, side="right")
    positions = np.empty(len(ins_items), dtype=np.int64)
    for j in range(len(ins_items)):
        lo, hi = int(run_start[j]), int(run_stop[j])
        positions[j] = lo + int(
            np.searchsorted(kept_items[lo:hi], ins_items[j], side="left")
        )
    return positions


def patch_database(
    database: ColumnarDatabase,
    events: Iterable[MutationEvent],
    *,
    budget: int,
) -> ColumnarDatabase | None:
    """The successor snapshot after ``events``, or ``None`` to rebuild.

    Args:
        database: the base snapshot the events were applied on top of.
        events: the mutation window, oldest first (e.g. from
            :meth:`repro.dynamic.MutationLog.events_between`).
        budget: the largest number of net-touched items worth patching;
            wider deltas return ``None`` so the caller cold-rebuilds.

    Returns the base ``database`` itself when the window nets out to
    nothing (the snapshot is already current), a new structurally
    sharing :class:`ColumnarDatabase` otherwise, and ``None`` when the
    window is unpatchable (missing score vectors, inconsistent arity) or
    exceeds ``budget``.
    """
    folded = _fold_events(database, events)
    if folded is None:
        return None
    final, existed = folded
    m = database.m

    removals: list[int] = []
    inserts: list[tuple[int, tuple[float, ...]]] = []
    updates: list[list[tuple[int, float]]] = [[] for _ in range(m)]
    touched_items = 0
    for item, state in final.items():
        if state is None:
            if existed[item]:
                removals.append(item)
                touched_items += 1
        elif existed[item]:
            current = database.local_scores(item)
            changed = [
                i for i in range(m) if current[i] != float(state[i])
            ]
            if changed:
                touched_items += 1
                for i in changed:
                    updates[i].append((item, float(state[i])))
        else:
            inserts.append((item, tuple(float(s) for s in state)))
            touched_items += 1

    if not touched_items:
        return database
    if touched_items > budget:
        return None

    membership_changed = bool(removals or inserts)
    if membership_changed:
        old_uids = database.uids_array
        if removals:
            rows = database.lists[0].rows_of(
                np.asarray(sorted(removals), dtype=np.int64)
            )
            keep = np.ones(database.n, dtype=bool)
            keep[rows] = False
            kept_uids = old_uids[keep]
        else:
            kept_uids = np.asarray(old_uids)
        if inserts:
            added = np.asarray(
                sorted(item for item, _ in inserts), dtype=np.int64
            )
            slots = np.searchsorted(kept_uids, added)
            new_uids = np.insert(kept_uids, slots, added)
        else:
            new_uids = np.ascontiguousarray(kept_uids)
        n_new = int(new_uids.shape[0])
        dense = bool(
            n_new == 0
            or (int(new_uids[0]) == 0 and int(new_uids[-1]) == n_new - 1)
        )

    new_lists: list[ColumnarList] = []
    touched_lists: list[int] = []
    for i, old_list in enumerate(database.lists):
        to_delete = removals + [item for item, _ in updates[i]]
        to_insert = [(item, scores[i]) for item, scores in inserts]
        to_insert += updates[i]
        if not to_delete and not to_insert:
            new_lists.append(old_list)  # epoch-versioned structural share
            continue
        touched_lists.append(i)

        items = old_list.items_array
        scores = old_list.scores_array
        if to_delete:
            vacated = np.asarray(
                old_list.rank_by_row[
                    old_list.rows_of(np.asarray(to_delete, dtype=np.int64))
                ]
            )
            keep = np.ones(items.shape[0], dtype=bool)
            keep[vacated] = False
            kept_items = items[keep]
            kept_scores = scores[keep]
        else:
            vacated = np.empty(0, dtype=np.int64)
            kept_items = np.asarray(items)
            kept_scores = np.asarray(scores)

        if to_insert:
            ins_items = np.asarray([p[0] for p in to_insert], dtype=np.int64)
            ins_scores = np.asarray(
                [p[1] for p in to_insert], dtype=np.float64
            )
            order = np.lexsort((ins_items, -ins_scores))
            ins_items = ins_items[order]
            ins_scores = ins_scores[order]
            slots = _merged_positions(
                kept_items, kept_scores, ins_items, ins_scores
            )
            new_items = np.insert(kept_items, slots, ins_items)
            new_scores = np.insert(kept_scores, slots, ins_scores)
        else:
            slots = np.empty(0, dtype=np.int64)
            new_items = np.ascontiguousarray(kept_items)
            new_scores = np.ascontiguousarray(kept_scores)

        if membership_changed:
            rank_by_row = np.empty(n_new, dtype=np.int64)
            rows_in_rank_order = (
                new_items if dense else np.searchsorted(new_uids, new_items)
            )
            rank_by_row[rows_in_rank_order] = np.arange(n_new, dtype=np.int64)
            new_lists.append(
                ColumnarList._from_canonical(
                    new_items,
                    new_scores,
                    new_uids,
                    rank_by_row,
                    dense,
                    old_list.name,
                )
            )
        else:
            # Same membership, same per-list delete/insert count: ranks
            # outside [span_lo, span_hi] are provably unchanged, so only
            # the touched span of the rank permutation is recomputed —
            # the "incremental re-sort of the touched prefix".
            landed = slots + np.arange(slots.shape[0], dtype=np.int64)
            span_lo = min(int(vacated.min()), int(landed.min()))
            span_hi = max(int(vacated.max()), int(landed.max()))
            rank_by_row = np.array(old_list.rank_by_row)
            span_rows = old_list.rows_of(new_items[span_lo : span_hi + 1])
            rank_by_row[span_rows] = np.arange(
                span_lo, span_hi + 1, dtype=np.int64
            )
            new_lists.append(
                ColumnarList._from_canonical(
                    new_items,
                    new_scores,
                    np.asarray(old_list.uids_array),
                    rank_by_row,
                    old_list.dense_ids,
                    old_list.name,
                )
            )

    labels = dict(database._labels)
    for item in removals:
        labels.pop(item, None)
    patched = ColumnarDatabase(new_lists, labels=labels or None)
    if not membership_changed:
        # Layout memoization tracks the patched snapshot: the kernels'
        # QueryContext, which derived the predecessor's layout, gets the
        # successor's without a from-scratch derivation on first query.
        if database._layout is not None:
            patched._layout = DatabaseLayout.patched(
                database._layout, patched, touched_lists
            )
        # So do the per-scoring totals: only re-scored rows start over.
        rescored = {item for per_list in updates for item, _ in per_list}
        rows = database.lists[0].rows_of(
            np.fromiter(rescored, dtype=np.int64, count=len(rescored))
        )
        database.carry_memos(patched, rows.tolist())
    return patched
