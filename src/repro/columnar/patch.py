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
the touched columns, sharing the untouched lists by reference.  With
membership unchanged the per-scoring
:class:`~repro.columnar.database.TotalsMemo` entries carry over too:
untouched rows keep their overall scores, re-scored rows start over.
The scalar :class:`~repro.columnar.database.DatabaseLayout` never
carries: the successor derives its own on first read, so only a
snapshot that a BPA2, NRA or QC query reads pays for one.
That structural sharing is what makes snapshots epoch-versioned views:
in-flight queries keep reading the object they captured while the
service publishes the patched successor.

The work per patch is a few vectorized passes over the touched columns,
with Python work per touched item but none per stored item, and no
search over all ``n`` ids:

* fold the window to its *net* outcome per item (an insert+remove
  cancels; an update back to the original value is a no-op), bounded by
  the caller's patch budget;
* on a membership change, splice the ascending id array (drop removed
  rows, insert added ids) and map every old row to its new one with one
  ``bincount``/``cumsum`` over the removal and insertion slots;
* per touched list, find where each re-scored entry goes in the
  canonical (score desc, item asc) order (``searchsorted`` over the
  equal-score run), then splice items, scores and each rank's row in one
  copy per column: the spliced rows invert into ``rank_by_row``, so no
  id is searched to rebuild the rank permutation;
* build no scalar mirror and no id set: the successor's lists and
  database make them on first read;
* give back ``None`` whenever the window cannot prove the net delta
  (score vectors missing) or exceeds the budget — the caller falls back
  to a cold rebuild, trading time for certainty, never correctness.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.columnar.columnar_list import ColumnarList
from repro.columnar.database import ColumnarDatabase
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
    final: dict[int, tuple[float, ...] | None] = {}
    existed: dict[int, bool] = {}
    for event in events:
        item = event.item
        if item not in existed:
            existed[item] = database.has_item(item)
        if event.kind == "remove_item":
            final[item] = None
        else:
            if event.new_scores is None or len(event.new_scores) != database.m:
                return None
            final[item] = event.new_scores
    return final, existed


def _insert_before(
    items: np.ndarray,
    scores: np.ndarray,
    ins_items: np.ndarray,
    ins_scores: np.ndarray,
) -> np.ndarray:
    """For each new entry, the old rank it goes before (``n``: the end).

    ``items``/``scores`` are a canonical (score desc, item asc) column,
    vacated entries included; ``ins_*`` must be lexsorted the same way,
    so the result is non-decreasing.  The composite (-score, item) key
    is searched in two steps: the equal-score run by score, then the tie
    position by item.
    """
    negated = -scores
    run_start = np.searchsorted(negated, -ins_scores, side="left")
    run_stop = np.searchsorted(negated, -ins_scores, side="right")
    positions = np.empty(len(ins_items), dtype=np.int64)
    for j in range(len(ins_items)):
        lo, hi = int(run_start[j]), int(run_stop[j])
        positions[j] = lo + int(
            np.searchsorted(items[lo:hi], ins_items[j], side="left")
        )
    return positions


def _splice_plan(
    n: int, vacated: list[int], at: list[int]
) -> list[tuple[int, int, int]]:
    """How to splice a column of length ``n``: ``(lo, hi, j)`` steps.

    Each step copies old entries ``lo..hi-1`` and then, when ``j >= 0``,
    the ``j``-th inserted value.  ``vacated`` (ascending) are the old
    indices to drop; ``at[j]`` (non-decreasing) is the old index the
    ``j``-th inserted value goes before (``n``: at the end).
    """
    plan = []
    cursor = j = 0
    for stop in vacated + [n]:
        while j < len(at) and at[j] <= stop:
            plan.append((cursor, at[j], j))
            cursor = at[j]
            j += 1
        plan.append((cursor, stop, -1))
        cursor = stop + 1
    return plan


def _splice(
    column: np.ndarray, plan: list[tuple[int, int, int]], inserted: np.ndarray
) -> np.ndarray:
    """A new ``column`` spliced by ``plan`` (see :func:`_splice_plan`):
    one copy, in kept runs and inserted values."""
    pieces = []
    for lo, hi, j in plan:
        pieces.append(column[lo:hi])
        if j >= 0:
            pieces.append(inserted[j : j + 1])
    return np.concatenate(pieces)


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
    lists = database.lists
    first = lists[0]
    m, n = database.m, database.n

    removed: list[int] = []
    added: list[int] = []
    stayed: list[int] = []
    for item, state in sorted(final.items()):
        if state is None:
            if existed[item]:
                removed.append(item)
        else:
            (stayed if existed[item] else added).append(item)

    # Which lists re-score each surviving item: (m, len(stayed)) masks.
    stayed_ids = np.asarray(stayed, dtype=np.int64)
    stayed_rows = first.rows_of(stayed_ids)
    targets = np.asarray(
        [final[item] for item in stayed], dtype=np.float64
    ).reshape(len(stayed), m).T
    current = np.array([
        columnar_list._scores[columnar_list._rank_by_row[stayed_rows]]
        for columnar_list in lists
    ])
    changed = current != targets
    rescored = changed.any(axis=0)

    touched_items = len(removed) + len(added) + int(rescored.sum())
    if not touched_items:
        return database
    if touched_items > budget:
        return None

    # Rows (indices into the ascending id array) of the successor.  Old
    # row r moves by the ids inserted before it less the ids removed
    # before it, so old rows map to new ones without searching any id.
    membership_changed = bool(removed or added)
    removed_rows = first.rows_of(np.asarray(removed, dtype=np.int64))
    added_ids = np.asarray(added, dtype=np.int64)
    added_scores = np.asarray(
        [final[item] for item in added], dtype=np.float64
    ).reshape(len(added), m).T
    id_at = first._uids.searchsorted(added_ids)
    added_rows = (
        id_at
        + np.arange(len(added), dtype=np.int64)
        - removed_rows.searchsorted(id_at)
    )
    new_row = np.arange(n, dtype=np.int64)
    if membership_changed:
        uids = _splice(
            first._uids,
            _splice_plan(n, removed_rows.tolist(), id_at.tolist()),
            added_ids,
        )
        new_row += np.cumsum(
            np.bincount(id_at, minlength=n + 1)
            - np.bincount(removed_rows + 1, minlength=n + 1)
        )[:n]
    else:
        uids = first._uids
    n_new = uids.shape[0]
    dense = bool(
        n_new == 0 or (int(uids[0]) == 0 and int(uids[-1]) == n_new - 1)
    )
    ranks = np.arange(n_new, dtype=np.int64)

    new_lists: list[ColumnarList] = []
    for i, old_list in enumerate(lists):
        moved = changed[i]
        if not membership_changed and not moved.any():
            new_lists.append(old_list)  # epoch-versioned structural share
            continue
        moved_rows = stayed_rows[moved]
        old_ranks = old_list._rank_by_row
        items, scores = old_list._items, old_list._scores

        ins_items = np.concatenate((added_ids, stayed_ids[moved]))
        ins_scores = np.concatenate((added_scores[i], targets[i, moved]))
        ins_rows = np.concatenate((added_rows, new_row[moved_rows]))
        order = np.lexsort((ins_items, -ins_scores))
        ins_items = ins_items[order]
        ins_scores = ins_scores[order]
        vacated = old_ranks[np.concatenate((removed_rows, moved_rows))]
        plan = _splice_plan(
            n,
            np.sort(vacated).tolist(),
            _insert_before(items, scores, ins_items, ins_scores).tolist(),
        )
        # Each rank's successor row rides through the same splice as its
        # item and score; inverting the result gives rank_by_row.
        row_at = np.empty(n, dtype=np.int64)
        row_at[old_ranks] = new_row
        rank_by_row = np.empty(n_new, dtype=np.int64)
        rank_by_row[_splice(row_at, plan, ins_rows[order])] = ranks
        new_lists.append(
            ColumnarList._from_canonical(
                _splice(items, plan, ins_items),
                _splice(scores, plan, ins_scores),
                uids,
                rank_by_row,
                dense,
                old_list.name,
            )
        )

    labels = dict(database._labels)
    for item in removed:
        labels.pop(item, None)
    patched = ColumnarDatabase(new_lists, labels=labels or None)
    if not membership_changed:
        # The per-scoring totals carry over: only re-scored rows start over.
        database.carry_memos(patched, stayed_rows[rescored].tolist())
    return patched
