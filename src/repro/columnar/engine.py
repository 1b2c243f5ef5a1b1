"""Vectorized query kernels over :class:`ColumnarDatabase`.

The reference algorithms (``repro.algorithms.ta``, ``repro.core.bpa*``)
pay ~1µs of interpreter overhead per metered access: every sorted or
random access walks accessor → list → dataclass construction.  The
kernels here give the *same* results — the same ranked top-k, the same
per-mode access tallies, the same rounds/stop positions and the same
``extras`` — without the accessors:

* TA and BPA do not replay access by access.  Both stop tests depend
  only on the depth ``p`` of parallel sorted access, so the kernel
  searches for the stop depth ``p*`` over the snapshot's first-seen
  prefix (:func:`repro.columnar.walk.stop_depth_search`) and derives
  the rest: ``p*·m`` sorted and ``p*·m·(m-1)`` random accesses, ``p*``
  rounds, and the top k of the rows seen by ``p*``;
* BPA2, NRA and QC replay their access sequences on the snapshot's
  scalar-indexable layout (:class:`repro.columnar.database.DatabaseLayout`,
  derived once per snapshot and cached on it), because their state at a
  round depends on the order of the accesses within it;
* per-item overall scores come from the snapshot's
  :class:`repro.columnar.walk.TotalsMemo` for the query's scoring
  semantics: a kernel reads a row's total there and computes it on first
  touch, so a query pays scoring calls only for the rows it (or an
  earlier query, or the planner) reached — not for all ``n``;
* a :class:`QueryContext` just binds the snapshot and the memo, so
  building one is O(1) and :func:`repro.exec.run.execute_query`, the one
  kernel dispatcher, builds one per execution.

This is not assumed — ``tests/differential/`` proves it against the
reference implementations on Hypothesis-generated databases, including
tie-heavy ones.

Overall scores are computed with the *actual* scoring callable over the
row's local scores (argument order = list order, same floats), so even
non-associative aggregations like ``math.fsum`` match bit-for-bit.
"""

from __future__ import annotations

import heapq

from repro.algorithms.base import TopKBuffer
from repro.columnar.database import ColumnarDatabase
from repro.columnar.walk import TotalsMemo, stop_depth_search
from repro.errors import InvalidQueryError
from repro.scoring import SUM, ScoringFunction
from repro.types import AccessTally, Score, ScoredItem, TopKResult

_INF = float("inf")


class QueryContext:
    """One (database, scoring) pair, bound for a kernel run.

    The snapshot and its totals memo for the scoring.  Nothing is
    computed here, so a context costs O(1); the kernels read the
    snapshot's cached layout or first-seen prefix themselves.
    """

    __slots__ = ("database", "scoring", "m", "n", "memo")

    def __init__(self, database: ColumnarDatabase, scoring: ScoringFunction) -> None:
        self.database = database
        self.scoring = scoring
        self.m = database.m
        self.n = database.n
        #: row -> overall score under ``scoring``, NaN until first touch
        #: (``memo.totals``; ``memo.fill(row)`` computes and stores it).
        self.memo: TotalsMemo = database.totals_memo(scoring)


def _require_valid_k(k: int, n: int) -> None:
    # Mirrors TopKAlgorithm.run's validation so kernels fail identically.
    if not 1 <= k <= n:
        raise InvalidQueryError(f"k must be in 1..{n}, got {k}")


def _as_context(
    database: ColumnarDatabase | QueryContext, scoring: ScoringFunction
) -> QueryContext:
    if isinstance(database, QueryContext):
        if database.scoring is not scoring:
            raise InvalidQueryError(
                "QueryContext was built for a different scoring function"
            )
        return database
    return QueryContext(database, scoring)


def _searched(
    ctx: QueryContext,
    algorithm: str,
    depth: int,
    items: tuple[ScoredItem, ...],
    extras: dict,
) -> TopKResult:
    """TA's or BPA's result from its stop depth."""
    # The paper's accounting: m sorted accesses per round, each followed
    # by m - 1 random accesses, repeated even for already-seen items.
    sorted_count = depth * ctx.m
    return TopKResult(
        items=items,
        tally=AccessTally(sorted=sorted_count, random=sorted_count * (ctx.m - 1)),
        rounds=depth,
        stop_position=depth,
        algorithm=algorithm,
        extras=extras,
    )


def fast_ta(
    database: ColumnarDatabase | QueryContext,
    k: int,
    scoring: ScoringFunction = SUM,
) -> TopKResult:
    """:class:`ThresholdAlgorithm`'s result (defaults: no memoize,
    theta = 1) on columnar storage: its threshold after ``p`` rounds is
    the scoring of the local scores at depth ``p``."""
    ctx = _as_context(database, scoring)
    _require_valid_k(k, ctx.n)
    prefix = ctx.database.first_seen_prefix()
    depth, threshold, items = stop_depth_search(
        prefix, ctx.memo, k, prefix.threshold_scores
    )
    return _searched(ctx, "ta", depth, items, {"threshold": threshold})


def fast_bpa(
    database: ColumnarDatabase | QueryContext,
    k: int,
    scoring: ScoringFunction = SUM,
) -> TopKResult:
    """:class:`BestPositionAlgorithm`'s result (defaults: no memoize,
    theta = 1; tracker choice does not affect results): its lambda after
    ``p`` rounds is the scoring of the local scores at the best
    positions, which the first-seen prefix gives for every ``p``."""
    ctx = _as_context(database, scoring)
    _require_valid_k(k, ctx.n)
    prefix = ctx.database.first_seen_prefix()
    depth, lam, items = stop_depth_search(prefix, ctx.memo, k, prefix.lambda_scores)
    return _searched(
        ctx,
        "bpa",
        depth,
        items,
        {"lambda": lam, "best_positions": prefix.best_positions(depth)},
    )


def fast_bpa2(
    database: ColumnarDatabase | QueryContext,
    k: int,
    scoring: ScoringFunction = SUM,
) -> TopKResult:
    """Exact replay of :class:`BestPositionAlgorithm2` (defaults: stop
    rule checked per round, theta = 1).

    This is the batch throughput workhorse, so the running top-k heap
    and the per-round stop rule are inlined: the heap performs the exact
    operation sequence of :class:`TopKBuffer` (same ``(score, -item)``
    entries, built when a row is first evaluated, same eviction and
    tie-breaks), and the best-position local
    scores feeding ``lambda`` are maintained in place as best positions
    advance, instead of being re-gathered every round.
    """
    ctx = _as_context(database, scoring)
    m, n = ctx.m, ctx.n
    _require_valid_k(k, n)
    layout = ctx.database.layout()
    rows_at, score_at, ids = layout.rows_at, layout.score_at, layout.ids
    pos1_by_row = layout.pos1_by_row
    totals, fill = ctx.memo.totals, ctx.memo.fill
    heappush, heapreplace = heapq.heappush, heapq.heapreplace

    heap: list[tuple[Score, int]] = []  # TopKBuffer's exact entries
    heap_size = 0
    root: tuple[Score, int] | None = None  # heap[0] once k items are held
    evaluated = bytearray(n)
    seen = [bytearray(n + 2) for _ in range(m)]
    bp = [0] * m
    bp_scores: list[Score] = [_INF] * m  # score at bp; inf while bp == 0
    # Per-list loop state zipped once; mutable counters stay indexable.
    per_list = tuple(
        (i, rows_at[i], seen[i], score_at[i], [j for j in range(m) if j != i])
        for i in range(m)
    )
    direct_counts = [0] * m
    new_from = [0] * m  # new items surfaced by each list's direct accesses
    marks = [0] * m  # distinct positions seen per list (Theorem 5 evidence)
    rounds = 0
    deepest_direct = 0

    while True:
        rounds += 1
        progressed = False
        for i, rows_i, seen_i, score_i, others_i in per_list:
            p = bp[i]  # 0-based position of the smallest unseen entry
            if p >= n:
                continue  # this list is fully seen
            # Direct access to position bp + 1.
            direct_counts[i] += 1
            progressed = True
            if p + 1 > deepest_direct:
                deepest_direct = p + 1
            row = rows_i[p]
            seen_i[p + 1] = 1
            marks[i] += 1
            b = p + 1
            while seen_i[b + 1]:
                b += 1
            bp[i] = b
            bp_scores[i] = score_i[b - 1]
            if evaluated[row]:
                # Unreachable for a well-formed database (an item at an
                # unseen position is necessarily new — see
                # repro.core.bpa2); kept for exact parity with the
                # reference's defensive guard.
                continue
            evaluated[row] = 1
            new_from[i] += 1
            pos_row = pos1_by_row[row]
            for j in others_i:
                # One random access to list j (counted via new_from at
                # the end: every new item costs exactly m - 1 randoms).
                seen_j = seen[j]
                pj = pos_row[j]
                if not seen_j[pj]:
                    seen_j[pj] = 1
                    marks[j] += 1
                    b = bp[j]
                    if pj == b + 1:
                        b += 1
                        while seen_j[b + 1]:
                            b += 1
                        bp[j] = b
                        bp_scores[j] = score_at[j][b - 1]
            total = totals[row]
            if total != total:  # NaN: first touch of this row
                total = fill(row)
            entry = (total, -ids[row])
            if heap_size < k:
                heappush(heap, entry)
                heap_size += 1
                if heap_size == k:
                    root = heap[0]
            elif entry > root:
                heapreplace(heap, entry)
                root = heap[0]

        # lambda every round, as the reference's stop test computes it
        # before it looks at the buffer (a lambda that raises raises).
        lam = scoring(bp_scores)
        if (root is not None and root[0] >= lam) or not progressed:
            total_new = sum(new_from)
            random_counts = [total_new - new_from[j] for j in range(m)]
            tally = AccessTally(
                random=sum(random_counts), direct=sum(direct_counts)
            )
            extras = {
                "lambda": lam,
                "best_positions": tuple(bp),
                "per_list_accesses": tuple(
                    direct_counts[i] + random_counts[i] for i in range(m)
                ),
                "per_list_distinct_positions": tuple(marks),
            }
            ordered = sorted(heap, key=lambda e: (-e[0], -e[1]))
            return TopKResult(
                items=tuple(
                    ScoredItem(item=-neg, score=score) for score, neg in ordered
                ),
                tally=tally,
                rounds=rounds,
                stop_position=deepest_direct,
                algorithm="bpa2",
                extras=extras,
            )


def fast_nra(
    database: ColumnarDatabase | QueryContext,
    k: int,
    scoring: ScoringFunction = SUM,
) -> TopKResult:
    """Exact replay of :class:`NoRandomAccess` on columnar storage.

    The reference recomputes every seen item's worst/best bounds from
    scratch each round through dict-of-dict lookups.  The replay keeps
    flat per-row score vectors instead and re-aggregates a bound only
    when its inputs can have changed: the worst bound is refreshed when
    the row gains a local score, and rows seen in every list reuse their
    worst bound as their best bound (the two vectors are element-wise
    identical, so the pure scoring function returns the same float).
    Every scoring call that *is* made receives the exact vector the
    reference would build, so bounds, stop round and the ranked answer
    are bit-identical.
    """
    ctx = _as_context(database, scoring)
    m, n = ctx.m, ctx.n
    _require_valid_k(k, n)
    layout = ctx.database.layout()
    rows_at, score_at, ids = layout.rows_at, layout.score_at, layout.ids

    #: row -> local scores seen so far, 0.0 where unknown (the reference's
    #: ``worst_vector`` layout, kept in place between rounds).
    local: list[list[float] | None] = [None] * n
    have: list[int] = [0] * n  # row -> bitmask of lists already seen
    missing: list[int] = [0] * n  # row -> lists still unknown
    worst: list[float] = [0.0] * n  # row -> scoring(local[row]), kept fresh
    known_rows: list[int] = []
    last: list[Score] = [0.0] * m
    position = 0

    def check(force: bool) -> tuple[bool, tuple[ScoredItem, ...]]:
        # Mirrors NoRandomAccess._check_stop on the flat columns.
        if len(known_rows) < k and not force:
            return False, ()
        bounds: list[tuple[Score, Score, int]] = []  # (worst, best, item)
        for row in known_rows:
            w = worst[row]
            if missing[row]:
                vector = local[row]
                bits = have[row]
                best = scoring(
                    [
                        vector[i] if bits >> i & 1 else last[i]
                        for i in range(m)
                    ]
                )
            else:
                best = w
            bounds.append((w, best, ids[row]))
        bounds.sort(key=lambda entry: (-entry[0], entry[2]))
        top = bounds[:k]
        rest = bounds[k:]
        ranked = tuple(
            ScoredItem(item=item, score=w) for w, _best, item in top
        )
        if force:
            return True, ranked
        kth_worst = top[-1][0]
        best_unseen = scoring(list(last))
        best_rest = max(
            (best for _worst, best, _item in rest), default=float("-inf")
        )
        return kth_worst >= max(best_rest, best_unseen), ranked

    while True:
        position += 1
        p = position - 1
        for i in range(m):
            row = rows_at[i][p]
            score = score_at[i][p]
            last[i] = score
            vector = local[row]
            if vector is None:
                vector = [0.0] * m
                local[row] = vector
                missing[row] = m
                known_rows.append(row)
            vector[i] = score
            have[row] |= 1 << i
            missing[row] -= 1
            worst[row] = scoring(vector)

        stop, ranked = check(False)
        if not stop and position >= n:
            stop, ranked = check(True)
        if stop:
            return TopKResult(
                items=ranked,
                tally=AccessTally(sorted=position * m),
                rounds=position,
                stop_position=position,
                algorithm="nra",
                extras={},
            )


def fast_quick_combine(
    database: ColumnarDatabase | QueryContext,
    k: int,
    scoring: ScoringFunction = SUM,
) -> TopKResult:
    """Exact replay of :class:`QuickCombine` (default lookahead d = 3).

    The reference's adaptive scheduling is a pure function of the scores
    seen so far: the next sorted access goes to the list with the
    largest recent score drop over the lookahead window, ties to the
    lower list index.  Replaying that policy on the flat columns
    — same priming rounds, same drop arithmetic on the same floats,
    same per-new-item random-access completion — reproduces the
    reference's access sequence, and therefore its ranked answer,
    tallies and extras, bit for bit.
    """
    ctx = _as_context(database, scoring)
    m, n = ctx.m, ctx.n
    _require_valid_k(k, n)
    layout = ctx.database.layout()
    rows_at, score_at, ids = layout.rows_at, layout.score_at, layout.ids
    totals, fill = ctx.memo.totals, ctx.memo.fill
    lookahead = 3  # QuickCombine's default; other values gate the kernel off

    buffer = TopKBuffer(k)
    evaluated = bytearray(n)
    cursor = [0] * m
    history: list[list[float]] = [[] for _ in range(m)]
    sorted_count = 0
    new_items = 0

    def consume(i: int) -> None:
        nonlocal sorted_count, new_items
        p = cursor[i]
        cursor[i] = p + 1
        sorted_count += 1
        history[i].append(score_at[i][p])
        row = rows_at[i][p]
        if not evaluated[row]:
            evaluated[row] = 1
            new_items += 1  # costs m - 1 random accesses (once per item)
            total = totals[row]
            if total != total:  # NaN: first touch of this row
                total = fill(row)
            buffer.add(ids[row], total)

    def threshold() -> Score:
        return scoring([h[-1] for h in history])

    def drop(i: int) -> float:
        h = history[i]
        window = min(lookahead, len(h) - 1)
        if window == 0:
            return 0.0
        return (h[-1 - window] - h[-1]) / window

    def package(extras: dict) -> TopKResult:
        depth = max(len(h) for h in history)
        tally = AccessTally(sorted=sorted_count, random=new_items * (m - 1))
        return TopKResult(
            items=buffer.ranked(),
            tally=tally,
            rounds=depth,
            stop_position=depth,
            algorithm="qc",
            extras=extras,
        )

    def depths() -> tuple[int, ...]:
        return tuple(len(h) for h in history)

    # Prime every list so drops are defined and the threshold exists.
    for _ in range(min(lookahead + 1, n)):
        for i in range(m):
            consume(i)
        if buffer.all_at_least(threshold()):
            return package({"depths": depths()})

    # Adaptive phase: one sorted access at a time.
    while True:
        if buffer.all_at_least(threshold()):
            break
        candidates = [i for i in range(m) if cursor[i] < n]
        if not candidates:
            break  # everything seen; Y is exact
        consume(max(candidates, key=lambda i: (drop(i), -i)))

    return package({"depths": depths(), "threshold": threshold()})


#: Kernel registry, keyed by the reference algorithm's registry name.
KERNELS = {
    "ta": fast_ta,
    "bpa": fast_bpa,
    "bpa2": fast_bpa2,
    "nra": fast_nra,
    "qc": fast_quick_combine,
}


def get_kernel(name: str):
    """The vectorized kernel replaying the named reference algorithm."""
    if name not in KERNELS:
        raise KeyError(f"no vectorized kernel for {name!r}; known: {sorted(KERNELS)}")
    return KERNELS[name]
