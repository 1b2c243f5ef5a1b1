"""Differential proof that lazily filled totals change nothing.

Per-item overall scores are computed on first touch into the snapshot's
:class:`repro.columnar.TotalsMemo`, by the planner's certified walk
(:class:`repro.service.planner.ListStatistics`) and by the kernels, and
carried across same-membership snapshot patches.  Each of those paths
must give exactly what the eager full scan gave:

* the walk's ``kth_total`` / ``threshold_at`` / ``ta_stop_estimate``
  equal a full-scan reference (every total computed and sorted) for
  every ``k``, queried in random order so resumption and
  smaller-after-larger lookups are covered;
* kernels over a memo the planner filled in part, or one a patch
  carried forward, equal a cold run (``==`` and ``.extras``), and a
  carried memo equals a fresh fill row for row;
* a seeded grid of plans and shard decisions is identical under the
  walk and under the full-scan reference;
* a fresh stock-sum query, planned or forced, sums exactly only the
  rows whose approximations come within ``2 * mu`` of the k-th
  approximation or above it, in one batch, and its only scalar calls
  are ``threshold_at`` probes and one bound per search probe, while a
  subclass keeps its per-row calls.

Databases come from every datagen family plus tie-heavy matrices.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import get_algorithm
from repro.columnar import ColumnarDatabase, TotalsMemo, get_kernel, patch_database
from repro.datagen import make_generator
from repro.dynamic.database import MutationEvent
from repro.errors import InvalidQueryError
from repro.exec.keys import QuerySpec
from repro.lists.database import Database
from repro.scoring import AVERAGE, MAX, MIN, SUM, SumScoring, WeightedSumScoring
from repro.service.planner import ListStatistics, QueryPlanner, ServicePolicy
from repro.service.service import _snapshot_dynamic
from repro.service.workload import dynamic_from
from repro.testing import score_matrix_strategy as score_matrices

DISTRIBUTIONS = ("uniform", "gaussian", "correlated", "zipf", "copula")
KERNEL_NAMES = ("ta", "bpa", "bpa2", "qc")


class FullScanStatistics(ListStatistics):
    """The eager statistics: every total computed and sorted up front."""

    __slots__ = ("_desc",)

    def __init__(self, database, scoring) -> None:
        super().__init__(database, scoring)
        totals = [scoring(column) for column in database.score_matrix().T.tolist()]
        self._desc = np.sort(np.asarray(totals, dtype=np.float64))[::-1]

    def kth_total(self, k: int) -> float:
        if not 1 <= k <= self.n:
            raise InvalidQueryError(f"k must be in 1..{self.n}, got {k}")
        return float(self._desc[k - 1])


def scorings_for(m: int) -> list:
    return [
        SUM,
        MIN,
        MAX,
        AVERAGE,
        WeightedSumScoring([0.5 + (i % 3) for i in range(m)]),
    ]


@st.composite
def databases(draw):
    """A columnar database from a datagen family or a tie-heavy matrix,
    large enough that the walk takes several steps."""
    family = draw(st.sampled_from(DISTRIBUTIONS + ("tie-heavy",)), label="family")
    if family == "tie-heavy":
        matrix = draw(
            score_matrices(max_items=120, max_lists=4, min_items=33, tie_heavy=True),
            label="matrix",
        )
        plain = Database.from_score_rows([[float(s) for s in row] for row in matrix])
    else:
        n = draw(st.integers(33, 300), label="n")
        m = draw(st.integers(1, 4), label="m")
        seed = draw(st.integers(0, 2**16), label="seed")
        plain = make_generator(family).generate(n, m, seed=seed)
    return plain


def cold_run(plain, name, k, scoring):
    return get_kernel(name)(ColumnarDatabase.from_database(plain), k, scoring)


def assert_same_result(ours, cold) -> None:
    assert ours == cold
    assert ours.extras == cold.extras


class TestCertifiedWalk:
    @settings(max_examples=40)
    @given(plain=databases(), data=st.data())
    def test_matches_full_scan_for_every_k_in_random_order(self, plain, data):
        columnar = ColumnarDatabase.from_database(plain)
        scoring = data.draw(st.sampled_from(scorings_for(plain.m)), label="scoring")
        lazy = ListStatistics(columnar, scoring)
        full = FullScanStatistics(ColumnarDatabase.from_database(plain), scoring)
        order = data.draw(st.permutations(range(1, columnar.n + 1)), label="ks")
        for k in order:
            assert lazy.kth_total(k) == full.kth_total(k)
            assert lazy.ta_stop_estimate(k) == full.ta_stop_estimate(k)
        for position in range(1, columnar.n + 1):
            assert lazy.threshold_at(position) == full.threshold_at(position)

    def test_walk_sums_only_rows_that_can_reach_the_kth_total(self):
        plain = make_generator("uniform").generate(4000, 3, seed=2)
        columnar = ColumnarDatabase.from_database(plain)
        stats = ListStatistics(columnar, SUM)
        full = FullScanStatistics(ColumnarDatabase.from_database(plain), SUM)
        assert stats.kth_total(10) == full.kth_total(10)
        depth = stats._depth
        assert depth < columnar.n // 4
        prefix = columnar.first_seen_prefix()
        seen = prefix.seen_by(depth)
        reached = {
            row
            for lst in columnar.lists
            for row in lst.rows_of(lst.items_array[:depth]).tolist()
        }
        assert set(prefix.rows[:seen].tolist()) == reached
        memo = columnar.totals_memo(SUM)
        assert candidate_rows(columnar, SUM, depth, 10) == filled_rows(memo)
        assert 10 <= len(filled_rows(memo)) < 20

    def test_a_failed_step_leaves_the_walk_as_it_was(self):
        class Flaky:
            name = "flaky"
            failures = 1

            def __call__(self, scores):
                if self.failures and len(scores) and scores[0] < 0.5:
                    self.failures -= 1
                    raise RuntimeError("transient")
                return SUM(scores)

        plain = make_generator("uniform").generate(400, 3, seed=6)
        scoring = Flaky()
        stats = ListStatistics(ColumnarDatabase.from_database(plain), scoring)
        full = FullScanStatistics(ColumnarDatabase.from_database(plain), SUM)
        with pytest.raises(RuntimeError):
            stats.kth_total(300)
        for k in (300, 1, 150):
            assert stats.kth_total(k) == full.kth_total(k)

    def test_rejects_k_out_of_range(self):
        columnar = ColumnarDatabase.from_score_rows([[1.0, 2.0], [2.0, 1.0]])
        stats = ListStatistics(columnar, SUM)
        for k in (0, 3):
            with pytest.raises(InvalidQueryError):
                stats.kth_total(k)


def filled_rows(memo) -> set[int]:
    return {row for row, total in enumerate(memo.totals) if not math.isnan(total)}


def candidate_rows(columnar, scoring, depth: int, k: int) -> set[int]:
    """The rows seen by ``depth`` whose approximations come within twice
    the margin of the k-th approximation, or above it."""
    memo = columnar.totals_memo(scoring)
    prefix = columnar.first_seen_prefix()
    seen = prefix.seen_by(depth)
    approx = memo.approximations(prefix, seen)
    kth = np.sort(approx)[-k]
    return set(prefix.rows[:seen][approx >= kth - 2 * memo.margin(prefix)].tolist())


class TestBatchFills:
    """A fresh stock-sum query sums about ``k`` rows, in one batch."""

    @pytest.mark.parametrize("how", ["planned", "ta", "bpa"])
    @pytest.mark.parametrize(
        "make_scoring",
        [lambda: SUM, lambda: WeightedSumScoring([0.4, 0.9, 0.1, 0.7])],
        ids=["sum", "wsum"],
    )
    def test_a_fresh_query_makes_one_exact_batch(self, make_scoring, how, monkeypatch):
        scoring = make_scoring()
        plain = make_generator("uniform").generate(2000, 4, seed=3)
        columnar = ColumnarDatabase.from_database(plain)
        k, probes = 20, []
        references = {name: get_algorithm(name).run(plain, k, scoring) for name in ("ta", "bpa")}
        calls, batches = [], []
        scalar, fill_rows = type(scoring).__call__, TotalsMemo.fill_rows

        def counted(self, scores):
            calls.append(list(scores))
            return scalar(self, scores)

        def recorded(self, rows):
            batches.append(rows.tolist())
            return fill_rows(self, rows)

        # patched on the classes, as the service benchmark's tracer does
        monkeypatch.setattr(type(scoring), "__call__", counted)
        monkeypatch.setattr(TotalsMemo, "fill_rows", recorded)
        if how == "planned":
            planner = QueryPlanner(columnar)
            name = planner.plan(QuerySpec("auto", k, scoring), cache_enabled=False).algorithm
            statistics = planner.statistics(scoring)
            probes = [
                [float(lst.scores_array[position - 1]) for lst in columnar.lists]
                for position in statistics._thresholds
            ]
        else:
            name = how
        assert name in ("ta", "bpa")
        result = get_kernel(name)(columnar, k, scoring)
        assert result == references[name]
        assert result.extras == references[name].extras

        # one batch: the rows that can reach the k-th total, at the depth
        # of whoever summed them
        depth = statistics._depth if how == "planned" else result.stop_position
        assert len(batches) == 1
        assert set(batches[0]) == candidate_rows(columnar, scoring, depth, k)
        assert k <= len(batches[0]) < 2 * k
        memo = columnar.totals_memo(scoring)
        assert filled_rows(memo) == set(batches[0])
        for row in batches[0]:
            column = columnar.score_matrix()[:, row].tolist()
            assert memo.totals[row].hex() == scalar(scoring, column).hex()

        # scalar calls: the planner's threshold probes, then one bound per
        # search probe, each the bound's argument at some depth
        prefix = columnar.first_seen_prefix()
        assert calls[: len(probes)] == probes
        bounds = calls[len(probes) :]
        n = columnar.n
        arguments = (
            prefix.threshold_scores(n) if name == "ta" else prefix.lambda_scores(n)
        ).tolist()
        assert all(argument in arguments for argument in bounds)
        assert 1 <= len(bounds) <= 2 * math.ceil(math.log2(result.stop_position + 1)) + 1

    def test_a_subclass_keeps_its_own_per_row_calls(self):
        class Doubled(SumScoring):
            def __init__(self):
                self.calls = 0

            def __call__(self, scores):
                self.calls += 1
                return 2.0 * math.fsum(scores)

        scoring = Doubled()
        columnar = ColumnarDatabase.from_database(
            make_generator("uniform").generate(300, 3, seed=4)
        )
        rows = np.arange(0, columnar.n, 2)
        memo = columnar.totals_memo(scoring)
        memo.fill_rows(rows)
        assert scoring.calls == len(rows)
        block = columnar.score_matrix()
        for row in rows.tolist():
            assert memo.totals[row] == 2.0 * math.fsum(block[:, row].tolist())


class TestKernelsOverSharedMemos:
    @settings(max_examples=40)
    @given(plain=databases(), data=st.data())
    def test_planner_filled_memo_equals_cold_run(self, plain, data):
        columnar = ColumnarDatabase.from_database(plain)
        scoring = data.draw(st.sampled_from(scorings_for(plain.m)), label="scoring")
        walked_k = data.draw(st.integers(1, columnar.n), label="walked k")
        ListStatistics(columnar, scoring).kth_total(walked_k)
        for name in KERNEL_NAMES:
            k = data.draw(st.integers(1, columnar.n), label=f"{name} k")
            assert_same_result(
                get_kernel(name)(columnar, k, scoring), cold_run(plain, name, k, scoring)
            )

    @pytest.mark.parametrize("family", DISTRIBUTIONS)
    def test_carried_memo_equals_fresh_fill_and_cold_runs(self, family):
        base = make_generator(family).generate(120, 3, seed=9)
        source = dynamic_from(base)
        snapshot = _snapshot_dynamic(source)
        scorings = scorings_for(3)
        for scoring in scorings:
            ListStatistics(snapshot, scoring).kth_total(40)  # a partial fill
            get_kernel("bpa2")(snapshot, 7, scoring)
        events: list[MutationEvent] = []
        source.subscribe(events.append)
        rng = np.random.default_rng(4)
        ids = sorted(source.item_ids)
        for _ in range(12):
            source.update_score(
                int(rng.integers(3)), ids[int(rng.integers(len(ids)))], float(rng.random())
            )
        patched = patch_database(snapshot, events, budget=10**9)
        assert patched is not None and patched is not snapshot
        rebuilt = _snapshot_dynamic(source)
        plain = rebuilt.to_database()
        for scoring in scorings:
            carried = patched.totals_memo(scoring)
            fresh = rebuilt.totals_memo(scoring)
            fresh.fill_rows(np.arange(rebuilt.n))
            filled = [row for row, total in enumerate(carried.totals) if not math.isnan(total)]
            assert filled  # untouched rows kept their totals
            for row in filled:
                assert carried.totals[row] == fresh.totals[row]
            for name in KERNEL_NAMES:
                for k in (1, 5, 30):
                    assert_same_result(
                        get_kernel(name)(patched, k, scoring),
                        cold_run(plain, name, k, scoring),
                    )

    def test_membership_change_starts_empty(self):
        source = dynamic_from(make_generator("uniform").generate(40, 2, seed=1))
        snapshot = _snapshot_dynamic(source)
        get_kernel("ta")(snapshot, 5, SUM)
        events: list[MutationEvent] = []
        source.subscribe(events.append)
        source.insert_item(900, [0.5, 0.5])
        patched = patch_database(snapshot, events, budget=8)
        assert patched is not None and patched._memos == {}


def plan_grid(databases, policies, monkeypatch, *, full_scan: bool):
    """Every plan and shard decision of the grid, in a fixed order."""
    decisions = []
    ks = (1, 2, 3, 5, 8, 10, 16, 20, 33, 64, 200)
    with monkeypatch.context() as patch:
        if full_scan:
            patch.setattr("repro.service.planner.ListStatistics", FullScanStatistics)
        for plain in databases:
            for policy in policies:
                planner = QueryPlanner(
                    ColumnarDatabase.from_database(plain), policy=policy
                )
                for scoring in [SUM, MIN, MAX] + [
                    WeightedSumScoring(list(weights))
                    for weights in np.random.default_rng(3).random((6, 4)) + 0.05
                ]:
                    for k in ks:
                        for cache in (True, False):
                            decisions.append(
                                planner.plan(
                                    QuerySpec("auto", k, scoring), cache_enabled=cache
                                )
                            )
                    decisions.append(
                        planner.choose_shard_count(
                            pool="process", cpus=4, k=12, scoring=scoring
                        )
                    )
    return decisions


class TestPlanIdentity:
    def test_grid_matches_full_scan_statistics(self, monkeypatch):
        databases = [
            make_generator(family).generate(200, 4, seed=21)
            for family in ("uniform", "correlated", "gaussian", "zipf")
        ]
        policies = [ServicePolicy()]
        walked = plan_grid(databases, policies, monkeypatch, full_scan=False)
        scanned = plan_grid(databases, policies, monkeypatch, full_scan=True)
        assert len(walked) == 4 * 1 * 9 * (11 * 2 + 1)
        assert walked == scanned


class TestConcurrentFills:
    """``submit_async`` workers and thread-pool shards share snapshots:
    racing first touches must agree with a cold run."""

    def test_racing_threads_agree_with_cold_runs(self, monkeypatch):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        batches = []
        batch = WeightedSumScoring.batch

        def counted_batch(self, block):
            batches.append(block.shape[1])
            return batch(self, block)

        monkeypatch.setattr(WeightedSumScoring, "batch", counted_batch)

        plain = make_generator("uniform").generate(1500, 4, seed=5)
        columnar = ColumnarDatabase.from_database(plain)
        weights = [[1.0, 0.5, 0.25, 2.0], [0.3, 0.3, 1.0, 1.0], [2.0, 1.0, 1.0, 0.1]]
        jobs = [
            (name, k, index)
            for index in range(len(weights))
            for name in KERNEL_NAMES
            for k in (1, 10, 40)
        ]
        expected = {
            job: cold_run(plain, job[0], job[1], WeightedSumScoring(weights[job[2]]))
            for job in jobs
        }

        def run(job):
            name, k, index = job
            # a fresh instance per call: equal semantics share one memo
            scoring = WeightedSumScoring(weights[index])
            if k == 40:
                ListStatistics(columnar, scoring).kth_total(k)
            return job, get_kernel(name)(columnar, k, scoring)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, job) for job in jobs * 4]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4 * len(jobs)
        assert batches  # the walks filled their steps in batches
        for job, result in results:
            assert_same_result(result, expected[job])
        assert len(columnar._memos) == len(weights)
        for index, row_weights in enumerate(weights):
            scoring = WeightedSumScoring(row_weights)
            totals = columnar.totals_memo(scoring).totals
            for row, column in enumerate(columnar.score_matrix().T.tolist()):
                if not math.isnan(totals[row]):
                    assert totals[row] == scoring(column)
