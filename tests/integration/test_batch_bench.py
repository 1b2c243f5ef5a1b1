"""BatchRunner over both storage backends."""

from __future__ import annotations

import pytest

from repro.bench.batch import BatchRunner, default_query_batch
from repro.columnar import ColumnarDatabase
from repro.datagen import UniformGenerator
from repro.exec import QuerySpec
from repro.scoring import MIN, SUM, WeightedSumScoring


@pytest.fixture(scope="module")
def database():
    return UniformGenerator().generate(400, 3, seed=13)


class TestBatchRunner:
    def test_backends_produce_identical_batches(self, database):
        batch = default_query_batch(12, algorithm="bpa2", k_max=6)
        python_report = BatchRunner(database, backend="python").run(batch)
        columnar_report = BatchRunner(database, backend="columnar").run(batch)
        assert python_report.queries == columnar_report.queries == 12
        for a, b in zip(python_report.results, columnar_report.results):
            assert a == b
            assert a.extras == b.extras

    def test_kernel_dispatch_is_reported(self, database):
        batch = [
            QuerySpec("bpa2", k=3),
            QuerySpec("ta", k=3),
            QuerySpec("bpa", k=3),
            QuerySpec("naive", k=3),  # no kernel: generic columnar path
            QuerySpec("ta", k=3, options={"memoize": True}),  # kernel gated off
        ]
        report = BatchRunner(database, backend="columnar").run(batch)
        assert report.kernel_queries == 3
        python_report = BatchRunner(database, backend="python").run(batch)
        assert report.results == python_report.results

    def test_python_backend_never_uses_kernels(self, database):
        report = BatchRunner(database, backend="python").run(
            default_query_batch(4)
        )
        assert report.kernel_queries == 0
        assert report.queries_per_second > 0

    def test_mixed_scorings_share_nothing_incorrectly(self, database):
        batch = [
            QuerySpec("bpa2", k=4, scoring=SUM),
            QuerySpec("bpa2", k=4, scoring=MIN),
            QuerySpec("bpa2", k=4, scoring=SUM),
        ]
        runner = BatchRunner(database, backend="columnar")
        report = runner.run(batch)
        from repro.algorithms.base import get_algorithm

        for spec, result in zip(batch, report.results):
            reference = get_algorithm("bpa2").run(database, spec.k, spec.scoring)
            assert result == reference

    def test_equal_scorings_share_one_totals_memo(self, monkeypatch):
        # WeightedSumScoring has no __eq__, so a memo keyed by the object
        # would score rows once per instance; keyed by scoring semantics,
        # equal weights share one memo — every row is scored at most once
        # across the batch — and the answers hold.
        from repro.algorithms.base import get_algorithm
        from repro.columnar import TotalsMemo

        database = UniformGenerator().generate(500, 3, seed=3)
        fills = []
        fill = TotalsMemo.fill

        def counting_fill(memo, row):
            fills.append(row)
            return fill(memo, row)

        monkeypatch.setattr(TotalsMemo, "fill", counting_fill)
        batch = [
            QuerySpec(name, k=5, scoring=WeightedSumScoring([1.0, 2.0, 0.5]))
            for name in ("bpa2", "ta", "bpa", "bpa2")
        ]
        runner = BatchRunner(database, backend="columnar")
        report = runner.run(batch)
        assert len(runner.database._memos) == 1
        assert fills and len(fills) == len(set(fills)) < database.n
        assert report.kernel_queries == 4
        for spec, result in zip(batch, report.results):
            reference = get_algorithm(spec.algorithm).run(
                database, spec.k, spec.scoring
            )
            assert result == reference
            assert result.extras == reference.extras

    def test_accepts_either_database_type(self, database):
        columnar = ColumnarDatabase.from_database(database)
        batch = default_query_batch(3)
        from_python = BatchRunner(database, backend="columnar").run(batch)
        from_columnar = BatchRunner(columnar, backend="columnar").run(batch)
        assert from_python.results == from_columnar.results
        back = BatchRunner(columnar, backend="python").run(batch)
        assert back.results == from_columnar.results

    def test_rejects_unknown_backend(self, database):
        with pytest.raises(ValueError, match="unknown backend"):
            BatchRunner(database, backend="gpu")


class TestBatchEdgeCases:
    """Empty batches and out-of-range k have well-defined outcomes."""

    @pytest.mark.parametrize("backend", ("python", "columnar"))
    def test_empty_batch_is_a_valid_empty_report(self, database, backend):
        report = BatchRunner(database, backend=backend).run([])
        assert report.results == []
        assert report.queries == 0
        assert report.kernel_queries == 0
        assert report.seconds >= 0.0
        assert report.queries_per_second == 0.0

    @pytest.mark.parametrize("backend", ("python", "columnar"))
    def test_k_beyond_n_is_clamped_to_the_full_ranking(self, database, backend):
        runner = BatchRunner(database, backend=backend)
        clamped, _ = runner.run_one(QuerySpec("bpa2", k=database.n + 50))
        exact, _ = runner.run_one(QuerySpec("bpa2", k=database.n))
        assert len(clamped.items) == database.n
        assert clamped.items == exact.items

    def test_clamping_is_identical_across_backends(self, database):
        spec = QuerySpec("ta", k=10_000)
        python_result, _ = BatchRunner(database, backend="python").run_one(spec)
        columnar_result, _ = BatchRunner(
            database, backend="columnar"
        ).run_one(spec)
        assert python_result == columnar_result

    def test_k_below_one_still_raises(self, database):
        from repro.errors import InvalidQueryError

        runner = BatchRunner(database, backend="columnar")
        with pytest.raises(InvalidQueryError):
            runner.run_one(QuerySpec("bpa2", k=0))

