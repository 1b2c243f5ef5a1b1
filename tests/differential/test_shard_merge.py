"""Differential proof that sharded execution is a pure optimization.

The merge bound of :mod:`repro.service.sharding` claims the fan-out /
merge pipeline returns *exactly* the single-database answer — ranked
items, scores and tie-breaks.  Hypothesis drives the claim across every
datagen distribution family the repo ships and shard counts 1, 2, 3 and
7 (including counts that do not divide ``n`` and counts close to ``n``),
for every merge-exact algorithm the planner can choose, with the cache
both on and off.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import get_algorithm
from repro.columnar import ColumnarDatabase
from repro.datagen import make_generator
from repro.exec import QuerySpec
from repro.lists.database import Database
from repro.service import QueryService, partition_database
from repro.service.sharding import MERGE_EXACT_ALGORITHMS
from repro.testing import score_matrix_strategy as score_matrices

#: Every distribution family the repo ships.
DISTRIBUTIONS = ("uniform", "gaussian", "correlated", "zipf", "copula")
SHARD_COUNTS = (1, 2, 3, 7)


def _assert_sharded_equals_reference(database, k, algorithm, shards):
    reference = get_algorithm(algorithm).run(database, k)
    with QueryService(
        database, shards=shards, pool="serial", cache_size=0
    ) as service:
        served = service.submit(QuerySpec(algorithm, k=k))
    assert served.item_ids == reference.item_ids, (
        f"{algorithm} S={shards} k={k}: items diverge "
        f"({served.item_ids} vs {reference.item_ids})"
    )
    assert served.scores == reference.scores, (
        f"{algorithm} S={shards} k={k}: scores diverge"
    )


class TestShardMergeBound:
    """Sharded submit() == single-shard reference, all distributions."""

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @settings(max_examples=15)
    @given(data=st.data())
    def test_generated_databases(self, distribution, data):
        n = data.draw(st.integers(5, 60), label="n")
        m = data.draw(st.integers(1, 4), label="m")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        k = data.draw(st.integers(1, n), label="k")
        shards = data.draw(st.sampled_from(SHARD_COUNTS), label="shards")
        algorithm = data.draw(
            st.sampled_from(("ta", "bpa", "bpa2")), label="algorithm"
        )
        database = make_generator(distribution).generate(n, m, seed=seed)
        _assert_sharded_equals_reference(database, k, algorithm, shards)

    @settings(max_examples=20)
    @given(data=st.data())
    def test_cache_and_overfetch_do_not_change_answers(self, data):
        distribution = data.draw(
            st.sampled_from(DISTRIBUTIONS), label="distribution"
        )
        n = data.draw(st.integers(5, 50), label="n")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        shards = data.draw(st.sampled_from(SHARD_COUNTS), label="shards")
        ks = data.draw(
            st.lists(st.integers(1, n), min_size=1, max_size=6), label="ks"
        )
        database = make_generator(distribution).generate(n, 3, seed=seed)
        specs = [QuerySpec("auto", k=k) for k in ks]
        with QueryService(database, shards=shards, pool="serial") as cached:
            with_cache = cached.submit_many(specs)
        with QueryService(
            database, shards=shards, pool="serial", cache_size=0
        ) as uncached:
            without_cache = uncached.submit_many(specs)
        assert [(r.item_ids, r.scores) for r in with_cache] == [
            (r.item_ids, r.scores) for r in without_cache
        ]


class TestPartitioning:
    @given(
        matrix=score_matrices(max_items=24, max_lists=3, tie_heavy=True),
        shards=st.sampled_from(SHARD_COUNTS),
    )
    def test_shards_partition_the_item_set(self, matrix, shards):
        database = ColumnarDatabase.from_database(
            Database.from_score_rows([[float(s) for s in row] for row in matrix])
        )
        parts = partition_database(database, shards)
        assert 1 <= len(parts) <= min(shards, database.n)
        seen: set[int] = set()
        for part in parts:
            assert part.m == database.m
            assert part.n >= 1
            assert not (part.item_ids & seen)
            seen |= part.item_ids
            # Every item keeps its global local scores.
            for item in part.item_ids:
                assert part.local_scores(item) == database.local_scores(item)
        assert seen == database.item_ids

    def test_shard_counts_beyond_n_are_clamped(self):
        database = ColumnarDatabase.from_score_rows([[1.0, 2.0, 3.0]])
        parts = partition_database(database, 7)
        assert len(parts) == 3
        assert all(part.n == 1 for part in parts)


class TestMergeSafety:
    def test_nra_is_not_merge_exact(self):
        # NRA reports lower-bound scores; merging bounds across shards
        # is not provably exact, so the executor must bypass fan-out.
        assert "nra" not in MERGE_EXACT_ALGORITHMS

    @settings(max_examples=10)
    @given(data=st.data())
    def test_nra_still_served_exactly_with_shards_configured(self, data):
        n = data.draw(st.integers(5, 40), label="n")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        k = data.draw(st.integers(1, n), label="k")
        database = make_generator("uniform").generate(n, 3, seed=seed)
        reference = get_algorithm("nra").run(database, k)
        with QueryService(
            database, shards=3, pool="serial", cache_size=0
        ) as service:
            served = service.submit(QuerySpec("nra", k=k))
        assert served.item_ids == reference.item_ids
        assert served.scores == reference.scores
        assert served.stats.fanout == 1
