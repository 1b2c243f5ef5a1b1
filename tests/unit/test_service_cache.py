"""ResultCache: LRU behavior, epoch indexing/expiry, key normalization."""

from __future__ import annotations

import time

import pytest

from repro.scoring import MIN, SUM, SumScoring, WeightedSumScoring
from repro.service.cache import (
    ResultCache,
    freeze_value,
    normalized_query_key,
    scoring_key,
)


class TestKeyNormalization:
    def test_equal_scoring_instances_share_a_key(self):
        assert scoring_key(SumScoring()) == scoring_key(SumScoring())
        assert scoring_key(SUM) == scoring_key(SumScoring())
        assert scoring_key(WeightedSumScoring([2.0, 1.0])) == scoring_key(
            WeightedSumScoring([2.0, 1.0])
        )

    def test_different_scorings_get_different_keys(self):
        assert scoring_key(SUM) != scoring_key(MIN)
        assert scoring_key(WeightedSumScoring([2.0, 1.0])) != scoring_key(
            WeightedSumScoring([1.0, 2.0])
        )

    def test_lambdas_never_falsely_collide(self):
        # Default reprs embed the object id, so two distinct callables
        # cannot share an entry (false misses are safe, false hits not).
        assert scoring_key(lambda s: sum(s)) != scoring_key(lambda s: sum(s))

    def test_default_repr_scorings_are_identity_pinned(self):
        # A key built from a default repr embeds the instance itself:
        # comparing address-bearing strings alone would let CPython's
        # id reuse alias a dead scoring with a different later one.
        class Opaque:
            def __call__(self, scores):
                return sum(scores)

        scoring = Opaque()
        key = scoring_key(scoring)
        assert key[-1] is scoring
        assert scoring_key(SUM)[-1] == repr(SUM)  # faithful reprs stay unpinned

    def test_nearby_weight_vectors_never_share_a_key(self):
        # Regression: WeightedSumScoring.name used to format weights
        # with 6 significant digits, so 0.3 and 0.30000004 — distinct
        # floats whose rankings differ — collided in the *name*
        # component of this key (the repr component saved the day only
        # by accident of tuple comparison order never being reached;
        # the name is documented as an identity and must be exact).
        close = WeightedSumScoring([0.3])
        closer = WeightedSumScoring([0.30000004])
        assert close.name != closer.name
        assert scoring_key(close) != scoring_key(closer)
        assert normalized_query_key("bpa2", 5, close, {}) != (
            normalized_query_key("bpa2", 5, closer, {})
        )

    def test_distinct_weight_vectors_get_distinct_keys_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        weight = st.floats(
            min_value=0.0,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        )
        vectors = st.lists(weight, min_size=1, max_size=4).filter(
            lambda ws: any(w > 0 for w in ws)
        )

        @hypothesis.given(first=vectors, second=vectors)
        def check(first, second):
            a = WeightedSumScoring(first)
            b = WeightedSumScoring(second)
            # Any two scorings that compare unequal on some score
            # vector must produce distinct cache keys — here the
            # weight tuples themselves are the witness: unequal
            # tuples always admit a separating score vector.
            if tuple(map(float, first)) != tuple(map(float, second)):
                assert scoring_key(a) != scoring_key(b)
            elif [repr(float(w)) for w in first] == [
                repr(float(w)) for w in second
            ]:
                # Bit-identical vectors share a key; -0.0 vs 0.0 may
                # key apart (a false miss, which is always safe).
                assert scoring_key(a) == scoring_key(b)

        check()

    def test_option_order_is_irrelevant(self):
        a = normalized_query_key("ta", 5, SUM, {"memoize": True, "x": 1})
        b = normalized_query_key("ta", 5, SUM, {"x": 1, "memoize": True})
        assert a == b

    def test_key_distinguishes_algorithm_k_and_options(self):
        base = normalized_query_key("ta", 5, SUM, {})
        assert normalized_query_key("bpa", 5, SUM, {}) != base
        assert normalized_query_key("ta", 6, SUM, {}) != base
        assert normalized_query_key("ta", 5, SUM, {"memoize": True}) != base

    def test_freeze_handles_nested_unhashables(self):
        frozen = freeze_value({"a": [1, {2, 3}], "b": {"c": [4]}})
        assert hash(frozen) == hash(freeze_value({"b": {"c": [4]}, "a": [1, {3, 2}]}))


class TestResultCache:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="maxsize"):
            ResultCache(0)

    def test_hit_and_miss_accounting(self):
        cache = ResultCache(4)
        key = normalized_query_key("ta", 5, SUM, {})
        assert cache.get(key, epoch=0) is None
        cache.put(key, "answer", epoch=0)
        assert cache.get(key, epoch=0) == "answer"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put(("a",), 1, epoch=0)
        cache.put(("b",), 2, epoch=0)
        assert cache.get(("a",), epoch=0) == 1  # refreshes 'a'
        cache.put(("c",), 3, epoch=0)  # evicts 'b', the LRU entry
        assert cache.get(("b",), epoch=0) is None
        assert cache.get(("a",), epoch=0) == 1
        assert cache.get(("c",), epoch=0) == 3
        assert cache.stats.evictions == 1

    def test_epoch_invalidation_is_lazy_and_counted(self):
        cache = ResultCache(4)
        cache.put(("a",), "stale", epoch=0)
        assert len(cache) == 1
        # The write epoch has passed: the entry is dropped on first read.
        assert cache.get(("a",), epoch=1) is None
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        # A fresh write under the new epoch serves normally.
        cache.put(("a",), "fresh", epoch=1)
        assert cache.get(("a",), epoch=1) == "fresh"

    def test_put_refreshes_epoch_and_value(self):
        cache = ResultCache(4)
        cache.put(("a",), "old", epoch=0)
        cache.put(("a",), "new", epoch=3)
        assert cache.get(("a",), epoch=3) == "new"
        assert len(cache) == 1

    def test_clear_preserves_stats(self):
        cache = ResultCache(4)
        cache.put(("a",), 1, epoch=0)
        cache.get(("a",), epoch=0)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_rejects_negative_patch_limit(self):
        with pytest.raises(ValueError, match="patch_limit"):
            ResultCache(4, patch_limit=-1)


class TestEpochIndex:
    """Entries are indexed by epoch so expiry never scans the table."""

    def test_drop_expired_removes_exactly_the_older_epochs(self):
        cache = ResultCache(16)
        for i in range(3):
            cache.put(("old", i), i, epoch=0)
        cache.put(("mid",), "m", epoch=2)
        for i in range(4):
            cache.put(("new", i), i, epoch=5)
        dropped = cache.drop_expired(5)
        assert dropped == 4
        assert len(cache) == 4
        assert ("mid",) not in cache
        assert all(("new", i) in cache for i in range(4))
        assert cache.stats.invalidations == 4
        assert cache.drop_expired(5) == 0  # idempotent

    def test_put_overwrite_moves_the_entry_between_epoch_buckets(self):
        cache = ResultCache(4)
        cache.put(("a",), "old", epoch=0)
        cache.put(("a",), "new", epoch=3)
        # The epoch-0 bucket no longer references the key: expiring
        # below 3 must not drop the refreshed entry.
        assert cache.drop_expired(3) == 0
        assert cache.get(("a",), epoch=3) == "new"

    def test_eviction_and_stale_read_keep_the_index_in_sync(self):
        cache = ResultCache(2)
        cache.put(("a",), 1, epoch=0)
        cache.put(("b",), 2, epoch=1)
        cache.put(("c",), 3, epoch=1)  # evicts ("a",) from epoch 0
        assert cache.drop_expired(1) == 0  # nothing left at epoch 0
        assert cache.get(("b",), epoch=2) is None  # lazy stale drop
        assert cache.drop_expired(2) == 1  # only ("c",) remained stale
        assert len(cache) == 0

    def test_clear_resets_the_index(self):
        cache = ResultCache(4)
        cache.put(("a",), 1, epoch=0)
        cache.clear()
        assert cache.drop_expired(10) == 0

    def test_entry_epoch_introspection(self):
        cache = ResultCache(4)
        assert cache.entry_epoch(("a",)) is None
        cache.put(("a",), 1, epoch=7)
        assert cache.entry_epoch(("a",)) == 7

    def test_drop_expired_cost_tracks_drops_not_cache_size(self):
        """Benchmark guard: expiring a handful of stale entries must be
        far cheaper than one pass over the whole table (the cost a
        scan-based expiry would pay on every cleanup)."""
        cache = ResultCache(200_000)
        stale, fresh = 100, 50_000
        for i in range(stale):
            cache.put(("stale", i), i, epoch=0)
        for i in range(fresh):
            cache.put(("fresh", i), i, epoch=1)
        # The scan a naive implementation would do: touch every entry.
        started = time.perf_counter()
        scanned = [
            key
            for key, (epoch, *_) in cache._entries.items()
            if epoch < 1
        ]
        scan_seconds = time.perf_counter() - started
        assert len(scanned) == stale
        started = time.perf_counter()
        dropped = cache.drop_expired(1)
        drop_seconds = time.perf_counter() - started
        assert dropped == stale
        assert len(cache) == fresh
        # 100 deletions vs 50k iterations: orders of magnitude apart —
        # the comparison holds with huge margin on any hardware.
        assert drop_seconds < scan_seconds

    def test_noop_drop_expired_short_circuits(self):
        # The per-mutation call on a warm cache must not scan buckets:
        # with nothing below the cutoff the min-bucket bound answers
        # in O(1) (observable via an untouched _by_epoch mapping).
        cache = ResultCache(16)
        for i in range(4):
            cache.put(("k", i), i, epoch=10 + i)
        untouched = cache._by_epoch
        cache._by_epoch = None  # any scan would raise
        try:
            assert cache.drop_expired(10) == 0
            assert cache.drop_expired(5) == 0
        finally:
            cache._by_epoch = untouched
        assert cache.drop_expired(11) == 1  # the real purge still works

    def test_hit_rate_counts_all_reuse_outcomes(self):
        cache = ResultCache(4)
        cache.put(("a",), 1, epoch=0)
        cache.get(("a",), epoch=0)
        cache.get(("b",), epoch=0)
        cache.stats.revalidated += 1
        cache.stats.patched += 1
        assert cache.stats.reuses == 3
        assert cache.stats.lookups == 4
        assert cache.stats.hit_rate == pytest.approx(0.75)
