"""Stateful mutation-fuzz of the delta-aware result cache.

A rule-based state machine drives a live :class:`QueryService` over a
:class:`DynamicDatabase`: score updates, inserts and removals interleave
with query submissions in every order Hypothesis can invent, across all
datagen distribution families, tie-heavy integer scores, both SUM and
MIN scoring, one and two shards, and deliberately tiny mutation-log /
patch-limit knobs (so truncation and patch-overflow paths are exercised,
not just the happy revalidation path).

The single invariant: **every** served answer — whatever its cache
outcome (hit, revalidated, patched, or fresh execution) — is an exact
ranked top-k of the database's *current* state: the served score
sequence is bit-identical to the brute-force oracle's and every served
item honestly carries its own current aggregate.  Wherever scores are
untied this means identical items and tie-breaks too; within an
equal-score tie group item identity follows the library's equivalence
contract (:meth:`repro.types.TopKResult.same_scores` — engines may
include either tied item, all correctly).  The cache may only ever
change *how fast* an answer arrives, never what it is.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.datagen.base import make_generator
from repro.exec import QuerySpec
from repro.scoring import MIN, SUM
from repro.service import QueryService, ServicePolicy
from repro.service.workload import answers_match, dynamic_from, fresh_topk

FAMILIES = ("uniform", "gaussian", "correlated", "zipf", "copula")
ALGORITHMS = ("ta", "bpa", "bpa2", "auto")
SCORINGS = (SUM, MIN)

#: Scores mix a tiny grid (forcing aggregate ties, the nastiest
#: certificate edge) with ordinary floats.  The range matches the
#: datagen families' local-score scale so mutations land everywhere
#: relative to the cached boundary: below it (revalidations), around it
#: (ties, patches) and above it (entries, certificate breaks).
scores = st.one_of(
    st.integers(min_value=0, max_value=4).map(lambda v: v / 4),
    st.floats(
        min_value=0.0,
        max_value=1.5,
        allow_nan=False,
        allow_infinity=False,
        width=32,
    ).map(float),
)


class CacheDeltaMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.service: QueryService | None = None
        self.source = None
        self.next_id = 0
        #: the most recent query and its served top items — raw material
        #: for the targeted rules that stress the certificate boundary.
        self.last_query: tuple | None = None
        self.last_top: tuple = ()

    @initialize(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(min_value=0, max_value=2**16),
        # Spans both regimes: k_fetch covering most of the database
        # (every item a cached member — deletes/patches dominate) and
        # k_fetch far below n (outsider mutations — revalidations).
        n=st.integers(min_value=4, max_value=32),
        m=st.integers(min_value=2, max_value=3),
        shards=st.sampled_from((1, 2)),
        log_depth=st.sampled_from((4, 16, 64)),
        patch_limit=st.sampled_from((1, 3, 8)),
    )
    def setup(self, family, seed, n, m, shards, log_depth, patch_limit):
        database = make_generator(family).generate(n, m, seed=seed)
        self.source = dynamic_from(database)
        self.next_id = n + 1000
        self.service = QueryService(
            self.source,
            shards=shards,
            pool="serial",
            policy=ServicePolicy(
                delta_log_depth=log_depth, delta_patch_limit=patch_limit
            ),
        )

    def teardown(self):
        if self.service is not None:
            self.service.close()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    @rule(data=st.data())
    def update_score(self, data):
        ids = sorted(self.source.item_ids)
        if not ids:
            return
        self.source.update_score(
            data.draw(st.integers(0, self.source.m - 1), label="list"),
            data.draw(st.sampled_from(ids), label="item"),
            data.draw(scores, label="score"),
        )

    @rule(data=st.data())
    def insert_item(self, data):
        self.source.insert_item(
            self.next_id,
            [data.draw(scores, label="score") for _ in range(self.source.m)],
        )
        self.next_id += 1

    @rule(data=st.data())
    def remove_item(self, data):
        ids = sorted(self.source.item_ids)
        if not ids:
            return
        self.source.remove_item(data.draw(st.sampled_from(ids), label="item"))

    @rule(data=st.data())
    def mutate_recent_top_item(self, data):
        # Aim straight at the certificate: touching a *cached member*
        # forces the patch path (reorders, boundary-weakening
        # downgrades, exact re-merges) instead of the easy
        # outsider-revalidation path random ids mostly hit.
        candidates = [
            item for item in self.last_top if item in self.source.lists[0]
        ]
        if not candidates:
            return
        self.source.update_score(
            data.draw(st.integers(0, self.source.m - 1), label="list"),
            data.draw(st.sampled_from(candidates), label="member"),
            data.draw(scores, label="score"),
        )

    @rule()
    def requery_last(self):
        # Re-submitting the previous spec right after mutations is the
        # lookup most likely to exercise revalidate/patch (the entry is
        # guaranteed hot and the delta window short).
        if self.last_query is None:
            return
        k, algorithm, scoring = self.last_query
        self.query(k=k, algorithm=algorithm, scoring=scoring)

    @rule(roll=st.integers(min_value=0, max_value=7))
    def manual_invalidate(self, roll):
        # A record-less epoch bump: poisons the log; everything cached
        # before it must recompute, never revalidate.  Fires on one roll
        # in eight so it does not drown the delta paths it exists to foil.
        if roll == 0:
            self.service.invalidate()

    # ------------------------------------------------------------------
    # Queries — each one is the oracle check
    # ------------------------------------------------------------------

    @rule(
        k=st.integers(min_value=1, max_value=6),
        algorithm=st.sampled_from(ALGORITHMS),
        scoring=st.sampled_from(SCORINGS),
    )
    def query(self, k, algorithm, scoring):
        served = self.service.submit(
            QuerySpec(algorithm, k=k, scoring=scoring)
        )
        self.last_query = (k, algorithm, scoring)
        self.last_top = served.item_ids
        outcome = served.stats.cache_outcome
        assert answers_match(
            served.item_ids, served.scores, self.source, k, scoring
        ), (
            f"{outcome} served a non-exact top-{k}: "
            f"{served.item_ids}/{served.scores} vs oracle "
            f"{fresh_topk(self.source, k, scoring)}"
        )

    @invariant()
    def counters_are_coherent(self):
        if self.service is None:
            return
        counters = self.service.counters
        assert counters.queries == (
            counters.cache_hits + counters.executions + counters.empty_serves
        )
        assert counters.revalidated + counters.patched <= counters.cache_hits


TestCacheDeltas = CacheDeltaMachine.TestCase
TestCacheDeltas.settings = settings(
    max_examples=300,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
