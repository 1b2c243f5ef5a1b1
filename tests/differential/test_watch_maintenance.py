"""Stateful mutation-fuzz of standing-query maintenance.

The watch sibling of :mod:`test_cache_deltas`: a rule-based state
machine drives a live :class:`QueryService` over a
:class:`DynamicDatabase` while standing subscriptions come and go —
score updates, inserts, removals, targeted hits on subscribed members,
record-less invalidations, new subscriptions mid-stream and
cancellations, across distribution families, tie-heavy scores, SUM and
MIN, and deliberately tiny patch limits.

Two invariants, checked after **every** step for **every** live
subscription:

1. **Exactness** — the maintained answer is an exact ranked top-k of
   the database's *current* state (same tie contract as the cache
   suite: bit-identical scores, honest per-item aggregates).
   Maintenance runs synchronously inside the mutation, so there is no
   settling window to hide in.
2. **Replay** — folding the subscription's pushed delta stream (strictly
   sequence-continuous) over its *initial* answer reconstructs the
   maintained answer bit for bit.  The deltas are the wire protocol's
   payload, so this is the guarantee a remote mirror lives on.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.datagen.base import make_generator
from repro.exec import QuerySpec
from repro.scoring import MIN, SUM
from repro.service import QueryService, ServicePolicy
from repro.service.workload import answers_match, dynamic_from, fresh_topk
from repro.watch.frames import apply_delta

FAMILIES = ("uniform", "gaussian", "correlated", "zipf", "copula")
ALGORITHMS = ("ta", "bpa", "bpa2", "auto")
SCORINGS = (SUM, MIN)
MAX_LIVE = 4

#: Same grid-plus-floats mix as the cache fuzz: forced aggregate ties
#: are the nastiest certificate edge, and the range straddles the
#: maintained boundaries so mutations land below, around and above.
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


class Mirror:
    """A client-side replica: the initial answer plus replayed deltas."""

    def __init__(self, subscription) -> None:
        self.subscription = subscription
        self.entries = subscription.entries
        self.seq = subscription.seq

    def catch_up(self) -> None:
        for delta in self.subscription.poll():
            assert delta.seq == self.seq + 1, (
                f"delta gap on #{self.subscription.id}: "
                f"{delta.seq} after {self.seq}"
            )
            self.entries = apply_delta(self.entries, delta)
            self.seq = delta.seq


class WatchMaintenanceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.service: QueryService | None = None
        self.source = None
        self.next_id = 0
        self.mirrors: list[Mirror] = []

    @initialize(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(min_value=0, max_value=2**16),
        # Small n with k up to 6 spans both regimes: full answers with
        # a live boundary, and underfull (exhaustive) answers where the
        # subscription covers the entire database.
        n=st.integers(min_value=3, max_value=24),
        m=st.integers(min_value=2, max_value=3),
        patch_limit=st.sampled_from((1, 2, 8)),
    )
    def setup(self, family, seed, n, m, patch_limit):
        database = make_generator(family).generate(n, m, seed=seed)
        self.source = dynamic_from(database)
        self.next_id = n + 1000
        self.service = QueryService(
            self.source,
            shards=1,
            pool="serial",
            policy=ServicePolicy(
                watch_patch_limit=patch_limit,
                max_subscriptions=MAX_LIVE,
            ),
        )

    def teardown(self):
        if self.service is not None:
            self.service.close()

    # ------------------------------------------------------------------
    # Subscription churn
    # ------------------------------------------------------------------

    @precondition(lambda self: len(self.mirrors) < MAX_LIVE)
    @rule(
        k=st.integers(min_value=1, max_value=6),
        algorithm=st.sampled_from(ALGORITHMS),
        scoring=st.sampled_from(SCORINGS),
    )
    def subscribe(self, k, algorithm, scoring):
        subscription = self.service.watch(
            QuerySpec(algorithm, k=k, scoring=scoring)
        )
        self.mirrors.append(Mirror(subscription))

    @precondition(lambda self: self.mirrors)
    @rule(index=st.integers(min_value=0, max_value=MAX_LIVE - 1))
    def cancel(self, index):
        mirror = self.mirrors.pop(index % len(self.mirrors))
        mirror.subscription.cancel()
        assert not mirror.subscription.active

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

    @precondition(lambda self: self.mirrors)
    @rule(data=st.data())
    def mutate_subscribed_member(self, data):
        # Aim straight at a maintained answer: touching a member forces
        # the patch path (re-ranks, boundary weakenings, exact
        # re-merges) instead of the outsider-unchanged path random ids
        # mostly take.
        mirror = data.draw(st.sampled_from(self.mirrors), label="mirror")
        candidates = [
            item
            for item in mirror.subscription.item_ids
            if item in self.source.lists[0]
        ]
        if not candidates:
            return
        self.source.update_score(
            data.draw(st.integers(0, self.source.m - 1), label="list"),
            data.draw(st.sampled_from(candidates), label="member"),
            data.draw(scores, label="score"),
        )

    @rule(roll=st.integers(min_value=0, max_value=7))
    def manual_invalidate(self, roll):
        # A record-less epoch bump: every subscription must recompute
        # (and push only if its answer visibly moved).
        if roll == 0:
            self.service.invalidate()

    # ------------------------------------------------------------------
    # The oracle
    # ------------------------------------------------------------------

    @invariant()
    def every_mirror_is_the_exact_topk(self):
        if self.service is None:
            return
        for mirror in self.mirrors:
            subscription = mirror.subscription
            spec = subscription.spec
            assert answers_match(
                subscription.item_ids,
                subscription.scores,
                self.source,
                spec.k,
                spec.scoring,
            ), (
                f"subscription #{subscription.id} drifted from the "
                f"oracle: {subscription.item_ids}/{subscription.scores} "
                f"vs {fresh_topk(self.source, spec.k, spec.scoring)} "
                f"after {subscription.stats}"
            )
            mirror.catch_up()
            assert mirror.entries == subscription.entries, (
                f"delta replay of #{subscription.id} diverged: "
                f"{mirror.entries} vs {subscription.entries}"
            )

    @invariant()
    def stats_are_coherent(self):
        if self.service is None:
            return
        counters = self.service.counters
        total_deltas = counters.watch_deltas
        outcomes = (
            counters.watch_unchanged
            + counters.watch_patched
            + counters.watch_recomputed
        )
        # A delta needs a patched or recomputed outcome behind it; an
        # unchanged outcome never pushes.
        assert total_deltas <= counters.watch_patched + counters.watch_recomputed
        assert outcomes >= total_deltas
        for mirror in self.mirrors:
            stats = mirror.subscription.stats
            assert stats.deltas <= stats.patched + stats.recomputed


TestWatchMaintenance = WatchMaintenanceMachine.TestCase
TestWatchMaintenance.settings = settings(
    max_examples=200,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
