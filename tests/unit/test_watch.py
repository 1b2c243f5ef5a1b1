"""Unit coverage of the standing-query subsystem (repro.watch).

Three layers: the delta algebra (``frames`` — diff/apply must be exact
inverses, the wire codec must round-trip and reject garbage), the
subscription handle (delivery, cancellation), and the manager driven
through a real :class:`QueryService` over a mutating database
(classification outcomes, caps, static-source refusal, invalidate).
"""

from __future__ import annotations

import pytest

from repro.datagen.base import make_generator
from repro.errors import ProtocolError, ServiceError
from repro.exec import QuerySpec
from repro.scoring import SUM
from repro.service import QueryService, ServicePolicy
from repro.service.workload import answers_match, dynamic_from
from repro.types import ScoredItem
from repro.watch.frames import (
    DeltaEntry,
    ResultDelta,
    apply_delta,
    diff_results,
)


def entries_of(*pairs):
    return tuple(ScoredItem(item=i, score=s) for i, s in pairs)


def delta_of(exits=(), upserts=(), seq=1, epoch=1, cause="patched"):
    return ResultDelta(
        subscription=0,
        seq=seq,
        epoch=epoch,
        cause=cause,
        exits=tuple(exits),
        upserts=tuple(DeltaEntry(*u) for u in upserts),
    )


# ---------------------------------------------------------------------------
# frames: diff / apply / wire codec
# ---------------------------------------------------------------------------


class TestDiffResults:
    def test_identical_answers_diff_to_nothing(self):
        old = entries_of((1, 3.0), (2, 2.0))
        assert diff_results(old, old) == ((), ())

    def test_rescore_in_place(self):
        old = entries_of((1, 3.0), (2, 2.0))
        new = entries_of((1, 3.5), (2, 2.0))
        exits, upserts = diff_results(old, new)
        assert exits == ()
        assert upserts == (DeltaEntry(rank=0, item=1, score=3.5),)

    def test_swap_upserts_both(self):
        old = entries_of((1, 3.0), (2, 2.0))
        new = entries_of((2, 4.0), (1, 3.0))
        exits, upserts = diff_results(old, new)
        assert exits == ()
        assert upserts == (
            DeltaEntry(rank=0, item=2, score=4.0),
            DeltaEntry(rank=1, item=1, score=3.0),
        )

    def test_exit_and_entry(self):
        old = entries_of((1, 3.0), (2, 2.0))
        new = entries_of((1, 3.0), (9, 2.5))
        exits, upserts = diff_results(old, new)
        assert exits == (2,)
        assert upserts == (DeltaEntry(rank=1, item=9, score=2.5),)

    def test_bitwise_score_comparison(self):
        # Same item, same rank, score differing in the last ulp: a
        # changed float IS a changed answer.
        old = entries_of((1, 1.0),)
        new = entries_of((1, 1.0 + 2**-52),)
        _exits, upserts = diff_results(old, new)
        assert len(upserts) == 1

    @pytest.mark.parametrize(
        "old,new",
        [
            ((), ()),
            ((), ((1, 2.0), (2, 1.0))),
            (((1, 2.0), (2, 1.0)), ()),
            (((1, 2.0), (2, 1.0), (3, 0.5)), ((3, 5.0), (1, 2.0))),
            (((4, 9.0), (1, 2.0)), ((4, 9.0), (7, 3.0), (1, 2.0))),
        ],
    )
    def test_apply_inverts_diff(self, old, new):
        old, new = entries_of(*old), entries_of(*new)
        exits, upserts = diff_results(old, new)
        delta = ResultDelta(0, 1, 1, "patched", exits, upserts)
        assert apply_delta(old, delta) == new


class TestApplyDelta:
    def test_empty_delta_is_identity(self):
        old = entries_of((1, 3.0), (2, 2.0))
        assert apply_delta(old, delta_of()) == old

    def test_out_of_bounds_rank_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="rank 5"):
            apply_delta(
                entries_of((1, 3.0)), delta_of(upserts=((5, 9, 1.0),))
            )

    def test_upserts_insert_in_ascending_rank_order(self):
        # New entries land at the head and the tail; the kept pair
        # stays in relative order between them.
        old = entries_of((1, 3.0), (2, 2.0))
        new = apply_delta(
            old, delta_of(upserts=((0, 8, 4.0), (3, 9, 1.0)))
        )
        assert new == entries_of((8, 4.0), (1, 3.0), (2, 2.0), (9, 1.0))


class TestWireCodec:
    def test_round_trip(self):
        delta = delta_of(exits=(3, 4), upserts=((0, 9, 1.25),), seq=7)
        wired = delta.to_wire()
        assert wired["kind"] == "delta"
        assert ResultDelta.from_wire(wired) == delta

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda w: w.pop("seq"),
            lambda w: w.__setitem__("seq", "NaN-ish"),
            lambda w: w.__setitem__("exits", [None]),
            lambda w: w.__setitem__("upserts", [[1]]),
        ],
    )
    def test_malformed_frames_are_protocol_errors(self, corrupt):
        wired = delta_of().to_wire()
        corrupt(wired)
        with pytest.raises(ProtocolError, match="malformed delta frame"):
            ResultDelta.from_wire(wired)


# ---------------------------------------------------------------------------
# manager + subscription, driven through a live service
# ---------------------------------------------------------------------------


def small_service(n=24, m=2, seed=3, **policy):
    static = make_generator("uniform").generate(n, m, seed=seed)
    source = dynamic_from(static)
    service = QueryService(
        source,
        shards=1,
        pool="serial",
        policy=ServicePolicy(**policy) if policy else None,
    )
    return source, service


SPEC = QuerySpec("bpa2", k=4, scoring=SUM)


class TestServiceWatch:
    def test_initial_answer_is_exact(self):
        source, service = small_service()
        with service:
            sub = service.watch(SPEC)
            assert sub.seq == 0
            assert sub.active
            assert answers_match(
                sub.item_ids, sub.scores, source, SPEC.k, SUM
            )
            assert service.subscriptions == (sub,)

    def test_static_source_is_refused(self):
        static = make_generator("uniform").generate(12, 2, seed=3)
        with QueryService(static, shards=1, pool="serial") as service:
            with pytest.raises(ServiceError, match="DynamicDatabase"):
                service.watch(SPEC)

    def test_subscription_cap(self):
        _source, service = small_service(max_subscriptions=2)
        with service:
            first = service.watch(SPEC)
            service.watch(SPEC)
            with pytest.raises(ServiceError, match="subscription limit"):
                service.watch(SPEC)
            # Cancelling releases the slot.
            first.cancel()
            service.watch(SPEC)

    def test_harmless_mutation_is_unchanged_and_silent(self):
        source, service = small_service()
        with service:
            sub = service.watch(SPEC)
            loser = sub.item_ids[-1] + 10_000  # definitely an outsider
            source.insert_item(loser, [0.0] * source.m)
            assert sub.stats.unchanged == 1
            assert sub.stats.deltas == 0
            assert sub.poll() == []
            assert service.counters.watch_unchanged == 1

    def test_member_rescore_is_patched_and_pushed(self):
        source, service = small_service()
        with service:
            sub = service.watch(SPEC)
            top = sub.item_ids[0]
            source.update_score(0, top, 5.0)  # strengthen the leader
            assert sub.stats.patched == 1
            assert sub.stats.deltas == 1
            (delta,) = sub.poll()
            assert delta.cause == "patched"
            assert delta.seq == 1
            assert answers_match(
                sub.item_ids, sub.scores, source, SPEC.k, SUM
            )

    def test_member_removal_recomputes(self):
        source, service = small_service()
        with service:
            sub = service.watch(SPEC)
            source.remove_item(sub.item_ids[1])
            assert sub.stats.recomputed == 1
            (delta,) = sub.poll()
            assert delta.cause == "recomputed"
            assert answers_match(
                sub.item_ids, sub.scores, source, SPEC.k, SUM
            )

    def test_invalidate_recomputes_without_false_pushes(self):
        _source, service = small_service()
        with service:
            sub = service.watch(SPEC)
            service.invalidate()
            # The data did not move: recomputed, but the answer is
            # identical, so nothing was pushed.
            assert sub.stats.recomputed == 1
            assert sub.stats.deltas == 0
            assert sub.poll() == []
            assert sub.epoch == service.epoch

    def test_callback_delivery_preempts_queue(self):
        source, service = small_service()
        with service:
            seen = []
            sub = service.watch(SPEC, callback=seen.append)
            source.update_score(0, sub.item_ids[0], 5.0)
            assert len(seen) == 1
            assert sub.poll() == []  # delivered, not queued
            assert seen[0].seq == 1

    def test_cancel_freezes_maintenance(self):
        source, service = small_service()
        with service:
            sub = service.watch(SPEC)
            sub.cancel()
            sub.cancel()  # idempotent
            assert not sub.active
            assert service.subscriptions == ()
            before = sub.stats.mutations
            source.update_score(0, sub.item_ids[0], 5.0)
            assert sub.stats.mutations == before

    def test_close_cancels_everything(self):
        _source, service = small_service()
        sub = service.watch(SPEC)
        service.close()
        assert not sub.active
        with pytest.raises(RuntimeError, match="closed"):
            service.watch(SPEC)

    def test_delta_stream_replays_to_current_answer(self):
        source, service = small_service()
        with service:
            sub = service.watch(SPEC)
            replay = sub.entries
            rng_scores = (4.0, 0.1, 2.5, 0.0, 3.3)
            for step, score in enumerate(rng_scores):
                source.update_score(
                    step % source.m, (step * 7) % 20, score
                )
            source.remove_item(sub.item_ids[0])
            source.insert_item(999, [2.0] * source.m)
            for delta in sub.poll():
                replay = apply_delta(replay, delta)
            assert replay == sub.entries
            assert answers_match(
                sub.item_ids, sub.scores, source, SPEC.k, SUM
            )

    def test_underfull_answer_is_maintained_exhaustively(self):
        # n < k: the answer holds every item, so inserts and member
        # deletes stay decidable with no boundary (the cache would
        # miss here; the subscription must not recompute needlessly).
        source, service = small_service(n=3)
        with service:
            sub = service.watch(QuerySpec("bpa2", k=8, scoring=SUM))
            assert len(sub.entries) == 3
            source.insert_item(500, [9.0] * source.m)
            assert sub.stats.patched == 1
            assert sub.item_ids[0] == 500
            source.remove_item(500)
            assert sub.stats.patched == 2
            assert answers_match(sub.item_ids, sub.scores, source, 8, SUM)

    def test_inexact_scores_recompute_every_mutation(self):
        # NRA reports lower-bound scores, which the certificate must
        # never compare against logged aggregates: even a provably
        # harmless mutation recomputes instead of certifying.
        source, service = small_service()
        with service:
            sub = service.watch(QuerySpec("nra", k=4, scoring=SUM))
            source.insert_item(10_000, [0.0] * source.m)
            assert sub.stats.recomputed == 1
            assert sub.stats.unchanged == 0

    def test_logless_service_retains_score_capture(self):
        # With delta_log_depth=0 nothing else subscribes for score
        # vectors, so watch() must force capture on (retain_scores) —
        # otherwise every event arrives vector-less and maintenance
        # degrades to recompute-per-mutation.
        source, service = small_service(delta_log_depth=0)
        with service:
            sub = service.watch(SPEC)
            loser = sub.item_ids[-1] + 10_000
            source.insert_item(loser, [0.0] * source.m)
            assert sub.stats.unchanged == 1  # certified, not recomputed
            source.update_score(0, sub.item_ids[0], 5.0)
            assert sub.stats.patched == 1
            assert answers_match(
                sub.item_ids, sub.scores, source, SPEC.k, SUM
            )
        # close() released the retain: capture is off again.
        assert source._score_watchers == 0

    def test_policy_knobs_validate(self):
        with pytest.raises(ValueError):
            ServicePolicy(max_subscriptions=-1)
        with pytest.raises(ValueError):
            ServicePolicy(watch_patch_limit=-1)
