"""Unit tests for the multi-list owner daemon and its serving paths."""

from __future__ import annotations

import pytest

from repro.columnar import ColumnarDatabase
from repro.datagen import make_generator
from repro.distributed.daemon import (
    DEFAULT_LATENCY_SAMPLE_K,
    LatencyReservoir,
    OwnerDaemon,
)
from repro.distributed.nodes import ListOwnerNode
from repro.errors import ProtocolError, UnknownItemError


@pytest.fixture(scope="module")
def plain():
    return make_generator("zipf").generate(40, 3, seed=5)


@pytest.fixture(scope="module")
def columnar(plain):
    return ColumnarDatabase.from_database(plain)


def _daemon(database, indices=(0, 1), **kwargs):
    return OwnerDaemon(
        [database.lists[i] for i in indices], list_indices=list(indices),
        **kwargs,
    )


class TestRouting:
    def test_multi_list_daemon_routes_by_list_field(self, columnar):
        daemon = _daemon(columnar, include_position=True)
        first = daemon.handle("sorted_next", {"list": 0})
        second = daemon.handle("sorted_next", {"list": 1})
        assert first["position"] == second["position"] == 1
        assert daemon.hosted == (0, 1)

    def test_sole_list_is_the_default_route(self, columnar):
        daemon = _daemon(columnar, indices=(2,), include_position=True)
        response = daemon.handle("sorted_next", {})
        assert response["position"] == 1

    def test_multi_list_daemon_requires_routing(self, columnar):
        daemon = _daemon(columnar)
        with pytest.raises(ProtocolError, match="'list' field"):
            daemon.handle("sorted_next", {})

    def test_unhosted_list_rejected(self, columnar):
        daemon = _daemon(columnar)
        with pytest.raises(ProtocolError, match="not hosted"):
            daemon.handle("sorted_next", {"list": 2})

    def test_routing_field_is_not_popped(self, columnar):
        # Payloads are byte-accounted after dispatch; mutating them
        # would silently undercount request sizes.
        daemon = _daemon(columnar)
        payload = {"list": 1}
        daemon.handle("sorted_next", payload)
        assert payload == {"list": 1}


class TestMultiFrames:
    def test_multi_executes_sub_ops_in_order(self, columnar):
        daemon = _daemon(columnar, include_position=True)
        response = daemon.handle("multi", {"ops": [
            {"kind": "sorted_next", "payload": {"list": 0}},
            {"kind": "sorted_next", "payload": {"list": 1}},
            {"kind": "sorted_next", "payload": {"list": 0}},
        ]})
        results = response["results"]
        assert [r["position"] for r in results] == [1, 1, 2]

    def test_multi_matches_sequential_singles(self, columnar):
        ops = [
            {"kind": "sorted_next", "payload": {"list": index}}
            for index in (0, 1, 0, 1)
        ]
        coalesced = _daemon(columnar).handle("multi", {"ops": list(ops)})
        sequential = _daemon(columnar)
        singles = [sequential.handle(op["kind"], op["payload"]) for op in ops]
        assert coalesced["results"] == singles

    def test_reset_without_list_clears_every_node(self, columnar):
        daemon = _daemon(columnar, include_position=True)
        daemon.handle("sorted_next", {"list": 0})
        daemon.handle("sorted_next", {"list": 1})
        daemon.handle("reset", {})
        assert daemon.handle("sorted_next", {"list": 0})["position"] == 1
        assert daemon.handle("sorted_next", {"list": 1})["position"] == 1


class TestMetrics:
    def test_op_counts_per_kind(self, columnar):
        daemon = _daemon(columnar)
        daemon.handle("sorted_next", {"list": 0})
        daemon.handle("multi", {"ops": [
            {"kind": "sorted_next", "payload": {"list": 0}},
            {"kind": "sorted_next", "payload": {"list": 1}},
        ]})
        metrics = daemon.handle("state", {"metrics": True})
        assert metrics["lists"] == [0, 1]
        assert metrics["ops"]["sorted_next"] == 3
        assert metrics["ops"]["multi"] == 1

    def test_latency_quantiles_shape(self, columnar):
        daemon = _daemon(columnar, latency_sample_k=8)
        for _ in range(20):
            daemon.handle("sorted_next", {"list": 0})
        latency = daemon.handle("state", {"metrics": True})["latency"]
        assert latency["count"] == 20
        assert latency["samples"] == 8
        assert 0 < latency["p50_us"] <= latency["p99_us"] <= latency["max_us"]

    def test_metrics_frame_is_not_a_data_op(self, columnar):
        daemon = _daemon(columnar)
        before = dict(daemon.op_counts)
        daemon.handle("state", {"metrics": True})
        assert dict(daemon.op_counts) == before


class TestLatencyReservoir:
    def test_bounded_memory(self):
        reservoir = LatencyReservoir(4)
        for value in range(100):
            reservoir.record(value / 1e6)
        quantiles = reservoir.quantiles()
        assert quantiles["count"] == 100
        assert quantiles["samples"] == 4

    def test_empty_reservoir(self):
        assert LatencyReservoir().quantiles() == {"count": 0, "samples": 0}

    def test_small_counts_keep_everything(self):
        reservoir = LatencyReservoir(DEFAULT_LATENCY_SAMPLE_K)
        reservoir.record(5e-6)
        quantiles = reservoir.quantiles()
        assert quantiles == {
            "count": 1,
            "samples": 1,
            "p50_us": 5.0,
            "p90_us": 5.0,
            "p99_us": 5.0,
            "max_us": 5.0,
        }

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match=">= 1"):
            LatencyReservoir(0)


class TestOwnerSourceEquivalence:
    """One node class over either source: per-entry ``SortedList``
    lookups and columnar NumPy gathers answer identically."""

    OPS = (
        ("sorted_block", {"count": 5}),
        ("random_lookup_many", {"items": [3, 7, 11]}),
        ("sorted_next", {}),
        ("random_lookup", {"item": 20}),
        ("direct_step", {"items": [15]}),
        ("direct_block", {"items": [], "count": 4}),
        ("direct_block", {"items": [30, 31], "count": 2}),
        ("random_lookup_many", {"items": []}),
        ("sorted_block", {"count": 100}),
        ("direct_next", {}),
        ("state", {}),
    )

    @pytest.mark.parametrize("include_position", [False, True])
    def test_identical_over_mixed_op_sequence(
        self, plain, columnar, include_position
    ):
        responses = {}
        for label, database in (("plain", plain), ("columnar", columnar)):
            node = ListOwnerNode(
                database.lists[0], include_position=include_position
            )
            responses[label] = [
                node.handle(kind, dict(payload)) for kind, payload in self.OPS
            ]
        assert responses["plain"] == responses["columnar"]
        # The sequence moves the best position, so piggybacks are compared.
        assert any("bp_score" in response for response in responses["plain"])

    @pytest.mark.parametrize(
        "kind", ["random_lookup_many", "direct_step", "direct_block"]
    )
    @pytest.mark.parametrize("bad", [10**9, 10**30, 1.5])
    def test_unknown_item_mid_batch_fails_identically(
        self, plain, columnar, kind, bad
    ):
        first, second, third = (plain.lists[0].entry_at(p).item for p in (1, 2, 3))
        states = {}
        for label, database in (("plain", plain), ("columnar", columnar)):
            node = ListOwnerNode(database.lists[0])
            with pytest.raises(UnknownItemError):
                node.handle(
                    kind, {"items": [first, second, bad, third], "count": 2}
                )
            states[label] = node.handle("state", {})
        assert states["plain"] == states["columnar"]
        # Both charge each access before its lookup and mark every
        # position served before the failure, as the per-item loop does.
        assert states["plain"]["random"] == 3
        assert states["plain"]["best_position"] == 2
        assert states["plain"]["direct"] == 0


class TestQuantilePinnedEdges:
    def test_empty_reservoir_returns_none_not_crash(self):
        reservoir = LatencyReservoir()
        assert reservoir.quantile(0.5) is None
        assert reservoir.quantile(0.0) is None
        assert reservoir.quantile(1.0) is None

    def test_single_sample_is_every_quantile(self):
        reservoir = LatencyReservoir()
        reservoir.record(7e-6)
        for fraction in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert reservoir.quantile(fraction) == 7e-6

    def test_quantile_orders_the_sample(self):
        reservoir = LatencyReservoir(8)
        for value in (4e-6, 1e-6, 3e-6, 2e-6):
            reservoir.record(value)
        assert reservoir.quantile(0.0) == 1e-6
        assert reservoir.quantile(1.0) == 4e-6
        assert reservoir.quantile(0.5) == 3e-6

    def test_rejects_out_of_range_fraction(self):
        reservoir = LatencyReservoir()
        reservoir.record(1e-6)
        with pytest.raises(ValueError, match="fraction"):
            reservoir.quantile(1.5)
        with pytest.raises(ValueError, match="fraction"):
            reservoir.quantile(-0.1)


class TestPerListMetrics:
    def test_routed_ops_accumulate_per_list(self, columnar):
        daemon = _daemon(columnar)
        daemon.handle("sorted_next", {"list": 0})
        daemon.handle("sorted_next", {"list": 0})
        daemon.handle("sorted_next", {"list": 1})
        per_list = daemon.metrics()["per_list"]
        assert per_list["0"]["ops"] == 2
        assert per_list["1"]["ops"] == 1
        assert per_list["0"]["seconds"] >= 0.0

    def test_zero_op_lists_still_reported(self, columnar):
        daemon = _daemon(columnar)
        daemon.handle("sorted_next", {"list": 0})
        per_list = daemon.metrics()["per_list"]
        assert per_list["1"] == {"ops": 0, "seconds": 0.0}

    def test_reset_keeps_the_accumulated_mass(self, columnar):
        # A rebalancer reads load across sessions; "reset" is a data-
        # state op, not a metrics wipe.
        daemon = _daemon(columnar)
        daemon.handle("sorted_next", {"list": 0})
        daemon.handle("reset", {})
        assert daemon.metrics()["per_list"]["0"]["ops"] == 1

    def test_multi_frames_attribute_inner_ops(self, columnar):
        daemon = _daemon(columnar)
        daemon.handle("multi", {"ops": [
            {"kind": "sorted_next", "payload": {"list": 0}},
            {"kind": "sorted_next", "payload": {"list": 1}},
        ]})
        per_list = daemon.metrics()["per_list"]
        assert per_list["0"]["ops"] == 1
        assert per_list["1"]["ops"] == 1


class TestFreshDaemonRebalanceSignal:
    """A never-served daemon must yield a zero-mass, guard-friendly
    signal — the input ``cluster stats --suggest-placement`` gates on."""

    def test_fresh_metrics_fold_to_zero_mass_without_crashing(self, columnar):
        from repro.distributed.placement import (
            ClusterPlacement,
            list_masses,
            placement_balance,
        )

        documents = [
            _daemon(columnar, indices=(0, 1)).metrics(),
            _daemon(columnar, indices=(2,)).metrics(),
        ]
        masses = list_masses(documents)
        assert set(masses) == {0, 1, 2}
        assert all(mass == 0.0 for mass in masses.values())
        balance = placement_balance(
            ClusterPlacement.build(3, owners=2), masses
        )
        assert balance["total_mass"] == 0.0
        assert balance["imbalance"] == 1.0  # vacuously balanced, never NaN
