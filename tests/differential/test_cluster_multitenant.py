"""Differential proof that multi-tenant owner daemons are exact.

A :class:`ClusterPlacement` co-locates lists on fewer owner processes
and the transport coalesces each round's ops into one frame per owner —
none of which may change a single answer.  Every driver, over every
owner count {1, 2, m}, every wire protocol and classic and block rounds
alike, must reproduce the reference single-node algorithm bit for bit:
identical ranked items, per-mode access tallies and round counts.  The
frame reduction itself is asserted exactly (full-fan-out rounds
compress by ``m / owners``), the warm-start and metrics endpoints are
exercised over real sockets, and the polite-escalation ``close()``
contract (no orphans, idempotent) gets its regression tests.
"""

from __future__ import annotations

import pytest

from repro.algorithms.base import get_algorithm
from repro.columnar import ColumnarDatabase
from repro.datagen import make_generator
from repro.distributed import (
    ClusterPlacement,
    DistributedBPA,
    DistributedBPA2,
    DistributedTA,
)
from repro.distributed.socket_transport import SocketCluster
from repro.distributed.transport import NetworkBackend
from repro.exec.drivers import DRIVERS
from repro.scoring import SUM

DRIVER_CLASSES = (
    ("ta", DistributedTA),
    ("bpa", DistributedBPA),
    ("bpa2", DistributedBPA2),
)


@pytest.fixture(scope="module")
def database():
    return make_generator("zipf").generate(50, 3, seed=19)


@pytest.fixture(scope="module")
def wide_database():
    # m=4 divides evenly onto 2 owners, making the coalescing ratio exact.
    return make_generator("uniform").generate(60, 4, seed=7)


class TestSimulatedMultiTenantExactness:
    @pytest.mark.parametrize("name,cls", DRIVER_CLASSES)
    @pytest.mark.parametrize("protocol", ["entry", "batch", "pipelined"])
    @pytest.mark.parametrize("owners", [1, 2, 3])
    def test_classic_drivers_bit_identical(
        self, database, name, cls, protocol, owners
    ):
        reference = get_algorithm(name).run(database, 5, SUM)
        result = cls(protocol=protocol, owners=owners).run(database, 5, SUM)
        assert result.items == reference.items
        assert result.tally == reference.tally
        assert result.rounds == reference.rounds
        assert result.extras["owners"] == owners

    @pytest.mark.parametrize("name,cls", DRIVER_CLASSES)
    @pytest.mark.parametrize("owners", [1, 2])
    def test_block_drivers_bit_identical(self, database, name, cls, owners):
        reference = get_algorithm(f"{name}-block", width=4).run(
            database, 5, SUM
        )
        result = cls(
            protocol="pipelined", block_width=4, owners=owners
        ).run(database, 5, SUM)
        assert result.items == reference.items
        assert result.tally == reference.tally
        assert result.rounds == reference.rounds

    @pytest.mark.parametrize("name,cls", DRIVER_CLASSES)
    def test_striped_placement_bit_identical(self, wide_database, name, cls):
        reference = get_algorithm(name).run(wide_database, 5, SUM)
        result = cls(
            protocol="batch", owners=2, placement="striped"
        ).run(wide_database, 5, SUM)
        assert result.items == reference.items
        assert result.tally == reference.tally

    @pytest.mark.parametrize("name,cls", DRIVER_CLASSES)
    @pytest.mark.parametrize("owners", [None, 2])
    @pytest.mark.parametrize("width", [1, 4])
    def test_plain_and_columnar_owners_are_wire_identical(
        self, database, name, cls, owners, width
    ):
        # Owners over per-entry SortedLists and over columnar lists
        # (NumPy gathers, array-sliced blocks) must be indistinguishable
        # from the wire out.
        columnar = ColumnarDatabase.from_database(database)
        plain, fast = (
            cls(protocol="batch", owners=owners, block_width=width).run(
                source, 5, SUM
            )
            for source in (database, columnar)
        )
        assert plain.items == fast.items
        assert plain.tally == fast.tally
        assert plain.rounds == fast.rounds
        assert plain.extras["network"] == fast.extras["network"]


class TestFrameCoalescing:
    def test_full_fanout_frames_shrink_by_exactly_owner_ratio(
        self, wide_database
    ):
        """TA's waves touch every list, so frames scale with owner count."""
        messages = {}
        for owners in (None, 2, 1):
            result = DistributedTA(protocol="batch", owners=owners).run(
                wide_database, 5, SUM
            )
            messages[owners] = result.extras["network"]["messages"]
        assert messages[2] * 2 == messages[None]
        assert messages[1] * 4 == messages[None]

    @pytest.mark.parametrize("name,cls", DRIVER_CLASSES)
    @pytest.mark.parametrize("width", [1, 8])
    def test_frames_per_owner_count(self, wide_database, name, cls, width):
        """Full-fan-out rounds (TA, BPA, every block variant) shrink by
        exactly m / owners; classic BPA2's direct steps advance one list
        per frame, so only its probe waves coalesce."""
        reference = (
            get_algorithm(name) if width == 1
            else get_algorithm(f"{name}-block", width=width)
        ).run(wide_database, 5, SUM)
        messages = {}
        for owners in (None, 2, 1):
            result = cls(
                protocol="batch", block_width=width, owners=owners
            ).run(wide_database, 5, SUM)
            assert result.items == reference.items
            assert result.tally == reference.tally
            assert result.rounds == reference.rounds
            messages[owners] = result.extras["network"]["messages"]
        if name == "bpa2" and width == 1:
            assert messages[None] / 2 < messages[2] < messages[None]
            assert messages[None] / 4 < messages[1] < messages[2]
        else:
            assert messages[None] == 2 * messages[2] == 4 * messages[1]

    def test_owner_count_m_is_wire_identical_to_legacy(self, wide_database):
        # placement with one list per owner must not add routing fields
        # or change a byte relative to the pre-placement transport.
        legacy = DistributedTA(protocol="batch").run(wide_database, 5, SUM)
        placed = DistributedTA(protocol="batch", owners=4).run(
            wide_database, 5, SUM
        )
        assert placed.extras["network"] == legacy.extras["network"]

    def test_coalescing_composes_with_blocks(self, wide_database):
        reference = get_algorithm("ta-block", width=4).run(
            wide_database, 5, SUM
        )
        messages = {}
        for owners in (None, 2):
            result = DistributedTA(
                protocol="batch", block_width=4, owners=owners
            ).run(wide_database, 5, SUM)
            assert result.items == reference.items
            assert result.tally == reference.tally
            messages[owners] = result.extras["network"]["messages"]
        assert messages[2] * 2 == messages[None]


class TestSocketMultiTenant:
    @pytest.mark.parametrize("name,cls", DRIVER_CLASSES)
    def test_two_owner_cluster_bit_identical(self, database, name, cls):
        reference = get_algorithm(name).run(database, 5, SUM)
        result = cls(
            protocol="pipelined", transport="socket", owners=2
        ).run(database, 5, SUM)
        assert result.items == reference.items
        assert result.tally == reference.tally
        assert result.rounds == reference.rounds
        assert result.extras["owners"] == 2

    def test_single_owner_block_rounds_bit_identical(self, database):
        reference = get_algorithm("bpa2-block", width=4).run(database, 5, SUM)
        result = DistributedBPA2(
            protocol="batch", transport="socket", block_width=4, owners=1
        ).run(database, 5, SUM)
        assert result.items == reference.items
        assert result.tally == reference.tally
        assert result.extras["owners"] == 1

    def test_socket_frames_match_simulated_counts(self, wide_database):
        # The simulated network and the TCP transport count the same
        # coalesced frames for the same query.
        nets = {
            transport: DistributedTA(
                protocol="batch", transport=transport, owners=2
            ).run(wide_database, 5, SUM).extras["network"]
            for transport in ("simulated", "socket")
        }
        assert nets["simulated"]["messages"] == nets["socket"]["messages"]
        assert nets["simulated"]["rounds"] == nets["socket"]["rounds"]


class TestWarmStartAndStats:
    @pytest.fixture()
    def snapshot(self, wide_database, tmp_path):
        from repro.storage import write_snapshot

        path = tmp_path / "db.bpsn"
        write_snapshot(wide_database, path, epoch=3)
        return path

    def test_from_snapshot_serves_verified_queries(
        self, wide_database, snapshot
    ):
        reference = get_algorithm("bpa2").run(wide_database, 5, SUM)
        with SocketCluster.from_snapshot(snapshot, owners=2) as cluster:
            assert cluster.epoch == 3
            assert cluster.placement.groups == ((0, 1), (2, 3))
            with cluster.connect() as fabric:
                backend = NetworkBackend.remote(
                    fabric,
                    m=cluster.m,
                    n=cluster.n,
                    protocol="pipelined",
                    placement=cluster.placement,
                )
                outcome = DRIVERS["bpa2"](backend, 5, SUM)
                assert outcome.items == reference.items
                assert backend.total_tally() == reference.tally

    def test_metrics_endpoint_counts_ops_and_samples_latency(
        self, wide_database, snapshot
    ):
        with SocketCluster.from_snapshot(
            snapshot, owners=2, latency_sample_k=16
        ) as cluster, cluster.connect() as fabric:
            backend = NetworkBackend.remote(
                fabric,
                m=cluster.m,
                n=cluster.n,
                protocol="batch",
                placement=cluster.placement,
            )
            DRIVERS["ta"](backend, 5, SUM)
            metrics = fabric.request("owner/0", "state", {"metrics": True})
            assert metrics["lists"] == [0, 1]
            # TA's waves all coalesce on a 2-list owner, so every data
            # frame is a multi and the sub-ops are counted per kind.
            assert metrics["ops"]["multi"] > 0
            assert metrics["ops"]["sorted_next"] > 0
            assert metrics["ops"]["random_lookup_many"] > 0
            latency = metrics["latency"]
            assert latency["count"] > 0
            assert latency["samples"] <= 16
            assert 0 < latency["p50_us"] <= latency["max_us"]
            # Metrics frames are control-plane: not in the wire stats.
            assert "state" not in fabric.stats.snapshot()["by_kind"]


class TestPoliteClose:
    """Satellite: shutdown frame -> join(timeout) -> terminate, no orphans."""

    def test_close_reaps_every_owner_process(self, database):
        columnar = ColumnarDatabase.from_database(database)
        cluster = SocketCluster(columnar, owners=2)
        processes = list(cluster._processes)
        assert len(processes) == 2
        assert all(process.is_alive() for process in processes)
        cluster.close()
        assert not any(process.is_alive() for process in processes)
        assert cluster._processes == []

    def test_double_close_is_idempotent(self, database):
        columnar = ColumnarDatabase.from_database(database)
        cluster = SocketCluster(columnar, owners=2)
        cluster.close()
        cluster.close()  # must not raise or hang
        assert cluster._processes == []

    def test_close_after_serving_queries(self, database):
        columnar = ColumnarDatabase.from_database(database)
        cluster = SocketCluster(columnar, owners=2)
        processes = list(cluster._processes)
        with cluster.connect() as fabric:
            backend = NetworkBackend.remote(
                fabric,
                m=cluster.m,
                n=cluster.n,
                protocol="batch",
                placement=cluster.placement,
            )
            DRIVERS["ta"](backend, 3, SUM)
        cluster.close()
        assert not any(process.is_alive() for process in processes)

    def test_context_manager_exit_closes(self, database):
        columnar = ColumnarDatabase.from_database(database)
        with SocketCluster(columnar, owners=1) as cluster:
            processes = list(cluster._processes)
            assert all(process.is_alive() for process in processes)
        assert not any(process.is_alive() for process in processes)


class TestHostileClientsMultiTenant:
    """Frame hardening against a server hosting several lists."""

    def test_owner_survives_malicious_client(self, wide_database):
        import socket
        import struct

        columnar = ColumnarDatabase.from_database(wide_database)
        with SocketCluster(columnar, owners=2) as cluster:
            port = cluster.ports[0]
            with socket.create_connection(("127.0.0.1", port)) as bad:
                bad.sendall(struct.pack(">I", 2**31))  # 2 GiB announcement
                assert bad.recv(1) == b""  # owner closes on us
            with socket.create_connection(("127.0.0.1", port)) as bad:
                bad.sendall(struct.pack(">I", 64) + b"abc")  # truncated
            # Both co-hosted lists still serve well-formed clients.
            with cluster.connect() as fabric:
                for index in (0, 1):
                    response = fabric.request(
                        "owner/0", "sorted_next", {"list": index}
                    )
                    assert "item" in response and "score" in response

    def test_unhosted_list_is_rejected_not_fatal(self, wide_database):
        from repro.errors import ProtocolError

        columnar = ColumnarDatabase.from_database(wide_database)
        with SocketCluster(columnar, owners=2) as cluster:
            with cluster.connect() as fabric:
                with pytest.raises(ProtocolError, match="not hosted"):
                    fabric.request("owner/0", "sorted_next", {"list": 3})
                response = fabric.request(
                    "owner/0", "sorted_next", {"list": 0}
                )
                assert "item" in response

    def test_multi_list_owner_requires_routing_field(self, wide_database):
        from repro.errors import ProtocolError

        columnar = ColumnarDatabase.from_database(wide_database)
        with SocketCluster(columnar, owners=2) as cluster:
            with cluster.connect() as fabric:
                with pytest.raises(ProtocolError, match="'list' field"):
                    fabric.request("owner/0", "sorted_next")

    def test_multi_frame_suberror_fails_whole_frame(self, wide_database):
        from repro.errors import ProtocolError

        columnar = ColumnarDatabase.from_database(wide_database)
        with SocketCluster(columnar, owners=2) as cluster:
            with cluster.connect() as fabric:
                with pytest.raises(ProtocolError):
                    fabric.request(
                        "owner/0",
                        "multi",
                        {"ops": [
                            {"kind": "sorted_next", "payload": {"list": 0}},
                            {"kind": "no-such-kind", "payload": {"list": 1}},
                        ]},
                    )
                # The owner survives and keeps serving multi frames.
                response = fabric.request(
                    "owner/0",
                    "multi",
                    {"ops": [
                        {"kind": "sorted_next", "payload": {"list": 0}},
                        {"kind": "sorted_next", "payload": {"list": 1}},
                    ]},
                )
                assert len(response["results"]) == 2


class TestHammerClusterCrossProcess:
    def test_hammer_verifies_against_snapshot(self, wide_database, tmp_path):
        from repro.distributed.cluster_bench import hammer_cluster
        from repro.storage import write_snapshot

        path = tmp_path / "db.bpsn"
        write_snapshot(wide_database, path, epoch=1)
        with SocketCluster.from_snapshot(path, owners=2) as cluster:
            spec = {
                "ports": cluster.ports,
                "placement": cluster.placement.to_dict(),
                "m": cluster.m,
                "n": cluster.n,
                "include_position": cluster.include_position,
                "snapshot": str(path),
            }
            report = hammer_cluster(spec, ks=(3, 5))
        assert report["owners"] == 2
        assert report["failures"] == 0
        assert report["verified"] is True
        assert all(row["verified"] for row in report["rows"])
