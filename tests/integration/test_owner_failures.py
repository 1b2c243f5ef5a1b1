"""Failure semantics of the owner connections (``SocketNetwork``).

* A pipelined wave reads every reply before it raises its first error,
  so a failed op leaves no other owner's connection a reply behind.
* A request the wire cannot carry fails before anything is written.
* The connection's timeout bounds every send and read: a stalled owner
  raises :class:`~repro.errors.OwnerUnavailableError` naming it within
  the timeout, later requests to it fail fast, the other owners keep
  serving, and ``close()`` leaves no child process behind.
* An end of stream or an undecodable reply drops the owner the same way.
"""

from __future__ import annotations

import os
import signal
import socket
import time

import pytest

from repro.columnar import ColumnarDatabase
from repro.datagen import make_generator
from repro.distributed import wire
from repro.distributed.socket_transport import SocketCluster, SocketNetwork
from repro.errors import DistributedError, OwnerUnavailableError, ProtocolError


@pytest.fixture(scope="module")
def columnar():
    database = make_generator("zipf").generate(40, 2, seed=19)
    return ColumnarDatabase.from_database(database)


class TestWaveKeepsConnectionsInStep:
    def test_owner_error_in_a_wave_reads_the_other_replies(self, columnar):
        with SocketCluster(columnar, include_position=True) as cluster:
            with cluster.connect() as fabric:
                with pytest.raises(ProtocolError, match="owner at owner/0 failed"):
                    fabric.request_many(
                        [
                            ("owner/0", "random_lookup", {"item": 10**9}),
                            ("owner/1", "sorted_next", None),
                        ]
                    )
                # owner/1 served the wave's sorted access: its cursor is
                # at 1, so the next one answers position 2.
                assert fabric.request("owner/1", "sorted_next")["position"] == 2
                assert fabric.request("owner/1", "state")["sorted"] == 2
                # owner/0 is in step too.
                assert fabric.request("owner/0", "sorted_next")["position"] == 1

    def test_unencodable_request_fails_before_any_write(self, columnar):
        with SocketCluster(columnar, include_position=True) as cluster:
            with cluster.connect() as fabric:
                with pytest.raises(ProtocolError, match="no-such-kind"):
                    fabric.request_many(
                        [
                            ("owner/0", "no-such-kind", None),
                            ("owner/1", "sorted_next", None),
                        ]
                    )
                with pytest.raises(ProtocolError, match="random_lookup"):
                    fabric.request("owner/1", "random_lookup", {"item": 2**63})
                # Nothing went out, so owner/1 has served no access.
                assert fabric.request("owner/1", "state")["sorted"] == 0
                assert fabric.request("owner/1", "sorted_next")["position"] == 1

    def test_unknown_address_fails_before_any_write(self, columnar):
        with SocketCluster(columnar) as cluster, cluster.connect() as fabric:
            with pytest.raises(KeyError, match="owner/7"):
                fabric.request_many(
                    [("owner/0", "sorted_next", None), ("owner/7", "sorted_next", None)]
                )
            assert fabric.request("owner/0", "state")["sorted"] == 0


class TestDeadlines:
    def test_stalled_owner_is_unavailable_within_the_timeout(self, columnar):
        timeout = 0.5
        cluster = SocketCluster(columnar)
        processes = list(cluster._processes)
        victim = processes[0]
        try:
            with cluster.connect(timeout=timeout) as fabric:
                os.kill(victim.pid, signal.SIGSTOP)
                try:
                    started = time.monotonic()
                    with pytest.raises(OwnerUnavailableError, match="owner/0") as caught:
                        fabric.request_many(
                            [("owner/0", "sorted_next", None), ("owner/1", "sorted_next", None)]
                        )
                    assert time.monotonic() - started < timeout + 1.0
                    assert caught.value.address == "owner/0"
                    assert isinstance(caught.value, DistributedError)
                    assert isinstance(caught.value, ConnectionError)
                    # Later requests to the dropped owner fail fast.
                    started = time.monotonic()
                    with pytest.raises(OwnerUnavailableError, match="owner/0"):
                        fabric.request("owner/0", "sorted_next")
                    assert time.monotonic() - started < timeout
                    # The wave still read owner/1's reply: it is in step.
                    assert fabric.request("owner/1", "state")["sorted"] == 1
                finally:
                    os.kill(victim.pid, signal.SIGCONT)
        finally:
            cluster.close()
        assert not any(process.is_alive() for process in processes)

    def test_killed_owner_is_unavailable(self, columnar):
        cluster = SocketCluster(columnar)
        processes = list(cluster._processes)
        try:
            with cluster.connect(timeout=2.0) as fabric:
                processes[1].kill()
                processes[1].join(timeout=5.0)
                with pytest.raises(OwnerUnavailableError, match="owner/1"):
                    fabric.request("owner/1", "sorted_next")
                with pytest.raises(OwnerUnavailableError, match="owner/1"):
                    fabric.request("owner/1", "sorted_next")
                assert "item" in fabric.request("owner/0", "sorted_next")
        finally:
            cluster.close()
        assert not any(process.is_alive() for process in processes)


class TestOwnerSideDecoding:
    def test_undecodable_request_is_answered_on_a_kept_connection(self, columnar):
        with SocketCluster(columnar) as cluster:
            with socket.create_connection(("127.0.0.1", cluster.ports[0])) as raw:
                raw.settimeout(5.0)
                raw.sendall(wire.LENGTH.pack(2) + b"\x09\x00")  # unknown version
                reply = wire.decode_reply(wire.recv_body(raw))
                assert "unsupported wire version" in reply["__error__"]
                # The frame was read whole, so the stream is still aligned.
                raw.sendall(wire.encode_request("sorted_next", None))
                assert "item" in wire.decode_reply(wire.recv_body(raw))


class TestBrokenStreams:
    """A peer that breaks the framing is dropped, not trusted again."""

    def test_undecodable_reply_drops_the_owner(self):
        left, right = socket.socketpair()
        with right, SocketNetwork({"owner/0": left}) as fabric:
            right.sendall(wire.LENGTH.pack(2) + b"\x09\x00")  # unknown version
            with pytest.raises(OwnerUnavailableError, match="version"):
                fabric.request("owner/0", "sorted_next")
            assert left.fileno() == -1  # closed
            assert fabric.addresses == ()
            with pytest.raises(OwnerUnavailableError, match="version"):
                fabric.request("owner/0", "sorted_next")

    def test_end_of_stream_drops_the_owner(self):
        left, right = socket.socketpair()
        with SocketNetwork({"owner/0": left}) as fabric:
            right.close()
            with pytest.raises(OwnerUnavailableError, match="owner/0"):
                fabric.request("owner/0", "state")

    def test_failed_write_drops_the_owner(self):
        left, right = socket.socketpair()
        with SocketNetwork({"owner/0": left}) as fabric:
            right.close()
            left.shutdown(socket.SHUT_WR)
            with pytest.raises(OwnerUnavailableError, match="owner/0"):
                fabric.request_many([("owner/0", "sorted_next", None)])
