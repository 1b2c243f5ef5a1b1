"""Deadlines on both ends of the standing-query connection.

A subscriber that stops reading must not stall the writers that push to
it: its connection is dropped once a push misses the server's send
deadline, while other subscribers keep exact mirrors and an idle (but
reading) subscriber is never dropped.  The client, in turn, bounds every
wait by its ``timeout`` and raises a typed ``ConnectionError`` naming
the server.  Every scenario runs under a watchdog thread, so a
regression fails instead of hanging the suite.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.datagen import UniformGenerator
from repro.distributed.socket_transport import send_frame
from repro.distributed.wire import LENGTH
from repro.errors import WatchServerUnavailableError
from repro.scoring import SUM
from repro.service import QueryService
from repro.service.workload import dynamic_from, fresh_topk
from repro.watch import WatchClient, WatchServer

#: seconds a watchdog waits for a scenario before failing it
WATCHDOG = 60.0


def _bounded(target, seconds: float = WATCHDOG):
    """Run ``target`` on a daemon thread; fail if it outlives ``seconds``.

    Returns what it returned; re-raises what it raised.
    """
    outcome: dict = {}

    def run():
        try:
            outcome["value"] = target()
        except BaseException as exc:  # re-raised on the test thread
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still blocked after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _wait_for(condition, seconds: float = 10.0) -> None:
    give_up = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < give_up, "condition never held"
        time.sleep(0.01)


@pytest.fixture()
def source():
    return dynamic_from(UniformGenerator().generate(2_000, 4, seed=19))


class TestServerSendDeadline:
    def test_a_stalled_subscriber_cannot_block_writers(self, source):
        deadline = 0.5
        service = QueryService(source, pool="serial")
        with service, WatchServer(service, timeout=deadline) as server, \
                WatchClient(server.port) as reader:
            # A raw subscriber that never reads, with a tiny receive
            # buffer so the server's pushes back up quickly.
            stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.connect(("127.0.0.1", server.port))
            try:
                send_frame(
                    stalled,
                    {
                        "kind": "watch",
                        "payload": {"algorithm": "auto", "k": 50},
                    },
                )
                _wait_for(lambda: len(service.subscriptions) == 1)
                handle = reader.watch(algorithm="auto", k=50)
                # The writer moves the top item between rank 0 and the
                # middle of the top-50 and back: every write shifts
                # about 25 ranks, so each pushed delta carries about 25
                # upserts and the stalled socket backs up within a few
                # thousand writes, whatever the host's send buffer.
                top = handle.item_ids[0]
                scores = source.local_scores(top)
                lst = scores.index(max(scores))
                base = scores[lst]
                middle = (handle.scores[24] + handle.scores[25]) / 2
                drop = handle.scores[0] - middle
                assert 0 < drop < base
                durations: list[float] = []

                def write_until_dropped() -> None:
                    give_up = time.monotonic() + WATCHDOG - 10.0
                    step = 0
                    while time.monotonic() < give_up:
                        started = time.perf_counter()
                        with server.lock:
                            source.update_score(
                                lst, top, base - drop * (step % 2 == 0)
                            )
                        durations.append(time.perf_counter() - started)
                        step += 1
                        reader.drain()
                        if len(service.subscriptions) == 1:
                            return

                _bounded(write_until_dropped)
            finally:
                stalled.close()
            assert max(durations) < deadline + 1.0
            (live,) = service.subscriptions
            assert live.id == handle.id
            # The reader kept receiving throughout, and still does.
            with server.lock:
                source.update_score(lst, top, base + 1.0)
            _bounded(reader.sync)
            reader.drain()
            expected = fresh_topk(source, 50, SUM)
            assert (handle.item_ids, handle.scores) == expected
            assert handle.deltas_applied >= len(durations)

    def test_an_idle_subscriber_is_never_dropped(self, source):
        service = QueryService(source, pool="serial")
        with service, WatchServer(service, timeout=0.2) as server, \
                WatchClient(server.port) as idle:
            handle = idle.watch(algorithm="auto", k=5)
            time.sleep(1.0)  # five deadlines without a request
            top = handle.item_ids[0]
            with server.lock:
                source.update_score(0, top, source.local_scores(top)[0] + 1.0)
            deltas = _bounded(lambda: idle.poll(timeout=5.0))
            assert [delta.subscription for delta in deltas] == [handle.id]
            assert len(service.subscriptions) == 1
            idle.drain()
            assert handle.apply(deltas[0])
            assert (handle.item_ids, handle.scores) == fresh_topk(
                source, 5, SUM
            )


class TestClientDeadline:
    @pytest.fixture()
    def silent(self):
        """A listener that accepts and never answers."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        accepted: list[socket.socket] = []
        thread = threading.Thread(
            target=lambda: accepted.append(listener.accept()[0]), daemon=True
        )
        thread.start()
        yield listener.getsockname()[1], accepted
        for conn in accepted:
            conn.close()
        listener.close()

    def test_sync_against_a_silent_server_raises_in_time(self, silent):
        port, _accepted = silent
        timeout = 0.5
        client = WatchClient(port, timeout=timeout)
        started = time.perf_counter()
        with pytest.raises(WatchServerUnavailableError) as failed:
            _bounded(client.sync, timeout + 5.0)
        assert time.perf_counter() - started < timeout + 1.0
        assert isinstance(failed.value, ConnectionError)
        assert failed.value.address == f"127.0.0.1:{port}"
        assert f"127.0.0.1:{port}" in str(failed.value)
        # The socket is closed: every later call fails fast.
        for call in (
            lambda: client.watch(k=3),
            lambda: client.query(k=3),
            client.sync,
            lambda: client.poll(1.0),
        ):
            started = time.perf_counter()
            with pytest.raises(WatchServerUnavailableError):
                _bounded(call, 5.0)
            assert time.perf_counter() - started < 0.25

    def test_end_of_stream_and_bad_framing_raise_the_typed_error(
        self, silent
    ):
        port, accepted = silent
        client = WatchClient(port, timeout=5.0)
        _wait_for(lambda: accepted)
        # A length prefix over the frame cap: the stream is unusable.
        accepted[0].sendall(LENGTH.pack(2**31 - 1))
        with pytest.raises(WatchServerUnavailableError, match="limit"):
            _bounded(client.sync, 10.0)

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            other = WatchClient(listener.getsockname()[1], timeout=5.0)
            conn, _ = listener.accept()
            conn.close()  # hang up without a byte
            with pytest.raises(WatchServerUnavailableError, match="closed"):
                _bounded(other.sync, 10.0)
        finally:
            listener.close()
