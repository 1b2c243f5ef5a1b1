"""The subscribing side of the push protocol.

:class:`WatchClient` opens one framed TCP connection to a
:class:`~repro.watch.server.WatchServer` and keeps a
:class:`WatchHandle` per standing query — a client-side mirror of the
maintained answer that replays pushed deltas
(:func:`repro.watch.frames.apply_delta`) with strict sequence checking,
so a gap or reorder is a protocol error, never a silently wrong answer.

The connection is FIFO: pushed ``delta`` frames may arrive interleaved
with request replies, so every synchronous request drains deltas it
encounters into a queue (:meth:`poll` hands them out, or
:meth:`drain` applies them to their handles directly).
:meth:`sync` is the barrier — after it returns, every delta of every
mutation the server committed before the barrier has been received.

The ``timeout`` a client is opened with bounds its connect and every
later send and read.  A timeout, an end of stream or a framing error
closes the socket (its stream is no longer frame-aligned) and raises
:class:`~repro.errors.WatchServerUnavailableError` naming the server;
later calls fail fast with the same error.  :meth:`poll` waits for the
first frame in ``select`` with its own ``timeout``.
"""

from __future__ import annotations

import select
import socket
from collections import deque

from repro.distributed.socket_transport import recv_frame, send_frame
from repro.errors import ProtocolError, WatchServerUnavailableError
from repro.types import ScoredItem
from repro.watch.frames import ResultDelta, apply_delta


def _entries_from_wire(items) -> tuple[ScoredItem, ...]:
    return tuple(ScoredItem(item=item, score=score) for item, score in items)


class WatchHandle:
    """Client-side mirror of one standing query."""

    def __init__(self, subscription: int, entries, epoch: int, seq: int) -> None:
        self.id = subscription
        self.entries = entries
        self.epoch = epoch
        self.seq = seq
        self.deltas_applied = 0

    @property
    def item_ids(self) -> tuple:
        """The mirrored item ids, best first."""
        return tuple(entry.item for entry in self.entries)

    @property
    def scores(self) -> tuple:
        """The mirrored overall scores, best first."""
        return tuple(entry.score for entry in self.entries)

    def apply(self, delta: ResultDelta) -> bool:
        """Replay one pushed delta; ``False`` if it is another handle's.

        Raises :class:`ProtocolError` on a sequence gap — the stream's
        exactness guarantee is per-delta, so a missed frame means the
        mirror can no longer be trusted.
        """
        if delta.subscription != self.id:
            return False
        if delta.seq != self.seq + 1:
            raise ProtocolError(
                f"delta gap on subscription {self.id}: "
                f"got seq {delta.seq} after {self.seq}"
            )
        self.entries = apply_delta(self.entries, delta)
        self.seq = delta.seq
        self.epoch = delta.epoch
        self.deltas_applied += 1
        return True


class WatchClient:
    """One framed connection holding any number of standing queries.

    Byte counters split request/response traffic (``sent_bytes`` /
    ``received_bytes``) from server-push traffic (``pushed_bytes``,
    ``pushed_deltas``) so the benchmark can compare the two modes
    honestly.
    """

    def __init__(
        self, port: int, *, host: str = "127.0.0.1", timeout: float = 10.0
    ) -> None:
        self.address = f"{host}:{port}"
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: why the connection failed (``None`` while it is up)
        self._down: str | None = None
        self._pending: deque[ResultDelta] = deque()
        self.handles: dict[int, WatchHandle] = {}
        self.sent_bytes = 0
        self.received_bytes = 0
        self.pushed_bytes = 0
        self.pushed_deltas = 0

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def _check(self) -> None:
        """Fail fast once the connection has failed."""
        if self._down is not None:
            raise WatchServerUnavailableError(self.address, self._down)

    def _fail(self, exc: Exception) -> WatchServerUnavailableError:
        """Close the socket after ``exc`` left its stream unaligned; the
        returned error is raised for every call from now on."""
        self._down = str(exc) or type(exc).__name__
        self.close()
        return WatchServerUnavailableError(self.address, self._down)

    def _receive(self) -> tuple[dict, int]:
        try:
            message, size = recv_frame(self._sock)
            if message is None:
                raise ConnectionError("watch server closed the connection")
        except (OSError, ProtocolError) as exc:
            raise self._fail(exc) from exc
        return message, size

    def _request(self, kind: str, payload: dict, expect: str) -> dict:
        self._check()
        try:
            self.sent_bytes += send_frame(
                self._sock, {"kind": kind, "payload": payload}
            )
        except OSError as exc:
            raise self._fail(exc) from exc
        while True:
            message, size = self._receive()
            if message.get("kind") == "delta":
                self._queue_push(message, size)
                continue
            self.received_bytes += size
            if message.get("kind") == "error":
                raise ProtocolError(f"watch server: {message.get('error')}")
            if message.get("kind") != expect:
                raise ProtocolError(
                    f"expected {expect!r} reply, got {message.get('kind')!r}"
                )
            return message

    def watch(
        self,
        *,
        algorithm: str = "auto",
        k: int = 10,
        scoring: str = "sum",
    ) -> WatchHandle:
        """Register a standing query; returns its live mirror."""
        reply = self._request(
            "watch",
            {"algorithm": algorithm, "k": k, "scoring": scoring},
            "watched",
        )
        handle = WatchHandle(
            int(reply["subscription"]),
            _entries_from_wire(reply["items"]),
            int(reply["epoch"]),
            int(reply["seq"]),
        )
        self.handles[handle.id] = handle
        return handle

    def unwatch(self, handle: WatchHandle) -> None:
        """Cancel a standing query (its queued deltas stay pollable)."""
        self._request("unwatch", {"subscription": handle.id}, "unwatched")
        self.handles.pop(handle.id, None)

    def query(
        self,
        *,
        algorithm: str = "auto",
        k: int = 10,
        scoring: str = "sum",
    ) -> tuple[int, tuple[ScoredItem, ...]]:
        """One request/response submit (the naive re-query baseline)."""
        reply = self._request(
            "query",
            {"algorithm": algorithm, "k": k, "scoring": scoring},
            "result",
        )
        return int(reply["epoch"]), _entries_from_wire(reply["items"])

    def sync(self) -> int:
        """Barrier: returns the server epoch; prior deltas are all in.

        The connection is FIFO, so every delta the server pushed before
        sending the ``synced`` reply has been read (and queued) by the
        time this returns.
        """
        reply = self._request("sync", {}, "synced")
        return int(reply["epoch"])

    # ------------------------------------------------------------------
    # Push consumption
    # ------------------------------------------------------------------

    def _queue_push(self, message: dict, size: int) -> None:
        self._pending.append(ResultDelta.from_wire(message))
        self.pushed_bytes += size
        self.pushed_deltas += 1

    def poll(self, timeout: float = 0.0) -> list[ResultDelta]:
        """Drain pushed deltas, waiting up to ``timeout`` for the first.

        Returns queued deltas immediately when any exist; otherwise
        waits for the socket to become readable, then reads every
        complete frame available without further waiting.
        """
        self._check()
        wait = timeout if not self._pending else 0.0
        while True:
            ready, _, _ = select.select([self._sock], [], [], wait)
            if not ready:
                break
            message, size = self._receive()
            if message.get("kind") != "delta":
                raise ProtocolError(
                    f"unsolicited {message.get('kind')!r} frame"
                )
            self._queue_push(message, size)
            wait = 0.0
        drained = list(self._pending)
        self._pending.clear()
        return drained

    def drain(self, timeout: float = 0.0) -> int:
        """Poll and apply every delta to its handle; returns the count.

        Deltas for cancelled (unknown) handles are discarded.
        """
        applied = 0
        for delta in self.poll(timeout):
            handle = self.handles.get(delta.subscription)
            if handle is not None and handle.apply(delta):
                applied += 1
        return applied

    def close(self) -> None:
        """Drop the connection (server cancels owned subscriptions)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "WatchClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
