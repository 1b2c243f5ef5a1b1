"""Server push over the socket transport: long-lived subscriptions.

:class:`WatchServer` wraps one :class:`~repro.service.QueryService`
behind a threaded TCP endpoint speaking the transport's length-prefixed
JSON frames (:mod:`repro.distributed.socket_transport`).  Request kinds:

=============  =====================================================
``watch``      register a standing query; replies ``watched`` with
               the subscription id and the initial ranked answer
``unwatch``    cancel a subscription this connection owns; replies
               ``unwatched``
``query``      one request/response submit (the naive re-query
               baseline the watch benchmark compares against);
               replies ``result``
``sync``       barrier: replies ``synced`` with the current epoch —
               because each connection is FIFO, every delta pushed
               *before* the reply was sent is already in flight ahead
               of it, so a client that reads up to ``synced`` has
               drained all deltas of preceding mutations
=============  =====================================================

Pushes are ``delta`` frames (:meth:`ResultDelta.to_wire
<repro.watch.frames.ResultDelta.to_wire>`), sent synchronously from
inside the mutation call.  A per-connection send lock keeps frames
atomic between the pushing mutator thread and the replying connection
thread; :attr:`WatchServer.lock` serializes all service/database access
— connection threads take it around every service call, and **any
thread mutating the served database must hold it too** (the CLI's
serve loop and the benchmark do).  Lock order is always service lock →
connection send lock.

Every send on a connection has a deadline (the server's ``timeout``),
so a client that stops reading cannot stall the mutator that pushes to
it: once its socket buffer fills, the push waits at most ``timeout``,
then the connection is shut down (a half-written frame leaves the
stream unaligned) and every subscription it owns is cancelled; other
connections keep receiving.  Pushes go out one connection after
another, so each stalled connection costs the mutating call at most
one deadline, once.  A frame a client has started sending must
arrive within the deadline too, but an idle connection — a subscriber
that only listens — is never dropped.
"""

from __future__ import annotations

import socket
import threading

from repro.distributed.socket_transport import recv_frame, send_frame
from repro.errors import ProtocolError, ReproError
from repro.exec.keys import QuerySpec
from repro.scoring import AVERAGE, MAX, MIN, SUM

#: Scoring functions addressable from the wire, by name.
WIRE_SCORINGS = {
    "sum": SUM,
    "min": MIN,
    "max": MAX,
    "average": AVERAGE,
}


def spec_from_wire(payload: dict) -> QuerySpec:
    """Decode a query spec from a ``watch``/``query`` payload."""
    name = str(payload.get("scoring", "sum"))
    scoring = WIRE_SCORINGS.get(name)
    if scoring is None:
        raise ProtocolError(
            f"unknown scoring {name!r}; expected one of "
            f"{sorted(WIRE_SCORINGS)}"
        )
    try:
        k = int(payload.get("k", 10))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad k: {payload.get('k')!r}") from exc
    return QuerySpec(
        algorithm=str(payload.get("algorithm", "auto")), k=k, scoring=scoring
    )


def _wire_items(entries) -> list:
    return [[entry.item, entry.score] for entry in entries]


def _await_frame(conn: socket.socket) -> None:
    """Wait, without a deadline, until ``conn`` has a byte or EOF to read.

    The connection's timeout bounds a frame once it starts arriving;
    between frames a subscriber may stay silent for as long as it likes.
    """
    while True:
        try:
            conn.recv(1, socket.MSG_PEEK)
            return
        except TimeoutError:
            continue


class WatchServer:
    """One service behind a push-capable TCP endpoint.

    Use as a context manager, or :meth:`start` / :meth:`close`.  The
    server binds immediately (so :attr:`port` is known before
    :meth:`start`), accepts on a daemon thread, and spawns one daemon
    thread per connection.
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 10.0,
    ) -> None:
        self.service = service
        #: seconds any one send (a reply or a push) may block
        self.timeout = timeout
        #: serializes every touch of the service and its database.
        self.lock = threading.RLock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()[:2]
        self._closed = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "WatchServer":
        """Begin accepting connections (idempotent)."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="watch-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, drop every connection (idempotent)."""
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            # Closing a socket does not interrupt a thread blocked in
            # accept() on it; shutdown() does, waking the accept loop
            # so the join below is immediate instead of timing out.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        for conn in tuple(self._connections):
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "WatchServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(self.timeout)
            self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="watch-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        send_lock = threading.Lock()
        owned: dict[int, object] = {}  #: subscription id -> Subscription
        try:
            while True:
                _await_frame(conn)
                request, _size = recv_frame(conn)
                if request is None:
                    return  # clean hangup (or shut down by a push)
                kind = request.get("kind")
                payload = request.get("payload") or {}
                try:
                    reply = self._handle(
                        kind, payload, conn, send_lock, owned
                    )
                except ProtocolError as exc:
                    reply = {"kind": "error", "error": str(exc)}
                except ReproError as exc:
                    reply = {
                        "kind": "error",
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                if reply is not None:
                    with send_lock:
                        send_frame(conn, reply)
        except (ProtocolError, ConnectionError, OSError):
            return  # hostile or vanished peer: drop the connection
        finally:
            with self.lock:
                for subscription in owned.values():
                    subscription.cancel()
            self._connections.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _handle(self, kind, payload, conn, send_lock, owned) -> dict | None:
        if kind == "watch":
            spec = spec_from_wire(payload)
            deliver = self._pusher(conn, send_lock, owned)
            # Register and reply under the service lock: no mutation can
            # interleave, so the `watched` frame precedes every delta of
            # this subscription on the wire.
            with self.lock:
                subscription = self.service.watch(spec, callback=deliver)
                owned[subscription.id] = subscription
                with send_lock:
                    send_frame(
                        conn,
                        {
                            "kind": "watched",
                            "subscription": subscription.id,
                            "epoch": subscription.epoch,
                            "seq": subscription.seq,
                            "items": _wire_items(subscription.entries),
                        },
                    )
            return None
        if kind == "unwatch":
            try:
                wanted = int(payload["subscription"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"unwatch needs a subscription id: {exc}"
                ) from exc
            with self.lock:
                subscription = owned.pop(wanted, None)
                if subscription is None:
                    raise ProtocolError(
                        f"connection owns no subscription {wanted}"
                    )
                subscription.cancel()
            return {"kind": "unwatched", "subscription": wanted}
        if kind == "query":
            spec = spec_from_wire(payload)
            with self.lock:
                served = self.service.submit(spec)
            return {
                "kind": "result",
                "epoch": served.stats.epoch,
                "cache_outcome": served.stats.cache_outcome,
                "items": _wire_items(served.result.items),
            }
        if kind == "sync":
            with self.lock:
                return {"kind": "synced", "epoch": self.service.epoch}
        raise ProtocolError(f"unknown request kind {kind!r}")

    def _pusher(self, conn, send_lock, owned):
        def deliver(delta) -> None:
            try:
                with send_lock:
                    send_frame(conn, delta.to_wire())
            except OSError:
                # A missed send deadline or a vanished peer.  A frame
                # may be half written, so the stream is no longer
                # frame-aligned: shut the connection down (its thread
                # wakes and exits) and cancel every subscription it
                # owns.  This runs inside the mutation call, under the
                # service lock, so the cancels are race-free.
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                for subscription in tuple(owned.values()):
                    subscription.cancel()
                owned.clear()

        return deliver

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed.is_set() else "open"
        return f"<WatchServer {self.host}:{self.port} {state}>"
