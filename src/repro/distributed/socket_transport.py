"""A real TCP transport: multi-tenant owner daemons behind framed sockets.

This is the simulated network made physical.  A
:class:`~repro.distributed.placement.ClusterPlacement` assigns the
database's lists to a configurable number of **owner processes** (one
per list by default); each process runs an
:class:`~repro.distributed.daemon.OwnerDaemon` serving its hosted lists
over a length-prefixed TCP connection.  The originator talks to the
owners through :class:`SocketNetwork`, which satisfies the same fabric
interface as :class:`~repro.distributed.network.SimulatedNetwork`
(``request`` / ``request_many`` / ``stats``), so
:class:`~repro.distributed.transport.NetworkBackend` — and therefore the
unified round-plan drivers and ``QueryService`` — run over real
sockets unchanged.

Wire format
-----------
One frame per message: a 4-byte big-endian length prefix followed by a
binary body (:mod:`repro.distributed.wire`): a version byte, then per
op a fixed ``struct`` header (kind code, ``list`` field, counts, and
flags for ``exhausted``, positions and ``bp_score``) followed by typed
arrays, ids and positions as little-endian int64 and scores as IEEE-754
float64.  Every reply section names its kind, so the decoder rebuilds
the owner's response dict without request state; owner-side errors
travel as a UTF-8 error section and re-raise client-side as
:class:`~repro.errors.ProtocolError`, and only the metrics reply keeps
a JSON body.  Byte accounting in :class:`NetworkStats` uses the
*actual* frame sizes, prefix included.  Requests to an owner hosting
several lists carry a ``list`` routing field, and a round's ops for
co-hosted lists coalesce into one ``multi`` frame per owner (see
``NetworkBackend.execute_plan``) — at ``owners < m`` that is the
transport's frame reduction.  :func:`send_frame` /
:func:`recv_frame` frame JSON for the watch push protocol, a separate
layer.

Deadlines
---------
The ``timeout`` a connection is opened with bounds its connect and
every later send and read.  A timeout, an end of stream or a framing
error closes that owner's socket (its stream is no longer
frame-aligned) and raises :class:`~repro.errors.OwnerUnavailableError`
naming the owner; later requests to it fail fast with the same error.

Pipelining
----------
``request_many`` writes every request frame before reading any response.
Each owner connection is FIFO, and a round plan never carries two ops
for the same list, so responses match requests by order — the batched
protocol's sequential round trips collapse into one overlapped wave,
which is where the pipelined protocol's wall-clock win comes from, at
identical message counts.  A wave
reads every reply before it raises its first error, so one failed op
leaves no other owner's connection a reply behind.

Warm starts
-----------
:meth:`SocketCluster.from_snapshot` spawns owners that load their lists
from a ``.bpsn`` snapshot file themselves — the parent reads only the
fixed header, no list payload crosses the process boundary, and the
canonical sort is adopted from the file instead of recomputed.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import time
from typing import Sequence

import numpy as np

from repro.distributed.daemon import DEFAULT_LATENCY_SAMPLE_K, OwnerDaemon
from repro.distributed.network import NetworkStats
from repro.distributed.placement import ClusterPlacement
from repro.distributed.wire import (
    LENGTH,
    MAX_FRAME_BYTES,
    SHUTDOWN,
    decode_reply,
    decode_request,
    encode_error,
    encode_reply,
    encode_request,
    recv_body,
)
from repro.errors import OwnerUnavailableError, ProtocolError

#: Control-plane request kinds excluded from wire accounting: they are
#: remote-transport bookkeeping (end-of-query state reads, per-query
#: resets, shutdown), not query-protocol traffic — the simulated
#: transport answers the same questions by peeking at in-process owner
#: objects for free, and keeping them out of the counters keeps socket
#: message/byte rows directly comparable with the simulated rows for
#: identical owner-side operations.
CONTROL_KINDS = frozenset({"state", "reset", SHUTDOWN})


def _json_default(value):
    """Encode NumPy scalars the way their Python twins encode."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"unsupported wire type: {type(value).__name__}")


def send_frame(
    sock: socket.socket, message: dict, *, max_bytes: int = MAX_FRAME_BYTES
) -> int:
    """Write one length-prefixed JSON frame; returns bytes on the wire."""
    body = json.dumps(message, default=_json_default).encode("utf-8")
    if len(body) > max_bytes:
        raise ProtocolError(
            f"refusing to send {len(body)}-byte frame (limit {max_bytes})"
        )
    frame = LENGTH.pack(len(body)) + body
    sock.sendall(frame)
    return len(frame)


def recv_frame(
    sock: socket.socket, *, max_bytes: int = MAX_FRAME_BYTES
) -> tuple[dict | None, int]:
    """Read one JSON frame; ``(None, 0)`` on a clean EOF before any byte.

    Raises :class:`~repro.errors.ProtocolError` on an oversized length
    prefix or an undecodable body, and :class:`ConnectionError` on a
    frame truncated mid-body — in either case the stream can no longer
    be trusted to be frame-aligned and the caller must close it.
    """
    body = recv_body(sock, max_bytes=max_bytes)
    if body is None:
        return None, 0
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(message).__name__}"
        )
    return message, LENGTH.size + len(body)


def _build_daemon(spec: dict) -> OwnerDaemon:
    """Materialize one owner process's daemon from its spawn spec.

    The spec carries either the pickled lists themselves or a snapshot
    path to load them from (warm start: the canonical sort is adopted
    from the file, never recomputed).
    """
    indices = list(spec["indices"])
    lists = spec.get("lists")
    if lists is None:
        from repro.storage.snapshot import load_snapshot

        database, _epoch = load_snapshot(spec["snapshot"])
        lists = [database.lists[index] for index in indices]
    return OwnerDaemon(
        lists,
        list_indices=indices,
        tracker=spec["tracker"],
        include_position=spec["include_position"],
        latency_sample_k=spec["latency_sample_k"],
    )


def _owner_server_main(spec: dict, channel) -> None:
    """One owner process: serve its hosted lists until shut down."""
    daemon = _build_daemon(spec)
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(("127.0.0.1", 0))
    server.listen(4)
    channel.send(server.getsockname()[1])
    channel.close()
    try:
        while True:
            client, _addr = server.accept()
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with client:
                try:
                    if _serve_client(daemon, client):
                        return
                except (ProtocolError, ConnectionError, OSError):
                    # Oversized or truncated frame: the stream is no
                    # longer frame-aligned.  Drop this client and keep
                    # serving — a hostile or crashed client must not take
                    # the owner (and every other client's lists) with it.
                    continue
    finally:
        server.close()


def _serve_client(daemon: OwnerDaemon, client: socket.socket) -> bool:
    """Answer one client's frames until it leaves; ``True`` on shutdown.

    A body that does not decode, and any failure serving it, is
    answered with an error frame: the frame was read whole, so the
    stream stays aligned and the client keeps its connection.  Every
    frame's decode, handle and encode times go to the daemon's metrics
    (a failed stage's time counts toward encoding its error).
    """
    clock = time.perf_counter
    while True:
        body = recv_body(client)
        if body is None:
            return False  # client went away; await a reconnect
        started = decoded = handled = clock()
        try:
            kind, payload = decode_request(body)
            decoded = handled = clock()
            response = {} if kind == SHUTDOWN else daemon.handle(kind, payload)
            handled = clock()
            reply = encode_reply(kind, payload, response)
        except Exception as exc:  # ship, don't kill owner
            kind, reply = None, encode_error(f"{type(exc).__name__}: {exc}")
        daemon.record_frame(decoded - started, handled - decoded, clock() - handled)
        client.sendall(reply)
        if kind == SHUTDOWN:
            return True


def connect_ports(
    ports: Sequence[int], *, timeout: float = 10.0
) -> "SocketNetwork":
    """Open one TCP connection per owner port and return the fabric.

    Addresses are ``owner/<index>`` in port order.  ``timeout`` bounds
    the connect and every later send and read on the connection: an
    owner that does not answer in time is dropped with
    :class:`~repro.errors.OwnerUnavailableError`.  Works from any
    process that knows the ports — ``repro-topk cluster serve``
    publishes them in its spec file so ``serve-workload
    --cluster-spec`` can hammer a cluster it did not spawn.
    """
    sockets: dict[str, socket.socket] = {}
    try:
        for index, port in enumerate(ports):
            sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sockets[f"owner/{index}"] = sock
    except BaseException:
        for sock in sockets.values():
            sock.close()
        raise
    return SocketNetwork(sockets)


class SocketCluster:
    """Spawns owner daemon processes and hands out connections.

    Args:
        database: any :class:`~repro.lists.accessor.DatabaseLike`; each
            owner group's lists ship (pickled) to one owner process,
            which binds an ephemeral loopback port and reports it back.
        owners: number of owner processes (``None``/``0`` places one
            list per owner); lists are assigned by ``placement``.
        placement: a strategy name (``"contiguous"``/``"striped"``) or a
            prebuilt :class:`ClusterPlacement`.
        tracker: best-position structure kind at the owners.
        include_position: ship positions in lookup responses (BPA).
        latency_sample_k: size of each daemon's latency reservoir.
        start_method: multiprocessing start method; ``None`` keeps the
            platform default (``fork`` is unsafe with threads or under
            macOS frameworks — opt into it knowingly).

    Use as a context manager; :meth:`close` asks every owner to exit
    and joins the processes (they are daemons, so a crashed originator
    cannot leak them past its own lifetime).
    """

    def __init__(
        self,
        database,
        *,
        owners: int | None = None,
        placement: str | ClusterPlacement = "contiguous",
        tracker: str = "bitarray",
        include_position: bool = False,
        latency_sample_k: int = DEFAULT_LATENCY_SAMPLE_K,
        start_method: str | None = None,
    ) -> None:
        self._setup(
            m=database.m,
            n=database.n,
            owners=owners,
            placement=placement,
            include_position=include_position,
        )
        specs = [
            self._spec(
                group,
                tracker=tracker,
                include_position=include_position,
                latency_sample_k=latency_sample_k,
                lists=[database.lists[index] for index in group],
            )
            for group in self.placement.groups
        ]
        self._spawn(specs, start_method)

    @classmethod
    def from_snapshot(
        cls,
        path,
        *,
        owners: int | None = None,
        placement: str | ClusterPlacement = "contiguous",
        tracker: str = "bitarray",
        include_position: bool = False,
        latency_sample_k: int = DEFAULT_LATENCY_SAMPLE_K,
        start_method: str | None = None,
    ) -> "SocketCluster":
        """Warm-start a cluster from a ``.bpsn`` snapshot file.

        The parent reads only the snapshot's fixed header (for ``m``,
        ``n`` and the epoch stamp); every owner process loads its own
        lists from the file, adopting the persisted canonical order —
        a cluster restart skips the sort and ships no list payloads
        over the spawn pipe.
        """
        from repro.storage.snapshot import read_snapshot_header

        m, n, epoch = read_snapshot_header(path)
        cluster = cls.__new__(cls)
        cluster._setup(
            m=m,
            n=n,
            owners=owners,
            placement=placement,
            include_position=include_position,
        )
        cluster.epoch = epoch
        specs = [
            cluster._spec(
                group,
                tracker=tracker,
                include_position=include_position,
                latency_sample_k=latency_sample_k,
                snapshot=str(path),
            )
            for group in cluster.placement.groups
        ]
        cluster._spawn(specs, start_method)
        return cluster

    def _setup(
        self,
        *,
        m: int,
        n: int,
        owners: int | None,
        placement: str | ClusterPlacement,
        include_position: bool,
    ) -> None:
        self.m = m
        self.n = n
        self.include_position = include_position
        self.epoch: int | None = None
        if isinstance(placement, ClusterPlacement):
            if placement.m != m:
                raise ValueError(
                    f"placement covers {placement.m} lists, database has {m}"
                )
            self.placement = placement
        else:
            self.placement = ClusterPlacement.build(
                m, owners=owners, strategy=placement
            )
        self.ports: list[int] = []
        self._processes: list = []

    @staticmethod
    def _spec(group, *, tracker, include_position, latency_sample_k, **source):
        return {
            "indices": list(group),
            "tracker": tracker,
            "include_position": include_position,
            "latency_sample_k": latency_sample_k,
            **source,
        }

    def _spawn(self, specs: list[dict], start_method: str | None) -> None:
        context = multiprocessing.get_context(start_method)
        try:
            for spec in specs:
                parent, child = context.Pipe()
                process = context.Process(
                    target=_owner_server_main, args=(spec, child), daemon=True
                )
                process.start()
                child.close()
                self.ports.append(parent.recv())
                parent.close()
                self._processes.append(process)
        except BaseException:
            self.close()
            raise

    def connect(self, *, timeout: float = 10.0) -> "SocketNetwork":
        """Open one TCP connection per owner and return the fabric;
        ``timeout`` bounds every send and read (see :func:`connect_ports`)."""
        return connect_ports(self.ports, timeout=timeout)

    def close(self, *, timeout: float = 5.0) -> None:
        """Shut down every owner process (idempotent).

        Escalates politely: a shutdown frame first (owners finish the
        frame they are serving and exit their loop), then
        ``join(timeout)``, then ``terminate()`` for stragglers, and
        ``kill()`` only as the last resort — so a healthy cluster never
        sees a signal and a wedged owner still cannot outlive us.
        """
        processes, self._processes = self._processes, []
        if not processes:
            return
        for process, port in zip(processes, self.ports):
            if not process.is_alive():
                continue
            try:
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=2.0
                ) as sock:
                    sock.sendall(encode_request(SHUTDOWN, None))
                    recv_body(sock)
            except (OSError, ProtocolError):
                pass  # unreachable owner: the escalation below reaps it
        for process in processes:
            process.join(timeout=timeout)
        stragglers = [p for p in processes if p.is_alive()]
        for process in stragglers:  # pragma: no cover - unhealthy owners
            process.terminate()
        for process in stragglers:  # pragma: no cover - unhealthy owners
            process.join(timeout=timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout=timeout)

    def __enter__(self) -> "SocketCluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SocketNetwork:
    """Client-side fabric over one framed TCP connection per owner.

    Satisfies the same interface as
    :class:`~repro.distributed.network.SimulatedNetwork` (``request`` /
    ``request_many`` / ``stats`` / ``reset_stats``), with byte counters
    measuring the actual frames on the wire.  An owner whose connection
    failed is dropped: its requests raise
    :class:`~repro.errors.OwnerUnavailableError` from then on.
    """

    def __init__(self, sockets: dict[str, socket.socket]) -> None:
        self.stats = NetworkStats()
        self._sockets = sockets
        #: why each dropped owner is unavailable, by address
        self._down: dict[str, str] = {}

    @property
    def addresses(self) -> tuple[str, ...]:
        """The owner addresses this fabric can reach."""
        return tuple(self._sockets)

    def _socket(self, address: str) -> socket.socket:
        sock = self._sockets.get(address)
        if sock is None:
            if address in self._down:
                raise OwnerUnavailableError(address, self._down[address])
            raise KeyError(f"no owner at address {address}")
        return sock

    def _drop(self, address: str, exc: Exception) -> OwnerUnavailableError:
        """Close an owner's connection after ``exc`` left its stream
        unaligned; the returned error is raised for it from now on."""
        self._sockets.pop(address).close()
        reason = str(exc) or type(exc).__name__
        self._down[address] = reason
        return OwnerUnavailableError(address, reason)

    def _send(self, address: str, frame: bytes) -> None:
        sock = self._socket(address)
        try:
            sock.sendall(frame)
        except OSError as exc:
            raise self._drop(address, exc) from exc

    def _receive(self, address: str, kind: str, sent: int) -> dict:
        sock = self._socket(address)
        try:
            body = recv_body(sock)
            if body is None:
                raise ConnectionError("connection closed")
            response = decode_reply(body)
        except (OSError, ProtocolError) as exc:
            raise self._drop(address, exc) from exc
        if kind not in CONTROL_KINDS:
            self.stats.record(
                kind, request_bytes=sent, response_bytes=LENGTH.size + len(body)
            )
        error = response.pop("__error__", None)
        if error is not None:
            raise ProtocolError(f"owner at {address} failed: {error}")
        if kind not in CONTROL_KINDS:
            self.stats.record_best_position_payload(response)
        return response

    def request(self, address: str, kind: str, payload: dict | None = None) -> dict:
        """One blocking request/response round trip."""
        frame = encode_request(kind, payload)
        self._send(address, frame)
        return self._receive(address, kind, len(frame))

    def request_many(
        self, requests: Sequence[tuple[str, str, dict | None]]
    ) -> list[dict]:
        """Overlapped wave: write every request, then read every response.

        Requests to distinct owners are concurrently in flight; multiple
        requests to one owner stay FIFO on its connection, so responses
        always match requests by order.  Every frame is encoded and
        every address resolved before the first write; once frames are
        out, every reply is read before the wave's first error is
        raised, so a failed op leaves no connection out of step.
        """
        frames = [encode_request(kind, payload) for _address, kind, payload in requests]
        for address, _kind, _payload in requests:
            self._socket(address)
        outcomes: list = []
        for (address, _kind, _payload), frame in zip(requests, frames):
            try:
                self._send(address, frame)
                outcomes.append(None)
            except OwnerUnavailableError as exc:
                outcomes.append(exc)
        for index, (address, kind, _payload) in enumerate(requests):
            if outcomes[index] is None:
                try:
                    outcomes[index] = self._receive(address, kind, len(frames[index]))
                except (OwnerUnavailableError, ProtocolError) as exc:
                    outcomes[index] = exc
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return outcomes

    def reset_stats(self) -> None:
        """Zero all counters (e.g. between queries)."""
        self.stats = NetworkStats()

    def close(self) -> None:
        """Close every owner connection (idempotent)."""
        sockets, self._sockets = self._sockets, {}
        for sock in sockets.values():
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def __enter__(self) -> "SocketNetwork":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
