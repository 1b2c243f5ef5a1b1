"""Synchronous message-passing transport with cost accounting.

The simulation is deliberately simple — a blocking request/response RPC —
because the paper's distributed metric is *how many* messages flow and
how big they are, not their timing.  Every request and every response is
one message; payload sizes are estimated with a fixed-width encoding
(8 bytes per number, UTF-8 for strings), so "BPA ships positions, BPA2
does not" shows up directly in the byte counters.

Beyond the totals, :class:`NetworkStats` breaks the traffic down two
ways the drivers need:

* per *round* (:meth:`NetworkStats.begin_round`): the coordinator
  announces each parallel access round, and message/byte counts are
  accumulated per round so protocols can be compared round for round;
* per *best-position exchange*: every response payload that carries
  best-position state — BPA's shipped ``position``/``positions`` fields
  or BPA2's piggybacked ``bp_score`` — is tallied separately
  (``bp_messages``/``bp_bytes``), which makes "BPA2 removes the
  position traffic" a measured number instead of a claim.
"""

from __future__ import annotations

import numbers
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np


def payload_size(value: Any) -> int:
    """Estimated wire size of a payload value, in bytes.

    Numbers cost 8 bytes, booleans/None 1, strings their UTF-8 length,
    containers the sum of their elements (dict keys included).  NumPy
    scalars count like their Python equivalents — the columnar backend
    serves ``float64``/``int64`` values, and a transport must price
    them, not crash on them.  This is a stable,
    implementation-independent proxy for message size.
    """
    kind = type(value)
    if kind is int or kind is float:
        return 8
    if value is None or isinstance(value, (bool, np.bool_)):
        return 1
    if isinstance(value, numbers.Number):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, dict):
        return sum(payload_size(k) + payload_size(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(payload_size(item) for item in value)
    raise TypeError(f"unsupported payload type: {type(value).__name__}")


#: Response fields that carry best-position state across the wire, with
#: the wire size of each field's key.
_BP_FIELDS = {key: payload_size(key) for key in ("bp_score", "position", "positions")}


@dataclass
class NetworkStats:
    """Message and byte counters, broken down by request kind.

    ``rounds`` counts coordinator-announced access rounds, and
    ``messages_by_round`` / ``bytes_by_round`` accumulate per-round
    traffic (index 0 holds anything sent before the first round).
    ``bp_messages`` / ``bp_bytes`` tally responses carrying
    best-position state and the wire size of exactly those fields.
    """

    messages: int = 0
    bytes: int = 0
    by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    rounds: int = 0
    messages_by_round: list[int] = field(default_factory=lambda: [0])
    bytes_by_round: list[int] = field(default_factory=lambda: [0])
    bp_messages: int = 0
    bp_bytes: int = 0

    def begin_round(self) -> None:
        """Open a new accounting round (the coordinator calls this)."""
        self.rounds += 1
        self.messages_by_round.append(0)
        self.bytes_by_round.append(0)

    def record(self, kind: str, request_bytes: int, response_bytes: int) -> None:
        """Account one request/response round trip (two messages)."""
        self.messages += 2
        self.bytes += request_bytes + response_bytes
        self.by_kind[kind] += 2
        self.bytes_by_kind[kind] += request_bytes + response_bytes
        self.messages_by_round[-1] += 2
        self.bytes_by_round[-1] += request_bytes + response_bytes

    def record_one_way(self, kind: str, size: int) -> None:
        """Account a single one-way message (e.g. a bulk phase response)."""
        self.messages += 1
        self.bytes += size
        self.by_kind[kind] += 1
        self.bytes_by_kind[kind] += size
        self.messages_by_round[-1] += 1
        self.bytes_by_round[-1] += size

    def record_best_position_payload(self, response: dict) -> None:
        """Tally the best-position fields of one response payload.

        BPA's shipped positions and BPA2's piggybacked best-position
        scores both travel inside ordinary responses; this counts the
        messages that carry them and the bytes those fields add —
        previously invisible in the per-kind totals.  Coalesced
        ``multi`` frames nest one sub-response per op under
        ``"results"``; their best-position fields are tallied into the
        same counters (one ``bp_message`` per carrying *frame*), so
        per-owner coalescing stays comparable with the per-list rows.
        """
        size = self._bp_field_size(response)
        if size:
            self.bp_messages += 1
            self.bp_bytes += size

    @classmethod
    def _bp_field_size(cls, response: dict) -> int:
        size = 0
        for key, key_size in _BP_FIELDS.items():
            if key in response:
                size += payload_size(response[key]) + key_size
        for sub in response.get("results", ()):
            if isinstance(sub, dict):
                size += cls._bp_field_size(sub)
        return size

    #: ``snapshot()`` ships at most this many per-round buckets: results
    #: (and the service's cache entries holding them) stay bounded even
    #: when TA runs a round per position on a large database.
    SNAPSHOT_MAX_ROUNDS = 256

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict copy for embedding into result extras.

        The per-round series are truncated to the first
        :attr:`SNAPSHOT_MAX_ROUNDS` buckets; ``rounds_omitted`` reports
        how many were dropped (0 in the common case).  The totals always
        cover every round.
        """
        cap = self.SNAPSHOT_MAX_ROUNDS
        omitted = max(0, len(self.messages_by_round) - cap)
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "by_kind": dict(self.by_kind),
            "bytes_by_kind": dict(self.bytes_by_kind),
            "rounds": self.rounds,
            "messages_by_round": self.messages_by_round[:cap],
            "bytes_by_round": self.bytes_by_round[:cap],
            "rounds_omitted": omitted,
            "bp_messages": self.bp_messages,
            "bp_bytes": self.bp_bytes,
        }


class RequestHandler(Protocol):
    """Anything addressable on the network (list owners)."""

    def handle(self, kind: str, payload: dict) -> dict:
        """Serve one request and return the response payload."""
        ...


class SimulatedNetwork:
    """Blocking RPC fabric between the originator and list owners."""

    def __init__(self) -> None:
        self.stats = NetworkStats()
        self._nodes: dict[str, RequestHandler] = {}

    def register(self, address: str, node: RequestHandler) -> None:
        """Attach a node under a unique address."""
        if address in self._nodes:
            raise ValueError(f"address already registered: {address}")
        self._nodes[address] = node

    def request(self, address: str, kind: str, payload: dict | None = None) -> dict:
        """Send a request, deliver the response, account both messages."""
        if address not in self._nodes:
            raise KeyError(f"no node at address {address}")
        payload = payload or {}
        response = self._nodes[address].handle(kind, payload)
        self.stats.record(
            kind,
            request_bytes=payload_size(kind) + payload_size(payload),
            response_bytes=payload_size(response),
        )
        self.stats.record_best_position_payload(response)
        return response

    def request_many(
        self, requests: "list[tuple[str, str, dict | None]]"
    ) -> list[dict]:
        """Deliver a dependency-free batch of requests.

        The simulation is synchronous, so the batch is served in order —
        message and byte accounting are identical to one
        :meth:`request` per element.  Concurrent transports (the socket
        fabric) override this to put every request on the wire before
        reading any response; the pipelined protocol's wall-clock win
        lives entirely in that overlap.
        """
        return [
            self.request(address, kind, payload)
            for address, kind, payload in requests
        ]

    def reset_stats(self) -> None:
        """Zero all counters (e.g. between queries)."""
        self.stats = NetworkStats()
