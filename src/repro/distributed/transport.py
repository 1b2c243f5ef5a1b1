"""Networked fabrics as an :class:`repro.exec.ExecutionBackend`.

This is the piece that makes the distributed stack "just another
transport": the unified round-plan drivers in :mod:`repro.exec.drivers`
emit plans, and this module turns each op into messages against
:class:`ListOwnerNode` owners — in-process over a
:class:`SimulatedNetwork`, or in separate OS processes over the framed
TCP fabric of :mod:`repro.distributed.socket_transport` (both satisfy
the same :class:`Fabric` interface).

Three wire protocols are supported:

* ``"entry"`` — the original per-entry RPC: every access is one
  request/response round trip (``messages == 2 * accesses``), matching
  the paper's message-count argument;
* ``"batch"`` — a round's random lookups to one owner travel in a
  single ``random_lookup_many`` message, a sorted block in one
  ``sorted_block`` message, and BPA2's per-list step (pending lookups +
  direct accesses) is one ``direct_step`` / ``direct_block`` message.
  Owner-side *operations* are identical entry for entry — same metered
  accesses, same best-position walks, same piggyback points — so
  results and tallies are unchanged while messages and bytes drop;
* ``"pipelined"`` — the batched protocol's messages, dispatched as
  overlapped waves: all of a round plan's requests go on the wire
  before any response is read (plans are dependency-free by
  construction, one op per list).  Message and byte counts are
  *identical* to ``"batch"``; on a real socket fabric the sequential
  round trips collapse into one, which ``repro dist-bench`` measures
  as wall-clock per query.

Best-position scores reach the originator only through the owners'
piggybacked ``bp_score`` fields, exactly as the paper allows BPA2's
coordinator to know them.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.distributed.daemon import OwnerDaemon
from repro.distributed.network import NetworkStats, SimulatedNetwork
from repro.distributed.nodes import ListOwnerNode
from repro.distributed.placement import ClusterPlacement
from repro.exec.backend import DirectStep, ExecutionBackend
from repro.exec.plan import (
    DirectBlock,
    DirectResult,
    Op,
    OpResult,
    ProbeBatch,
    ProbeResult,
    RoundPlan,
    SortedFetch,
    SortedResult,
    group_ops_by_owner,
)
from repro.lists.accessor import DatabaseLike
from repro.types import AccessTally, ItemId, Position, Score

_INF = float("inf")

PROTOCOLS = ("entry", "batch", "pipelined")


class Fabric(Protocol):
    """What a network backend needs from a message fabric."""

    stats: NetworkStats

    def request(self, address: str, kind: str, payload: dict | None = None) -> dict:
        """One blocking request/response round trip."""
        ...

    def request_many(
        self, requests: Sequence[tuple[str, str, dict | None]]
    ) -> list[dict]:
        """A dependency-free batch (overlapped where the fabric can)."""
        ...


class NetworkBackend(ExecutionBackend):
    """Backend whose sources are list owners across a network fabric.

    Args:
        database: any :class:`~repro.lists.accessor.DatabaseLike`; each
            list becomes one in-process :class:`ListOwnerNode` (columnar
            lists are served natively — the owners run the same
            vectorized storage the service uses).  For owners living in
            other processes, use :meth:`remote` instead.
        tracker: best-position structure kind at the owners.
        include_position: ship positions in lookup responses (BPA).
        protocol: ``"entry"``, ``"batch"`` or ``"pipelined"`` (see
            module docstring).
        network: an existing fabric to attach to (a fresh
            :class:`SimulatedNetwork` when ``None``); owners register
            under ``owner/<index>``.
        placement: a :class:`ClusterPlacement` assigning lists to owner
            processes.  ``None`` keeps the legacy one-node-per-list
            layout; with a placement, each owner group is hosted by one
            :class:`OwnerDaemon` registered under ``owner/<owner>``,
            requests to multi-list owners carry a ``"list"`` routing
            field, and batch/pipelined round waves coalesce into one
            frame per owner (see :meth:`execute_plan`).
    """

    def __init__(
        self,
        database: DatabaseLike,
        *,
        tracker: str = "bitarray",
        include_position: bool = False,
        protocol: str = "entry",
        network: SimulatedNetwork | None = None,
        placement: ClusterPlacement | None = None,
    ) -> None:
        self._init_common(
            m=database.m,
            n=database.n,
            include_position=include_position,
            protocol=protocol,
            placement=placement,
        )
        self.network: Fabric = network or SimulatedNetwork()
        if placement is None:
            self.owners = [
                ListOwnerNode(
                    sorted_list,
                    tracker=tracker,
                    include_position=include_position,
                )
                for sorted_list in database.lists
            ]
            for address, owner in zip(self._addresses, self.owners):
                self.network.register(address, owner)
            return
        nodes_by_list: dict[int, ListOwnerNode] = {}
        self.daemons: list[OwnerDaemon] = []
        for owner, group in enumerate(placement.groups):
            daemon = OwnerDaemon(
                [database.lists[index] for index in group],
                list_indices=group,
                tracker=tracker,
                include_position=include_position,
            )
            self.network.register(f"owner/{owner}", daemon)
            self.daemons.append(daemon)
            for index in group:
                nodes_by_list[index] = daemon.node_for(index)
        self.owners = [nodes_by_list[index] for index in range(self.m)]

    @classmethod
    def remote(
        cls,
        fabric: Fabric,
        *,
        m: int,
        n: int,
        include_position: bool = False,
        protocol: str = "batch",
        placement: ClusterPlacement | None = None,
    ) -> "NetworkBackend":
        """A backend over owners the fabric already reaches (e.g. the
        socket cluster's processes); end-of-query state is read through
        ``state`` requests instead of object peeks.  Pass the cluster's
        placement so requests route to the owner hosting each list."""
        backend = cls.__new__(cls)
        backend._init_common(
            m=m,
            n=n,
            include_position=include_position,
            protocol=protocol,
            placement=placement,
        )
        backend.network = fabric
        backend.owners = None
        return backend

    def _init_common(
        self,
        *,
        m: int,
        n: int,
        include_position: bool,
        protocol: str,
        placement: ClusterPlacement | None = None,
    ) -> None:
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}"
            )
        if placement is not None and placement.m != m:
            raise ValueError(
                f"placement covers {placement.m} lists, database has {m}"
            )
        self.m = m
        self.n = n
        self.include_position = include_position
        self.protocol = protocol
        self.placement = placement
        self.owners: list[ListOwnerNode] | None = None
        if placement is None:
            self._addresses = [f"owner/{index}" for index in range(m)]
            # No routing fields, no coalescing: one owner per list.
            self._needs_list = [False] * m
            self._coalesce = False
        else:
            self._addresses = [
                f"owner/{placement.owner_of[index]}" for index in range(m)
            ]
            sizes = [len(group) for group in placement.groups]
            # Single-list owners default the routing; omitting the field
            # keeps their frames byte-identical to the legacy cluster.
            self._needs_list = [
                sizes[placement.owner_of[index]] > 1 for index in range(m)
            ]
            self._coalesce = placement.max_group > 1
        self._bp_scores: list[Score] = [_INF] * m
        #: client-side sorted cursors (the sorted position is derivable
        #: even when the wire omits it, include_position=False).
        self._cursors = [0] * m
        self._states: list[dict] | None = None

    def _routed(self, i: int, payload: dict | None = None) -> dict | None:
        """Attach the ``"list"`` routing field for multi-list owners."""
        if self._needs_list[i]:
            payload = dict(payload or {})
            payload["list"] = i
        return payload

    # ------------------------------------------------------------------
    # ExecutionBackend primitives
    # ------------------------------------------------------------------

    def begin_round(self) -> None:
        self.network.stats.begin_round()

    def _absorb(self, list_index: int, response: dict) -> dict:
        bp_score = response.get("bp_score")
        if bp_score is not None:
            self._bp_scores[list_index] = bp_score
        return response

    def sorted_next(self, i: int) -> tuple[ItemId, Score, Position]:
        response = self._absorb(
            i,
            self.network.request(
                self._addresses[i], "sorted_next", self._routed(i)
            ),
        )
        self._cursors[i] += 1
        # The sorted cursor equals the position even when the wire omits
        # it (include_position=False).
        position = response.get("position", self._cursors[i])
        return response["item"], response["score"], position

    def sorted_block(self, i: int, count: int):
        if self.protocol == "entry":
            return [self.sorted_next(i) for _ in range(count)]
        response = self._absorb(
            i,
            self.network.request(
                self._addresses[i],
                "sorted_block",
                self._routed(i, {"count": count}),
            ),
        )
        return self._sorted_block_entries(i, response)

    def _sorted_block_entries(self, i: int, response: dict):
        items, scores = response["items"], response["scores"]
        start = self._cursors[i]
        self._cursors[i] = start + len(items)
        positions = response.get(
            "positions", range(start + 1, start + len(items) + 1)
        )
        return list(zip(items, scores, positions))

    def random_lookup_many(
        self, i: int, items: Sequence[ItemId]
    ) -> list[tuple[Score, Position]]:
        if not items:
            return []
        address = self._addresses[i]
        if self.protocol == "entry":
            results: list[tuple[Score, Position]] = []
            for item in items:
                response = self._absorb(
                    i,
                    self.network.request(
                        address, "random_lookup", self._routed(i, {"item": item})
                    ),
                )
                results.append(
                    (response["score"], response.get("position", 0))
                )
            return results
        response = self._absorb(
            i,
            self.network.request(
                address,
                "random_lookup_many",
                self._routed(i, {"items": list(items)}),
            ),
        )
        return self._lookup_pairs(response, len(items))

    @staticmethod
    def _lookup_pairs(response: dict, count: int):
        positions = response.get("positions", [0] * count)
        return list(zip(response["scores"], positions))

    def direct_step(self, i: int, items: Sequence[ItemId]) -> DirectStep:
        address = self._addresses[i]
        if self.protocol == "entry":
            lookups = [
                score for score, _pos in self.random_lookup_many(i, items)
            ]
            response = self._absorb(
                i, self.network.request(address, "direct_next", self._routed(i))
            )
            if response.get("exhausted"):
                return lookups, None
            return lookups, (response["item"], response["score"])
        response = self._absorb(
            i,
            self.network.request(
                address, "direct_step", self._routed(i, {"items": list(items)})
            ),
        )
        lookups = list(response["scores"])
        if response.get("exhausted"):
            return lookups, None
        return lookups, (response["item"], response["score"])

    def direct_block(
        self, i: int, items: Sequence[ItemId], count: int
    ) -> DirectResult:
        if self.protocol == "entry":
            # Per-entry RPC: each pending lookup and each direct access
            # is its own round trip.  Exhaustion mid-block surfaces as a
            # (free) ``exhausted`` response; after a full block it stays
            # unknown until the next round's first step — the owner-side
            # operations are identical either way.
            return super().direct_block(i, items, count)
        response = self._absorb(
            i,
            self.network.request(
                self._addresses[i],
                "direct_block",
                self._routed(i, {"items": list(items), "count": count}),
            ),
        )
        return self._direct_result_from_block(response)

    @staticmethod
    def _direct_result_from_step(response: dict) -> DirectResult:
        """Parse a ``direct_step`` response (single direct access)."""
        lookups = tuple(response["scores"])
        if response.get("exhausted"):
            return DirectResult(lookups, (), True)
        return DirectResult(
            lookups, ((response["item"], response["score"]),), False
        )

    @staticmethod
    def _direct_result_from_block(response: dict) -> DirectResult:
        """Parse a ``direct_block`` response (up to ``count`` accesses)."""
        return DirectResult(
            tuple(response["scores"]),
            tuple((item, score) for item, score in response["entries"]),
            bool(response.get("exhausted")),
        )

    # ------------------------------------------------------------------
    # Round-plan execution (the pipelined protocol lives here)
    # ------------------------------------------------------------------

    def execute_plan(self, plan: RoundPlan) -> list[OpResult]:
        if plan.new_round:
            self.begin_round()
        if self._coalesce and self.protocol != "entry" and len(plan.ops) >= 2:
            return self._execute_coalesced(plan)
        if self.protocol != "pipelined" or len(plan.ops) < 2:
            return [self.execute_op(op) for op in plan.ops]
        responses = self.network.request_many(
            [self._op_request(op) for op in plan.ops]
        )
        return [
            self._op_absorb(op, response)
            for op, response in zip(plan.ops, responses)
        ]

    def _execute_coalesced(self, plan: RoundPlan) -> list[OpResult]:
        """One frame per *owner*: a wave's ops for co-hosted lists travel
        together as a ``multi`` frame (owners with a single op of the
        wave get the plain op frame, keeping per-kind accounting stable).
        Batch sends the owner frames as sequential round trips, pipelined
        as one overlapped wave — either way the frame count per wave is
        the owner count, not the list count.
        """
        groups = group_ops_by_owner(plan.ops, self.placement.owner_of)
        requests: list[tuple[list[Op], tuple[str, str, dict | None]]] = []
        for owner, ops in groups.items():
            if len(ops) == 1:
                requests.append((ops, self._op_request(ops[0])))
                continue
            sub_ops = []
            for op in ops:
                _address, kind, payload = self._op_request(op)
                sub_ops.append({"kind": kind, "payload": payload or {}})
            requests.append((ops, (f"owner/{owner}", "multi", {"ops": sub_ops})))
        if self.protocol == "pipelined" and len(requests) >= 2:
            responses = self.network.request_many(
                [request for _ops, request in requests]
            )
        else:
            responses = [
                self.network.request(*request) for _ops, request in requests
            ]
        by_list: dict[int, OpResult] = {}
        for (ops, _request), response in zip(requests, responses):
            if len(ops) == 1:
                by_list[ops[0].list_index] = self._op_absorb(ops[0], response)
            else:
                for op, sub_response in zip(ops, response["results"]):
                    by_list[op.list_index] = self._op_absorb(op, sub_response)
        return [by_list[op.list_index] for op in plan.ops]

    def _op_request(self, op: Op) -> tuple[str, str, dict | None]:
        """The batched-protocol wire message for one op."""
        i = op.list_index
        address = self._addresses[i]
        if isinstance(op, SortedFetch):
            if op.count == 1:
                return address, "sorted_next", self._routed(i)
            return address, "sorted_block", self._routed(i, {"count": op.count})
        if isinstance(op, ProbeBatch):
            return (
                address,
                "random_lookup_many",
                self._routed(i, {"items": list(op.items)}),
            )
        if isinstance(op, DirectBlock):
            if op.count == 1:
                return (
                    address,
                    "direct_step",
                    self._routed(i, {"items": list(op.items)}),
                )
            return (
                address,
                "direct_block",
                self._routed(i, {"items": list(op.items), "count": op.count}),
            )
        raise TypeError(f"unknown op type: {type(op).__name__}")

    def _op_absorb(self, op: Op, response: dict) -> OpResult:
        """Parse one op's response (mirrors the sequential paths)."""
        i = op.list_index
        self._absorb(i, response)
        if isinstance(op, SortedFetch):
            if op.count == 1:
                self._cursors[i] += 1
                position = response.get("position", self._cursors[i])
                return SortedResult(
                    ((response["item"], response["score"], position),)
                )
            return SortedResult(
                tuple(self._sorted_block_entries(i, response))
            )
        if isinstance(op, ProbeBatch):
            return ProbeResult(
                tuple(self._lookup_pairs(response, len(op.items)))
            )
        if op.count == 1:
            return self._direct_result_from_step(response)
        return self._direct_result_from_block(response)

    # ------------------------------------------------------------------
    # End-of-query state
    # ------------------------------------------------------------------

    def _fetch_states(self) -> list[dict]:
        if self._states is None:
            self._states = self.network.request_many(
                [
                    (self._addresses[i], "state", self._routed(i))
                    for i in range(self.m)
                ]
            )
        return self._states

    def best_position_scores(self) -> list[Score]:
        return list(self._bp_scores)

    def best_positions(self) -> list[Position]:
        if self.owners is not None:
            return [owner.best_position for owner in self.owners]
        return [state["best_position"] for state in self._fetch_states()]

    def total_tally(self) -> AccessTally:
        if self.owners is not None:
            tally = AccessTally()
            for owner in self.owners:
                tally = tally + owner.accessor.tally
            return tally
        tally = AccessTally()
        for state in self._fetch_states():
            tally = tally + AccessTally(
                sorted=state["sorted"],
                random=state["random"],
                direct=state["direct"],
            )
        return tally
