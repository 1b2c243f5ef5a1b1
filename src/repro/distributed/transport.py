"""The coordinator side of the list-owner protocol.

The round-plan drivers in :mod:`repro.exec.drivers` emit plans, and
:class:`NetworkBackend` turns each op into messages to the
:class:`~repro.distributed.daemon.OwnerDaemon` hosting its list:
in process over a :class:`SimulatedNetwork`, or in separate OS
processes over the framed TCP fabric of
:mod:`repro.distributed.socket_transport` (both satisfy the same
:class:`Fabric` interface).  A
:class:`~repro.distributed.placement.ClusterPlacement` assigns lists to
owners, one list per owner by default.

Three wire protocols are supported:

* ``"entry"`` — the per-entry RPC: every access is one
  request/response round trip (``sorted_next``, ``random_lookup``,
  ``direct_next``), so ``messages == 2 * accesses``, matching the
  paper's message-count argument;
* ``"batch"`` — one message per op: a sorted block is one
  ``sorted_block`` message, a list's random lookups of a round one
  ``random_lookup_many``, and BPA2's per-list step (pending lookups +
  direct accesses) one ``direct_step`` / ``direct_block``.  A round
  wave's ops for co-hosted lists travel together as one ``multi`` frame
  per owner, sent as sequential round trips.  Owner-side *operations*
  are identical entry for entry — same metered accesses, same
  best-position walks, same piggyback points — so results and tallies
  are unchanged while messages and bytes drop;
* ``"pipelined"`` — the batched protocol's frames, dispatched as
  overlapped waves: all of a round plan's frames go on the wire before
  any response is read (plans are dependency-free by construction, one
  op per list).  Message and byte counts are *identical* to
  ``"batch"``; on a real socket fabric the sequential round trips
  collapse into one.

Requests to an owner hosting one list carry no ``"list"`` routing
field: its frames are the plain per-list protocol of
:class:`~repro.distributed.nodes.ListOwnerNode`.  Best-position scores
reach the originator only through the owners' piggybacked ``bp_score``
fields, exactly as the paper allows BPA2's coordinator to know them.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.distributed.daemon import OwnerDaemon
from repro.distributed.network import NetworkStats, SimulatedNetwork
from repro.distributed.nodes import ListOwnerNode
from repro.distributed.placement import ClusterPlacement
from repro.exec.plan import (
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

    def request_many(
        self, requests: Sequence[tuple[str, str, dict | None]]
    ) -> list[dict]:
        """A dependency-free batch (overlapped where the fabric can)."""


class NetworkBackend:
    """The round-plan drivers' sources: ``m`` list owners across a fabric.

    The drivers in :mod:`repro.exec.drivers` hand it one
    :class:`~repro.exec.plan.RoundPlan` at a time
    (:meth:`execute_plan`) and read BPA2's best-position state back
    (:meth:`best_position_scores`, :meth:`best_positions`).  Access
    *accounting* happens at the owners — one tally increment per
    semantic access, exactly as the metered accessors count — so driver
    results carry the same tallies as the reference algorithms.

    Args:
        database: any :class:`~repro.lists.accessor.DatabaseLike`; each
            owner group's lists are hosted by one in-process
            :class:`OwnerDaemon` (columnar lists are served natively —
            the owners run the same vectorized storage the service
            uses).  For owners living in other processes, use
            :meth:`remote` instead.
        tracker: best-position structure kind at the owners.
        include_position: ship positions in lookup responses.  BPA needs
            them at the originator (:func:`repro.exec.drivers.run_bpa`
            rejects a backend without them); BPA2 pointedly does not
            ship them — its communication saving.
        protocol: ``"entry"``, ``"batch"`` or ``"pipelined"`` (see
            module docstring).
        network: an existing fabric to attach to (a fresh
            :class:`SimulatedNetwork` when ``None``); owners register
            under ``owner/<owner>``.
        placement: a :class:`ClusterPlacement` assigning lists to
            owners; ``None`` places one list per owner.
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
        self.daemons = [
            OwnerDaemon(
                [database.lists[index] for index in group],
                list_indices=group,
                tracker=tracker,
                include_position=include_position,
            )
            for group in self.placement.groups
        ]
        for owner, daemon in enumerate(self.daemons):
            self.network.register(f"owner/{owner}", daemon)
        owner_of = self.placement.owner_of
        self.owners = [
            self.daemons[owner_of[index]].node_for(index) for index in range(self.m)
        ]

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
        return backend

    def _init_common(
        self,
        *,
        m: int,
        n: int,
        include_position: bool,
        protocol: str,
        placement: ClusterPlacement | None,
    ) -> None:
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}"
            )
        if placement is None:
            placement = ClusterPlacement.build(m)
        elif placement.m != m:
            raise ValueError(
                f"placement covers {placement.m} lists, database has {m}"
            )
        self.m = m
        self.n = n
        self.include_position = include_position
        self.protocol = protocol
        self.placement = placement
        #: in-process owner nodes by list, peeked at for end-of-query
        #: state (``None`` for remote owners, read through ``state``).
        self.owners: list[ListOwnerNode] | None = None
        owner_of = placement.owner_of
        self._addresses = [f"owner/{owner_of[index]}" for index in range(m)]
        # A one-list owner defaults the routing: its frames carry no
        # "list" field.
        self._needs_list = [
            len(placement.groups[owner_of[index]]) > 1 for index in range(m)
        ]
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

    def _absorb(self, list_index: int, response: dict) -> dict:
        bp_score = response.get("bp_score")
        if bp_score is not None:
            self._bp_scores[list_index] = bp_score
        return response

    def _sorted_entry(
        self, i: int, response: dict
    ) -> tuple[ItemId, Score, Position]:
        """One ``sorted_next`` answer; the client-side cursor supplies
        the position when the wire omits it (include_position=False)."""
        self._cursors[i] += 1
        position = response.get("position", self._cursors[i])
        return response["item"], response["score"], position

    # ------------------------------------------------------------------
    # Round-plan execution
    # ------------------------------------------------------------------

    def execute_plan(self, plan: RoundPlan) -> list[OpResult]:
        """Execute one round plan; results align with ``plan.ops``.

        Under ``entry`` every access of every op is its own round trip,
        op by op.  Otherwise each op becomes one request
        (:meth:`_op_request`); an owner hosting several of the plan's
        lists gets them as one ``multi`` frame, every other owner the
        plain op frame (keeping per-kind accounting stable), so a wave
        costs one frame per owner, not per list.  ``batch`` sends the
        frames as sequential round trips, ``pipelined`` as one
        overlapped wave, and :meth:`_op_absorb` parses every answer.
        """
        if plan.new_round:
            self.network.stats.begin_round()
        if self.protocol == "entry":
            return [self._entry_op(op) for op in plan.ops]
        groups = group_ops_by_owner(plan.ops, self.placement.owner_of)
        frames: list[tuple[str, str, dict | None]] = []
        for owner, ops in groups.items():
            if len(ops) == 1:
                frames.append(self._op_request(ops[0]))
                continue
            sub_ops = []
            for op in ops:
                _address, kind, payload = self._op_request(op)
                sub_ops.append({"kind": kind, "payload": payload or {}})
            frames.append((f"owner/{owner}", "multi", {"ops": sub_ops}))
        if self.protocol == "pipelined":
            responses = self.network.request_many(frames)
        else:
            responses = [self.network.request(*frame) for frame in frames]
        by_list: dict[int, OpResult] = {}
        for ops, response in zip(groups.values(), responses):
            answers = response["results"] if len(ops) > 1 else (response,)
            for op, answer in zip(ops, answers):
                by_list[op.list_index] = self._op_absorb(op, answer)
        return [by_list[op.list_index] for op in plan.ops]

    def _entry_op(self, op: Op) -> OpResult:
        """Per-entry RPC: each access of ``op`` is its own round trip.

        A direct block stops at the first ``exhausted`` answer (a free
        probe, counted as a message); after a full block exhaustion
        stays unknown until the list's next step.  The owner-side
        operations equal the batched protocol's either way.
        """
        i = op.list_index
        address = self._addresses[i]

        def access(kind: str, payload: dict | None = None) -> dict:
            response = self.network.request(address, kind, self._routed(i, payload))
            return self._absorb(i, response)

        if isinstance(op, SortedFetch):
            return SortedResult(
                tuple(
                    [
                        self._sorted_entry(i, access("sorted_next"))
                        for _ in range(op.count)
                    ]
                )
            )
        lookups = [access("random_lookup", {"item": item}) for item in op.items]
        if isinstance(op, ProbeBatch):
            return ProbeResult(
                tuple([(r["score"], r.get("position", 0)) for r in lookups])
            )
        scores = tuple([response["score"] for response in lookups])
        entries: list[tuple[ItemId, Score]] = []
        for _ in range(op.count):
            response = access("direct_next")
            if response.get("exhausted"):
                return DirectResult(scores, tuple(entries), True)
            entries.append((response["item"], response["score"]))
        return DirectResult(scores, tuple(entries), False)

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

    def _op_absorb(self, op: Op, response: dict) -> OpResult:
        """Parse one op's batched-protocol response."""
        i = op.list_index
        self._absorb(i, response)
        if isinstance(op, SortedFetch):
            if op.count == 1:
                return SortedResult((self._sorted_entry(i, response),))
            items, scores = response["items"], response["scores"]
            start = self._cursors[i]
            self._cursors[i] = start + len(items)
            positions = response.get(
                "positions", range(start + 1, start + len(items) + 1)
            )
            return SortedResult(tuple(list(zip(items, scores, positions))))
        if isinstance(op, ProbeBatch):
            positions = response.get("positions", [0] * len(op.items))
            return ProbeResult(tuple(list(zip(response["scores"], positions))))
        lookups = tuple(response["scores"])
        if op.count > 1:
            return DirectResult(
                lookups,
                tuple([(item, score) for item, score in response["entries"]]),
                bool(response.get("exhausted")),
            )
        if response.get("exhausted"):
            return DirectResult(lookups, (), True)
        return DirectResult(
            lookups, ((response["item"], response["score"]),), False
        )

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
        """Local score at each list's best position (``inf`` while 0),
        as learned from the owners' piggybacked updates — the
        originator's inputs to BPA2's ``lambda``."""
        return list(self._bp_scores)

    def best_positions(self) -> list[Position]:
        """Each list's current best position (0 before any access)."""
        if self.owners is not None:
            return [owner.best_position for owner in self.owners]
        return [state["best_position"] for state in self._fetch_states()]

    def total_tally(self) -> AccessTally:
        """Accesses performed so far, summed over the lists."""
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
