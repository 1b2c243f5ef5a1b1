"""Coordinator-side drivers for distributed TA, BPA and BPA2.

Since the unified execution core (:mod:`repro.exec`) these classes are
thin transport wrappers: the algorithm logic lives once in the round
planners of :mod:`repro.exec.drivers`, and each driver here chooses how
the plans are served —

* ``transport="simulated"`` (default): in-process :class:`OwnerDaemon`
  owners (one list each, or ``owners`` of them sharing the lists)
  behind a :class:`SimulatedNetwork`, with per-round message/byte
  accounting in ``extras["network"]``.  ``protocol="entry"`` is the
  paper's per-entry RPC (one round trip per access);
  ``protocol="batch"`` coalesces a round's lookups per owner into
  single messages; ``protocol="pipelined"`` ships the batched messages
  as overlapped waves (identical counts — see
  :mod:`repro.distributed.transport`);
* ``transport="socket"``: the same owners in **separate OS processes**
  behind length-prefixed TCP framing
  (:mod:`repro.distributed.socket_transport`); byte counters measure
  real frames, and ``protocol="pipelined"`` genuinely overlaps the
  round trips.

Both run the planners over owners; single-node queries, every
:class:`repro.service.QueryService` query included, run the vectorized
kernels (:func:`repro.exec.run.execute_query`) instead.  The
differential suites prove every transport and protocol bit-identical
to the reference single-node algorithms.

An int ``block_width > 1`` switches every transport to the block
planners (``ta-block`` / ``bpa-block`` / ``bpa2-block``): one sorted or
direct block of that fixed width per list per round, deduplicated
probes — the middleware cost profile of :mod:`repro.algorithms.block`,
whose reference implementations the differential suite matches bit for
bit.
"""

from __future__ import annotations

from repro.distributed.placement import (
    STRATEGIES as PLACEMENT_STRATEGIES,
    ClusterPlacement,
)
from repro.distributed.transport import PROTOCOLS, NetworkBackend
from repro.errors import InvalidQueryError
from repro.exec.drivers import (
    DriverOutcome,
    run_bpa,
    run_bpa2,
    run_bpa2_block,
    run_bpa_block,
    run_ta,
    run_ta_block,
)
from repro.lists.accessor import DatabaseLike
from repro.scoring import SUM, ScoringFunction
from repro.types import TopKResult

TRANSPORTS = ("simulated", "socket")


class _DistributedDriver:
    """Shared plumbing: backend setup, result packaging."""

    name: str = "distributed"
    include_position: bool = False

    def __init__(
        self,
        *,
        tracker: str = "bitarray",
        protocol: str = "entry",
        transport: str = "simulated",
        block_width: int = 1,
        owners: int | None = None,
        placement: str = "contiguous",
    ) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}"
            )
        if block_width < 1:
            raise ValueError(f"block_width must be >= 1, got {block_width}")
        if placement not in PLACEMENT_STRATEGIES:
            raise ValueError(
                f"unknown placement {placement!r}; "
                f"expected one of {PLACEMENT_STRATEGIES}"
            )
        if owners is not None and owners < 0:
            raise ValueError(f"owners must be >= 0, got {owners}")
        self._tracker_kind = tracker
        self._protocol = protocol
        self._transport = transport
        self._block_width = block_width
        self._owners = owners
        self._placement = placement

    def run(
        self, database: DatabaseLike, k: int, scoring: ScoringFunction = SUM
    ) -> TopKResult:
        """Execute the query over a fresh deployment of the transport."""
        if not 1 <= k <= database.n:
            raise InvalidQueryError(f"k must be in 1..{database.n}, got {k}")
        if self._transport == "socket":
            from repro.distributed.socket_transport import SocketCluster

            with SocketCluster(
                database,
                owners=self._owners,
                placement=self._placement,
                tracker=self._tracker_kind,
                include_position=self.include_position,
            ) as cluster, cluster.connect() as fabric:
                backend = NetworkBackend.remote(
                    fabric,
                    m=cluster.m,
                    n=cluster.n,
                    include_position=self.include_position,
                    protocol=self._protocol,
                    placement=cluster.placement,
                )
                outcome = self._drive(backend, k, scoring)
                tally = backend.total_tally()
                extras = {
                    "network": fabric.stats.snapshot(),
                    "protocol": self._protocol,
                    "transport": "socket",
                    "owners": cluster.placement.owners,
                }
        else:
            backend = NetworkBackend(
                database,
                tracker=self._tracker_kind,
                include_position=self.include_position,
                protocol=self._protocol,
                placement=ClusterPlacement.build(
                    database.m, owners=self._owners, strategy=self._placement
                ),
            )
            outcome = self._drive(backend, k, scoring)
            tally = backend.total_tally()
            extras = {
                "network": backend.network.stats.snapshot(),
                "protocol": self._protocol,
            }
            if self._owners is not None:
                extras["owners"] = backend.placement.owners
        if self._block_width > 1:
            extras["block_width"] = self._block_width
        return TopKResult(
            items=outcome.items,
            tally=tally,
            rounds=outcome.rounds,
            stop_position=outcome.stop_position,
            algorithm=self.name,
            extras=extras,
        )

    def _drive(self, backend, k, scoring) -> DriverOutcome:
        raise NotImplementedError

    @property
    def _blocked(self) -> bool:
        """Whether to run the block planners (width > 1)."""
        return self._block_width > 1


class DistributedTA(_DistributedDriver):
    """TA over the chosen transport: one round trip per access."""

    name = "dist-ta"
    include_position = False

    def _drive(self, backend, k, scoring):
        if self._blocked:
            return run_ta_block(backend, k, scoring, width=self._block_width)
        return run_ta(backend, k, scoring)


class DistributedBPA(_DistributedDriver):
    """BPA over the chosen transport: positions travel to the originator.

    The originator maintains the seen positions and their scores (the
    state BPA2 later pushes down to the owners).
    """

    name = "dist-bpa"
    include_position = True

    def _drive(self, backend, k, scoring):
        if self._blocked:
            return run_bpa_block(
                backend,
                k,
                scoring,
                width=self._block_width,
                tracker=self._tracker_kind,
            )
        return run_bpa(backend, k, scoring, tracker=self._tracker_kind)


class DistributedBPA2(_DistributedDriver):
    """BPA2 over the chosen transport: owners keep the best positions.

    The originator state is exactly what the paper allows it: the set
    ``Y`` and the ``m`` best-position local scores, refreshed from the
    ``bp_score`` piggybacks.
    """

    name = "dist-bpa2"
    include_position = False

    def _drive(self, backend, k, scoring):
        if self._blocked:
            return run_bpa2_block(backend, k, scoring, width=self._block_width)
        return run_bpa2(backend, k, scoring)
