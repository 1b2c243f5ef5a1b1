"""Simulated distributed top-k query processing.

The paper argues (Section 6.1, metric 2) that in a distributed system the
number of messages between the query originator and the list owners is
proportional to the number of list accesses, and that BPA2 additionally
avoids shipping seen positions to the originator.  This package makes
those arguments measurable:

* :class:`SimulatedNetwork` — synchronous request/response transport that
  counts messages and payload bytes;
* :class:`ListOwnerNode` — one node per list, serving sorted / random /
  direct accesses and (for BPA2) managing its best position locally;
* :class:`NetworkBackend` — the network as one
  :class:`repro.exec.ExecutionBackend` transport (per-entry, batched or
  pipelined wire protocol) for the round-plan drivers in
  :mod:`repro.exec.drivers`;
* :class:`SocketCluster` / :class:`SocketNetwork` — the same owner
  protocol served by real OS processes over length-prefixed TCP framing
  (:mod:`repro.distributed.socket_transport`), multi-tenant since
  :class:`ClusterPlacement` assigns lists to a configurable number of
  :class:`OwnerDaemon` processes (per-owner frame coalescing, NumPy
  gathers over columnar lists, ``.bpsn`` warm starts and a
  ``state``-frame metrics endpoint);
* coordinator-side drivers: :class:`DistributedTA`,
  :class:`DistributedBPA`, :class:`DistributedBPA2` (thin transport
  wrappers over the unified core) and the related-work baseline
  :class:`DistributedTPUT` (Cao & Wang, PODC 2004).

All drivers return a :class:`repro.types.TopKResult` whose ``extras``
carry a :class:`NetworkStats` snapshot.
"""

from repro.distributed.daemon import LatencyReservoir, OwnerDaemon
from repro.distributed.network import NetworkStats, SimulatedNetwork
from repro.distributed.nodes import ListOwnerNode
from repro.distributed.placement import ClusterPlacement
from repro.distributed.transport import NetworkBackend
from repro.distributed.socket_transport import (
    SocketCluster,
    SocketNetwork,
    connect_ports,
)
from repro.distributed.algorithms import (
    DistributedBPA,
    DistributedBPA2,
    DistributedTA,
)
from repro.distributed.tput import DistributedTPUT

__all__ = [
    "SimulatedNetwork",
    "NetworkStats",
    "NetworkBackend",
    "SocketCluster",
    "SocketNetwork",
    "connect_ports",
    "ClusterPlacement",
    "OwnerDaemon",
    "LatencyReservoir",
    "ListOwnerNode",
    "DistributedTA",
    "DistributedBPA",
    "DistributedBPA2",
    "DistributedTPUT",
]
