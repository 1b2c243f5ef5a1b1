"""Simulated distributed top-k query processing.

The paper argues (Section 6.1, metric 2) that in a distributed system the
number of messages between the query originator and the list owners is
proportional to the number of list accesses, and that BPA2 additionally
avoids shipping seen positions to the originator.  This package makes
those arguments measurable:

* :class:`SimulatedNetwork` — synchronous request/response transport that
  counts messages and payload bytes;
* :class:`ListOwnerNode` — the server side of one list, serving sorted /
  random / direct accesses and (for BPA2) managing its best position
  locally;
* :class:`OwnerDaemon` — one list owner: the nodes of the lists a
  :class:`ClusterPlacement` assigns it (one list per owner by default)
  behind one request protocol, with per-owner ``multi`` frames, NumPy
  gathers over columnar lists and a ``state``-frame metrics endpoint;
* :class:`NetworkBackend` — the coordinator side: it executes the
  round plans of the drivers in :mod:`repro.exec.drivers` as per-entry,
  batched or pipelined messages to the owners;
* :class:`SocketCluster` / :class:`SocketNetwork` — the same owner
  daemons in real OS processes behind length-prefixed binary TCP frames
  (:mod:`repro.distributed.socket_transport`, codec in
  :mod:`repro.distributed.wire`), with ``.bpsn`` warm starts and a
  deadline on every owner connection;
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
