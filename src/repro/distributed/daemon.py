"""Owner daemons: routing, coalesced frames, observability.

Every list owner is one :class:`OwnerDaemon` hosting the lists that
:class:`~repro.distributed.placement.ClusterPlacement` assigned to it,
in the coordinator's process (the simulated network) or in an owner
process of its own (the socket cluster).  It speaks the
:class:`~repro.distributed.nodes.ListOwnerNode` request protocol with
two extensions:

``"list"`` routing field
    Any per-list request may carry ``{"list": i}`` naming the hosted
    global list index.  A daemon hosting exactly one list defaults to
    it, so one-list owners need no routing field on the wire.

``multi`` frames
    ``{"ops": [{"kind": ..., "payload": {..., "list": i}}, ...]}``
    executes the sub-ops in order and answers
    ``{"results": [...]}`` — one frame per owner per round wave
    instead of one per list (the transport's per-owner coalescing).
    A round plan never carries two ops for one list, so in-order
    execution preserves every per-list access stream exactly.

Observability (the ``/metrics`` idiom)
    The daemon counts served ops per kind and reservoir-samples per-op
    service latency (Algorithm R, ``latency_sample_k`` samples).  An
    owner process's socket loop also times every frame it serves in
    three stages, decode, handle and encode, and the daemon sums them
    (``frames`` in the document).  A ``state`` request with
    ``{"metrics": true}`` returns them with p50/p90/p99/max quantiles —
    read it with ``repro-topk cluster stats``.  Metrics frames are
    control-plane and never counted in wire stats.

Each hosted list is served by one :class:`ListOwnerNode`, which answers
every request from the list's plain-list mirrors.  A ``reset`` without
a ``"list"`` field resets every hosted node, ready for the next query.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from typing import Sequence

from repro.distributed.nodes import ListOwnerNode
from repro.errors import ProtocolError

#: Default latency reservoir size (adaptive-hashmap-studio's
#: ``--latency-sample-k`` default neighbourhood).
DEFAULT_LATENCY_SAMPLE_K = 64


class LatencyReservoir:
    """Algorithm-R reservoir of per-op service times (seconds).

    Bounded memory however many ops the daemon serves; every op has an
    equal chance of being in the sample, so the quantiles estimate the
    full service-time distribution, not a recent window.
    """

    def __init__(self, k: int = DEFAULT_LATENCY_SAMPLE_K, *, seed: int = 0x5EED) -> None:
        if k < 1:
            raise ValueError(f"latency sample size must be >= 1, got {k}")
        self._k = k
        self._rng = random.Random(seed)
        self._samples: list[float] = []
        self.count = 0

    def record(self, seconds: float) -> None:
        """Offer one observation to the reservoir."""
        self.count += 1
        if len(self._samples) < self._k:
            self._samples.append(seconds)
            return
        # A uniform slot in [0, count): ``random()`` is one C call, where
        # ``randrange`` costs more than the op it samples.
        slot = int(self._rng.random() * self.count)
        if slot < self._k:
            self._samples[slot] = seconds

    def quantile(self, fraction: float) -> float | None:
        """The sampled ``fraction`` quantile in seconds.

        Pinned edge behavior: ``None`` on an empty reservoir (there is
        no distribution to query — callers must render "no data", not
        crash), and the sample itself on a single-sample reservoir
        (every quantile of a point distribution is that point).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    def quantiles(self) -> dict:
        """Summary of the sampled distribution, in microseconds.

        An empty reservoir reports only zero counts — no quantile keys
        — so renderers must tolerate their absence (a fresh daemon has
        served nothing).
        """
        if not self._samples:
            return {"count": 0, "samples": 0}
        ordered = sorted(self._samples)

        def at(fraction: float) -> float:
            index = min(len(ordered) - 1, int(fraction * len(ordered)))
            return round(ordered[index] * 1e6, 3)

        return {
            "count": self.count,
            "samples": len(ordered),
            "p50_us": at(0.50),
            "p90_us": at(0.90),
            "p99_us": at(0.99),
            "max_us": round(ordered[-1] * 1e6, 3),
        }


class OwnerDaemon:
    """One owner process's brain: its hosted lists behind one protocol.

    Args:
        lists: the sorted lists this owner hosts, aligned with
            ``list_indices`` (their global indices in the database).
        tracker / include_position: forwarded to every hosted node.
        latency_sample_k: reservoir size for the latency quantiles.
    """

    def __init__(
        self,
        lists: Sequence,
        *,
        list_indices: Sequence[int],
        tracker: str = "bitarray",
        include_position: bool = False,
        latency_sample_k: int = DEFAULT_LATENCY_SAMPLE_K,
    ) -> None:
        if len(lists) != len(list_indices) or not lists:
            raise ValueError("lists and list_indices must align and be non-empty")
        self._nodes: dict[int, ListOwnerNode] = {
            index: ListOwnerNode(
                sorted_list, tracker=tracker, include_position=include_position
            )
            for index, sorted_list in zip(list_indices, lists)
        }
        self._sole = list_indices[0] if len(list_indices) == 1 else None
        self.op_counts: Counter = Counter()
        self.latency = LatencyReservoir(latency_sample_k)
        # Per hosted list: op count and summed service seconds — the
        # latency *mass* feedback-driven placement rebalancing needs.
        self.list_ops: Counter = Counter()
        self.list_seconds: dict[int, float] = {
            index: 0.0 for index in list_indices
        }
        #: frames the owner process's socket loop served, and their
        #: summed decode, handle and encode seconds
        self.frames = 0
        self.frame_seconds = {"decode": 0.0, "handle": 0.0, "encode": 0.0}

    @property
    def hosted(self) -> tuple[int, ...]:
        """Global indices of the hosted lists, ascending."""
        return tuple(sorted(self._nodes))

    def node_for(self, index: int) -> ListOwnerNode:
        """The node serving global list ``index``."""
        node = self._nodes.get(index)
        if node is None:
            raise ProtocolError(
                f"list {index} is not hosted here (hosted: {self.hosted})"
            )
        return node

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def handle(self, kind: str, payload: dict) -> dict:
        """Serve one frame (single op, ``multi``, metrics, or reset)."""
        payload = payload or {}
        if kind == "multi":
            self.op_counts["multi"] += 1
            return {
                "results": [
                    self._dispatch(op.get("kind"), op.get("payload") or {})
                    for op in payload["ops"]
                ]
            }
        return self._dispatch(kind, payload)

    def _dispatch(self, kind: str, payload: dict) -> dict:
        if kind == "state" and payload.get("metrics"):
            return self.metrics()
        if kind == "reset" and "list" not in payload:
            for node in self._nodes.values():
                node.reset()
            self.op_counts["reset"] += 1
            return {}
        index, node = self._route(payload)
        started = time.perf_counter()
        response = node.handle(kind, payload)
        elapsed = time.perf_counter() - started
        self.latency.record(elapsed)
        self.op_counts[kind] += 1
        self.list_ops[index] += 1
        self.list_seconds[index] += elapsed
        return response

    def _route(self, payload: dict) -> tuple[int, ListOwnerNode]:
        # Read, don't pop: payloads are sized for byte accounting after
        # dispatch, and nodes ignore the routing field.
        index = payload.get("list", self._sole)
        if index is None:
            raise ProtocolError(
                f"multi-list owner needs a 'list' field (hosted: {self.hosted})"
            )
        return index, self.node_for(index)

    def record_frame(self, decode: float, handle: float, encode: float) -> None:
        """Account one frame the socket loop served, in seconds per stage."""
        self.frames += 1
        seconds = self.frame_seconds
        seconds["decode"] += decode
        seconds["handle"] += handle
        seconds["encode"] += encode

    def metrics(self) -> dict:
        """The stats endpoint: per-kind op counts + latency quantiles.

        ``per_list`` reports every hosted list (zero-op lists included,
        so a rebalancer sees the whole hosted set, not just the hot
        part): op count and summed service seconds — the observed
        latency mass :func:`repro.distributed.placement.rebalance_placement`
        balances across owners.  ``frames`` reports the frames served
        before this one and their summed decode, handle and encode
        seconds (all zero unless a socket loop serves the daemon).
        """
        return {
            "frames": {
                "count": self.frames,
                **{
                    f"{stage}_seconds": seconds
                    for stage, seconds in self.frame_seconds.items()
                },
            },
            "lists": list(self.hosted),
            "ops": dict(self.op_counts),
            "latency": self.latency.quantiles(),
            "per_list": {
                str(index): {
                    "ops": int(self.list_ops.get(index, 0)),
                    "seconds": float(self.list_seconds.get(index, 0.0)),
                }
                for index in self.hosted
            },
        }
