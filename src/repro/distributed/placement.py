"""List-to-owner placement for multi-tenant clusters.

The socket transport originally spawned one owner process per list, so
every round paid ``m`` frame round trips even though a round plan never
carries two ops for the same list.  :class:`ClusterPlacement` assigns
the ``m`` lists to a configurable number of owner processes; the
transport then coalesces each round's ops into **one frame per owner**
(see :meth:`NetworkBackend.execute_plan`), an m-fold frame reduction
when all lists share one owner.

Placement strategies
--------------------
``contiguous`` (default)
    Balanced adjacent chunks: lists ``0..m-1`` are split into ``owners``
    runs of near-equal length.  Round plans fan out over *all* lists
    simultaneously (TA/BPA sorted waves and probe waves touch every
    list), so any balanced partition coalesces equally well; contiguous
    runs additionally keep neighbouring list ids — which generators and
    snapshots lay out adjacently — in one process.
``striped``
    Round-robin: list ``i`` goes to owner ``i % owners``.  Useful when
    list sizes or temperatures correlate with position so adjacent runs
    would concentrate load.
``rebalanced``
    Produced by :func:`rebalance_placement` from *observed* per-list
    latency mass (the per-owner metrics endpoint's ``per_list``
    section): LPT greedy packing that balances measured service
    seconds — not list count — across owners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

STRATEGIES = ("contiguous", "striped")


@dataclass(frozen=True)
class ClusterPlacement:
    """An assignment of ``m`` lists onto owner processes.

    ``groups[o]`` is the tuple of global list indices hosted by owner
    ``o``; together the groups partition ``range(m)``.  Build one with
    :meth:`build` rather than the constructor unless reloading a
    serialized placement.
    """

    m: int
    groups: tuple[tuple[int, ...], ...]
    strategy: str = "contiguous"

    def __post_init__(self) -> None:
        flat = sorted(index for group in self.groups for index in group)
        if flat != list(range(self.m)):
            raise ValueError(
                f"groups {self.groups} do not partition range({self.m})"
            )
        if any(not group for group in self.groups):
            raise ValueError("placement has an owner with no lists")

    @classmethod
    def build(
        cls,
        m: int,
        *,
        owners: int | None = None,
        strategy: str = "contiguous",
    ) -> "ClusterPlacement":
        """Place ``m`` lists on ``owners`` processes (default: one each).

        ``owners`` of ``None`` or ``0`` places one list per owner;
        larger than ``m`` is clamped to ``m``.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown placement strategy {strategy!r}; pick from {STRATEGIES}"
            )
        if not owners:
            owners = m
        if owners < 0:
            raise ValueError(f"owners must be >= 0, got {owners}")
        owners = min(owners, m)
        if strategy == "striped":
            groups = tuple(
                tuple(range(o, m, owners)) for o in range(owners)
            )
        else:
            base, extra = divmod(m, owners)
            groups, start = [], 0
            for o in range(owners):
                size = base + (1 if o < extra else 0)
                groups.append(tuple(range(start, start + size)))
                start += size
            groups = tuple(groups)
        return cls(m=m, groups=groups, strategy=strategy)

    @property
    def owners(self) -> int:
        """Number of owner processes."""
        return len(self.groups)

    @cached_property
    def owner_of(self) -> tuple[int, ...]:
        """``owner_of[i]`` is the owner hosting list ``i``."""
        mapping = [0] * self.m
        for owner, group in enumerate(self.groups):
            for index in group:
                mapping[index] = owner
        return tuple(mapping)

    @property
    def max_group(self) -> int:
        """Largest number of co-located lists on any owner."""
        return max(len(group) for group in self.groups)

    def to_dict(self) -> dict:
        """JSON-serializable form (cluster spec files)."""
        return {
            "m": self.m,
            "strategy": self.strategy,
            "groups": [list(group) for group in self.groups],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterPlacement":
        return cls(
            m=int(data["m"]),
            groups=tuple(tuple(int(i) for i in group) for group in data["groups"]),
            strategy=str(data.get("strategy", "contiguous")),
        )


def list_masses(metrics: Iterable[Mapping]) -> dict[int, float]:
    """Fold per-owner metrics documents into per-list latency mass.

    ``metrics`` is an iterable of :meth:`OwnerDaemon.metrics` payloads
    (one per owner).  Lists that served no ops contribute mass ``0.0``
    but stay in the result, so the rebalancer places the whole hosted
    set.  Falls back to op *counts* as the mass when a document carries
    no timing (an owner that never measured).
    """
    masses: dict[int, float] = {}
    for document in metrics:
        per_list = document.get("per_list") or {}
        for key, cell in per_list.items():
            index = int(key)
            seconds = float(cell.get("seconds", 0.0))
            if seconds <= 0.0 and cell.get("ops"):
                # Timing-free documents: weight by op count instead
                # (scaled down so real seconds always dominate).
                seconds = float(cell["ops"]) * 1e-9
            masses[index] = masses.get(index, 0.0) + seconds
        for index in document.get("lists") or ():
            masses.setdefault(int(index), 0.0)
    return masses


def rebalance_placement(
    stats: Mapping[int, float] | Iterable[Mapping],
    *,
    owners: int | None = None,
) -> ClusterPlacement:
    """Propose a placement balancing *observed* latency mass per owner.

    ``stats`` is either a ``{list_index: mass}`` mapping (seconds of
    observed service time per list) or an iterable of per-owner
    :meth:`OwnerDaemon.metrics` documents, in which case ``owners``
    defaults to the number of documents.  Pure function: no transport
    is touched — callers decide whether to apply the proposal.

    LPT greedy: lists in descending mass order, each onto the owner
    with the least accumulated mass (ties broken by fewest assigned
    lists, then owner index), so a zero-signal input degrades to plain
    count-balanced assignment and no owner is ever left empty while
    ``owners <= m``.
    """
    if isinstance(stats, Mapping):
        masses = {int(index): float(mass) for index, mass in stats.items()}
        if owners is None:
            raise ValueError(
                "owners is required when stats is a plain mass mapping"
            )
    else:
        documents = list(stats)
        masses = list_masses(documents)
        if owners is None:
            owners = len(documents)
    if not masses:
        raise ValueError("no per-list statistics to rebalance from")
    indices = sorted(masses)
    m = len(indices)
    if indices != list(range(m)):
        raise ValueError(
            f"per-list statistics must cover every list 0..{m - 1}, "
            f"got {indices}"
        )
    if owners < 1:
        raise ValueError(f"owners must be >= 1, got {owners}")
    owners = min(owners, m)
    loads = [0.0] * owners
    counts = [0] * owners
    groups: list[list[int]] = [[] for _ in range(owners)]
    for index in sorted(indices, key=lambda i: (-masses[i], i)):
        target = min(
            range(owners), key=lambda o: (loads[o], counts[o], o)
        )
        groups[target].append(index)
        loads[target] += masses[index]
        counts[target] += 1
    return ClusterPlacement(
        m=m,
        groups=tuple(tuple(sorted(group)) for group in groups),
        strategy="rebalanced",
    )


def placement_balance(
    placement: ClusterPlacement, masses: Mapping[int, float]
) -> dict:
    """How evenly a placement spreads the observed latency mass.

    Returns per-owner masses plus the max/mean imbalance ratio, where
    1.0 is perfect.  A zero-mass mean (nothing observed yet) reports
    imbalance 1.0 — vacuously balanced, never a division by zero — and
    a single-owner placement is 1.0 by construction; callers gate
    rebalancing proposals on ``total_mass`` and owner count rather
    than on this ratio alone.
    """
    per_owner = [
        sum(float(masses.get(index, 0.0)) for index in group)
        for group in placement.groups
    ]
    total = sum(per_owner)
    mean = total / len(per_owner) if per_owner else 0.0
    return {
        "per_owner_mass": per_owner,
        "total_mass": total,
        "imbalance": (max(per_owner) / mean) if mean > 0 else 1.0,
    }
