"""The verified client behind ``repro serve-workload --cluster-spec``.

:func:`hammer_cluster` connects to owner daemons that another process
spawned (``repro cluster serve --spec-out``) and runs a small grid of
queries over them.  With ``verify`` every answer, items *and* access
tallies, is checked against the reference single-node algorithm on the
snapshot the cluster serves: the cross-process analogue of the
multi-tenant differential suite.
"""

from __future__ import annotations

import time

from repro.algorithms.base import get_algorithm
from repro.distributed.placement import ClusterPlacement
from repro.distributed.socket_transport import connect_ports
from repro.distributed.transport import NetworkBackend
from repro.exec.drivers import DRIVERS as _ENGINE_DRIVERS
from repro.scoring import SUM


def hammer_cluster(
    spec: dict,
    *,
    ks: tuple[int, ...] = (5, 10, 20),
    algorithms: tuple[str, ...] | None = None,
    protocol: str = "pipelined",
    verify: bool = True,
    timeout: float = 10.0,
) -> dict:
    """Run verified queries against a cluster another process spawned.

    ``spec`` is the JSON document ``repro cluster serve --spec-out``
    writes: owner ports, the placement, ``m``/``n`` and the snapshot
    path.  With ``verify`` the snapshot is loaded locally and every
    answer (items *and* access tallies) is checked against the
    reference single-node algorithm — the cross-process analogue of the
    differential suite.
    """
    placement = ClusterPlacement.from_dict(spec["placement"])
    m, n = int(spec["m"]), int(spec["n"])
    include_position = bool(spec.get("include_position", False))
    if algorithms is None:
        algorithms = ("bpa",) if include_position else ("ta", "bpa2")
    reference_db = None
    if verify:
        from repro.storage.snapshot import load_snapshot

        reference_db, _epoch = load_snapshot(spec["snapshot"])
    rows: list[dict] = []
    failures = 0
    with connect_ports(spec["ports"], timeout=timeout) as fabric:
        for name in algorithms:
            for k in ks:
                k_eff = max(1, min(k, n))
                for owner in range(placement.owners):
                    fabric.request(f"owner/{owner}", "reset")
                fabric.reset_stats()
                backend = NetworkBackend.remote(
                    fabric,
                    m=m,
                    n=n,
                    include_position=include_position,
                    protocol=protocol,
                    placement=placement,
                )
                started = time.perf_counter()
                outcome = _ENGINE_DRIVERS[name](backend, k_eff, SUM)
                seconds = time.perf_counter() - started
                row = {
                    "algorithm": name,
                    "k": k_eff,
                    "items": len(outcome.items),
                    "seconds": seconds,
                    "messages": fabric.stats.messages,
                    "bytes": fabric.stats.bytes,
                }
                if reference_db is not None:
                    reference = get_algorithm(name).run(reference_db, k_eff, SUM)
                    ok = (
                        outcome.items == reference.items
                        and backend.total_tally() == reference.tally
                    )
                    row["verified"] = ok
                    failures += 0 if ok else 1
                rows.append(row)
    return {
        "protocol": protocol,
        "owners": placement.owners,
        "queries": len(rows),
        "failures": failures,
        "verified": bool(verify) and failures == 0,
        "rows": rows,
    }
