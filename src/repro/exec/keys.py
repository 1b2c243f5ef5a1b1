"""Queries and their canonical hashable identities.

:class:`QuerySpec` is the one query description every layer passes
around: the batch runner, the service and its planner, workloads and
the standing-query server.  The service cache, the planner's memo and
the execution core all need one notion of query identity — algorithm,
``k``, scoring semantics, algorithm options.  The helpers below
canonicalize those dimensions; they live in the execution core (below
:mod:`repro.service`) so the planner, the result cache and the
snapshot's per-scoring totals memo share them.
:func:`scoring_key` itself lives in :mod:`repro.scoring` (the columnar
storage below this package keys its memo by it) and is re-exported
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping, Set

from repro.scoring import SUM, ScoringFunction, scoring_key


@dataclass(frozen=True)
class QuerySpec:
    """One query: algorithm (by registry name), k, scoring.

    ``options`` are keyword arguments for the algorithm's constructor
    (e.g. ``{"memoize": True}``); non-default options usually disable
    the vectorized kernel and fall back to the generic path.
    """

    algorithm: str = "bpa2"
    k: int = 10
    scoring: ScoringFunction = SUM
    options: Mapping[str, object] = field(default_factory=dict)


def freeze_value(value: Any) -> Hashable:
    """Recursively convert an option value into something hashable."""
    if isinstance(value, Mapping):
        return tuple(
            sorted((str(key), freeze_value(val)) for key, val in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(entry) for entry in value)
    if isinstance(value, Set):
        return tuple(sorted((repr(entry) for entry in value)))
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def normalized_query_key(
    algorithm: str,
    k: int,
    scoring: ScoringFunction,
    options: Mapping[str, object] = (),
) -> tuple:
    """The canonical result-cache key for one query *request*.

    ``algorithm`` is the requested name (``"auto"`` stays ``"auto"``)
    and ``k`` the ``k_fetch`` every plan of the request executes
    (:meth:`repro.service.QueryPlanner.fetch_k`), so the key is known
    before — and without — planning.
    """
    return (
        algorithm,
        k,
        scoring_key(scoring),
        freeze_value(dict(options)),
    )
