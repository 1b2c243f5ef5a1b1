"""Kernel-or-reference execution of one query on one database.

:func:`execute_query` is the single-database step every higher layer
shares: the shard executor runs it per shard (locally or inside a
pinned worker process), the batch runner per query, and the service's
async front-end runs it on worker threads.  It dispatches to the exact
vectorized columnar kernel when the algorithm configuration has one,
falling back to the reference implementation through the metered
accessors — either way the results are identical
(``tests/differential/`` proves it).
"""

from __future__ import annotations

from typing import Mapping

from repro.algorithms.base import get_algorithm
from repro.columnar import ColumnarDatabase, QueryContext, get_kernel
from repro.scoring import ScoringFunction
from repro.types import TopKResult


def execute_query(
    database: ColumnarDatabase,
    algorithm: str,
    options: Mapping[str, object],
    k: int,
    scoring: ScoringFunction,
) -> TopKResult:
    """Run one query on one database, through the kernel when one exists.

    The :class:`QueryContext` is built per execution: it is O(1), and
    the per-scoring state worth keeping — the row totals — lives in the
    snapshot's memo (:meth:`ColumnarDatabase.totals_memo`), shared by
    every query with the same scoring semantics.
    """
    instance = get_algorithm(algorithm, **dict(options))
    kernel_name = instance.fast_kernel()
    if kernel_name is None:
        return instance.run(database, k, scoring)
    return get_kernel(kernel_name)(QueryContext(database, scoring), k, scoring)
