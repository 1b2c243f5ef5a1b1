"""Batched query execution over either storage backend.

The monitoring framing (many standing top-k queries over one shared
database) makes *batch throughput* the metric that matters at scale: the
per-database work — canonical ordering, item→position matrices — is paid
once, a row's overall score at most once per scoring, and each query
replays only its own access sequence.  :class:`BatchRunner` implements that:

* backend ``"python"`` — the reference algorithms on the pure-Python
  :class:`repro.lists.database.Database`;
* backend ``"columnar"`` — a :class:`repro.columnar.ColumnarDatabase`,
  queried through :func:`repro.exec.run.execute_query`: configurations
  with an exact vectorized kernel (``TopKAlgorithm.fast_kernel()``) run
  it, reading per-item overall scores from the database's totals memo
  shared by every query with the same scoring semantics; everything else
  runs the reference algorithm against columnar storage through the
  metered accessors.

Either way the results are identical — same ranked answers, same access
tallies; ``tests/differential/test_backend_equivalence.py`` holds the
two backends to that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.algorithms.base import get_algorithm
from repro.columnar import ColumnarDatabase
from repro.exec.keys import QuerySpec
from repro.exec.run import execute_query
from repro.lists.database import Database
from repro.scoring import SUM, ScoringFunction
from repro.types import TopKResult


@dataclass
class BatchReport:
    """Outcome of one batch run."""

    backend: str
    results: list[TopKResult]
    seconds: float
    kernel_queries: int  # how many queries ran through a vectorized kernel

    @property
    def queries(self) -> int:
        """Number of executed queries."""
        return len(self.results)

    @property
    def queries_per_second(self) -> float:
        """Batch throughput (0.0 for an empty batch, not 0/0)."""
        if not self.results:
            return 0.0
        return self.queries / self.seconds if self.seconds > 0 else float("inf")


class BatchRunner:
    """Executes many queries over one database on a chosen backend.

    Args:
        database: either backend's database; converted as needed
            (conversion happens once, before timing starts).
        backend: ``"columnar"`` (default) or ``"python"``.
    """

    def __init__(
        self,
        database: Database | ColumnarDatabase,
        *,
        backend: str = "columnar",
    ) -> None:
        if backend not in ("python", "columnar"):
            raise ValueError(f"unknown backend {backend!r}")
        self._backend = backend
        if backend == "columnar":
            self._database = (
                database
                if isinstance(database, ColumnarDatabase)
                else ColumnarDatabase.from_database(database)
            )
        else:
            self._database = (
                database.to_database()
                if isinstance(database, ColumnarDatabase)
                else database
            )

    @property
    def backend(self) -> str:
        """Which backend this runner executes on."""
        return self._backend

    @property
    def database(self) -> Database | ColumnarDatabase:
        """The (possibly converted) database queries run against."""
        return self._database

    def run_one(self, spec: QuerySpec) -> tuple[TopKResult, bool]:
        """Execute one query; returns (result, used_vectorized_kernel).

        A ``k`` larger than the database is clamped to ``n`` — a batch
        driver serves whatever specs the workload hands it, and "all
        items, ranked" is the only sensible answer to an over-ask.
        ``k < 1`` still raises :class:`repro.errors.InvalidQueryError`.
        """
        k = min(spec.k, self._database.n)
        algorithm = get_algorithm(spec.algorithm, **dict(spec.options))
        if self._backend == "python":
            return algorithm.run(self._database, k, spec.scoring), False
        result = execute_query(
            self._database, spec.algorithm, spec.options, k, spec.scoring
        )
        return result, algorithm.fast_kernel() is not None

    def run(self, queries: Sequence[QuerySpec]) -> BatchReport:
        """Execute the batch and time it end to end.

        The timer covers everything a fresh batch pays, including the
        shared per-scoring precomputation — the amortization is the
        point, not an accounting trick.
        """
        results: list[TopKResult] = []
        kernel_queries = 0
        started = time.perf_counter()
        for spec in queries:
            result, used_kernel = self.run_one(spec)
            results.append(result)
            kernel_queries += used_kernel
        seconds = time.perf_counter() - started
        return BatchReport(
            backend=self._backend,
            results=results,
            seconds=seconds,
            kernel_queries=kernel_queries,
        )


def default_query_batch(
    count: int,
    *,
    algorithm: str = "bpa2",
    k_max: int = 20,
    scoring: ScoringFunction = SUM,
) -> list[QuerySpec]:
    """A deterministic mixed-k batch: k cycles over ``1..k_max``."""
    return [
        QuerySpec(algorithm=algorithm, k=(i % k_max) + 1, scoring=scoring)
        for i in range(count)
    ]

