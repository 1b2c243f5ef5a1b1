"""Row-wise sharding of a columnar database with an exact top-k merge.

**Partitioning.**  Items are split into ``S`` disjoint contiguous
id-ranges; each shard is a self-contained :class:`ColumnarDatabase`
(every item keeps its global id and its local scores, each shard list is
re-laid-out canonically).  Partitioning is by *item*, not by position,
so every algorithm runs on a shard unchanged.

**The merge.**  Fan-in goes through the execution core's
certificate-checked exact merge — see :mod:`repro.exec.merge` for the
exactness proof and the threshold-style certificate it verifies on
every merge (:func:`merge_shard_results` is re-exported here).
Per-shard answers must carry exact overall scores, which is why NRA —
whose reported scores are lower *bounds* — is executed unsharded; see
:data:`MERGE_EXACT_ALGORITHMS`.

**Execution pools.**  ``serial`` runs shards inline (deterministic,
zero overhead — the default for tests), ``thread`` uses one shared
``ThreadPoolExecutor`` (useful when a list backend releases the GIL),
``process`` pins one single-worker ``ProcessPoolExecutor`` per shard so
each worker holds its shard's columns (and their per-scoring totals
memos) for its whole life — queries ship only ``(algorithm, k,
scoring)`` over IPC.  ``auto`` picks ``process`` on multi-core hosts and ``serial`` on a
single CPU, where fan-out cannot buy wall-clock time.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Mapping

from repro.columnar import ColumnarDatabase, ColumnarList
from repro.errors import InvalidQueryError
from repro.exec.merge import merge_shard_results
from repro.exec.run import execute_query
from repro.scoring import ScoringFunction
from repro.types import TopKResult

#: Algorithms whose results carry exact overall scores for every
#: returned item — the precondition of the merge proof.  NRA reports
#: lower bounds, so it bypasses sharding and runs on the full database.
MERGE_EXACT_ALGORITHMS = frozenset(
    {"ta", "bpa", "bpa2", "fa", "naive", "qc",
     "ta-block", "bpa-block", "bpa2-block"}
)

__all__ = [
    "MERGE_EXACT_ALGORITHMS",
    "POOL_KINDS",
    "ShardExecutor",
    "merge_shard_results",
    "partition_database",
    "resolve_pool",
]

POOL_KINDS = ("serial", "thread", "process", "auto")


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported).

    The one source of host parallelism for both the pool resolver and
    the planner's shard auto-tuner, so the two cannot disagree.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def resolve_pool(pool: str) -> str:
    """Resolve ``"auto"`` to a concrete pool kind for this host."""
    if pool not in POOL_KINDS:
        raise ValueError(f"unknown pool {pool!r}; expected one of {POOL_KINDS}")
    if pool != "auto":
        return pool
    return "process" if available_cpus() > 1 else "serial"


def partition_database(
    database: ColumnarDatabase, shards: int
) -> list[ColumnarDatabase]:
    """Split a database into ``shards`` disjoint item-range shards.

    The shard count is clamped so every shard holds at least one item.
    Shard boundaries follow ascending item id (``uids_array`` order);
    each shard's lists are rebuilt in the canonical layout from slices
    of the full score matrix.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    n = database.n
    effective = max(1, min(shards, n))
    if effective == 1:
        return [database]
    uids = database.uids_array
    matrix = database.score_matrix()
    result: list[ColumnarDatabase] = []
    for index in range(effective):
        low = index * n // effective
        high = (index + 1) * n // effective
        ids = uids[low:high]
        lists = [
            ColumnarList.from_arrays(
                ids, matrix[i, low:high], name=database.lists[i].name
            )
            for i in range(database.m)
        ]
        result.append(ColumnarDatabase(lists))
    return result


# ----------------------------------------------------------------------
# Process-pool worker state: one shard database per dedicated worker.
# ----------------------------------------------------------------------

_WORKER_DATABASE: ColumnarDatabase | None = None


def _worker_init(database: ColumnarDatabase) -> None:
    global _WORKER_DATABASE
    _WORKER_DATABASE = database


def _worker_run(
    algorithm: str,
    options: Mapping[str, object],
    k: int,
    scoring: ScoringFunction,
) -> TopKResult:
    assert _WORKER_DATABASE is not None, "shard worker used before init"
    return execute_query(_WORKER_DATABASE, algorithm, options, k, scoring)


class ShardExecutor:
    """Executes one logical top-k query as per-shard queries + merge.

    Args:
        database: the full database (any backend; converted to columnar).
        shards: requested shard count (clamped to the item count).
        pool: ``"serial"`` | ``"thread"`` | ``"process"`` | ``"auto"``.
    """

    def __init__(
        self,
        database,
        *,
        shards: int = 1,
        pool: str = "auto",
    ) -> None:
        if not isinstance(database, ColumnarDatabase):
            database = ColumnarDatabase.from_database(database)
        self._shards_requested = shards
        self._database = database
        self._shard_dbs = partition_database(database, shards)
        self._pool_kind = resolve_pool(pool)
        self._thread_pool: ThreadPoolExecutor | None = None
        self._process_pools: list[ProcessPoolExecutor] | None = None
        self._closed = False
        self._open_pools()

    def _open_pools(self) -> None:
        if len(self._shard_dbs) > 1:
            if self._pool_kind == "thread":
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=len(self._shard_dbs),
                    thread_name_prefix="repro-shard",
                )
            elif self._pool_kind == "process":
                # The shard is shipped through a submitted _worker_init
                # rather than initargs: initargs are pinned inside the
                # pool for its whole life, which would keep a stale
                # snapshot copy alive after every reload().  Each pool
                # has exactly one worker, so the submitted init is
                # guaranteed to run on it before any query task.
                self._process_pools = [
                    ProcessPoolExecutor(max_workers=1)
                    for _ in self._shard_dbs
                ]
                for pool, shard_db in zip(self._process_pools, self._shard_dbs):
                    pool.submit(_worker_init, shard_db).result()

    def reload(self, database, *, shards: int | None = None) -> None:
        """Swap in a new snapshot of the data, keeping pools warm.

        Re-partitions; per-scoring state lives on the snapshots and
        goes with the old ones.  When the effective shard count is
        unchanged, dedicated process workers
        are *re-initialized in place* (each single-worker pool runs
        ``_worker_init`` with its new shard) instead of being respawned,
        so a mutate-then-query cycle pays one IPC round-trip per shard,
        not a process start.  A changed shard count (including a new
        ``shards`` request, e.g. from the planner's auto-tuner) falls
        back to a pool restart.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if shards is not None:
            self._shards_requested = shards
        if not isinstance(database, ColumnarDatabase):
            database = ColumnarDatabase.from_database(database)
        new_shard_dbs = partition_database(database, self._shards_requested)
        self._database = database
        same_count = len(new_shard_dbs) == len(self._shard_dbs)
        self._shard_dbs = new_shard_dbs
        if same_count:
            if self._process_pools is not None:
                # Each pool has exactly one worker, so a submitted
                # _worker_init necessarily runs on it.
                for pool, shard_db in zip(self._process_pools, new_shard_dbs):
                    pool.submit(_worker_init, shard_db).result()
            return
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        if self._process_pools is not None:
            for pool in self._process_pools:
                pool.shutdown(wait=True)
            self._process_pools = None
        self._open_pools()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def database(self) -> ColumnarDatabase:
        """The full (unsharded) database."""
        return self._database

    @property
    def shards(self) -> int:
        """Effective shard count."""
        return len(self._shard_dbs)

    @property
    def pool_kind(self) -> str:
        """The resolved pool kind."""
        return self._pool_kind

    @property
    def shard_databases(self) -> tuple[ColumnarDatabase, ...]:
        """The shard databases (the full database when unsharded)."""
        return tuple(self._shard_dbs)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def fanout_for(self, algorithm: str) -> int:
        """How many shards a query for ``algorithm`` fans out to."""
        if algorithm in MERGE_EXACT_ALGORITHMS:
            return len(self._shard_dbs)
        return 1

    def run(
        self,
        algorithm: str,
        options: Mapping[str, object],
        k: int,
        scoring: ScoringFunction,
    ) -> TopKResult:
        """Answer one top-k query exactly, fanning out where provable."""
        if self._closed:
            raise RuntimeError("executor is closed")
        if k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {k}")
        k = min(k, self._database.n)

        if self.fanout_for(algorithm) == 1:
            result = execute_query(
                self._database, algorithm, options, k, scoring
            )
            extras = dict(result.extras)
            extras.setdefault("shards", 1)
            return TopKResult(
                items=result.items,
                tally=result.tally,
                rounds=result.rounds,
                stop_position=result.stop_position,
                algorithm=result.algorithm,
                extras=extras,
            )

        shard_ks = [min(k, db.n) for db in self._shard_dbs]
        if self._process_pools is not None:
            futures = [
                pool.submit(_worker_run, algorithm, dict(options), k_s, scoring)
                for pool, k_s in zip(self._process_pools, shard_ks)
            ]
            partials = [future.result() for future in futures]
        elif self._thread_pool is not None:
            futures = [
                self._thread_pool.submit(
                    execute_query, db, algorithm, options, k_s, scoring
                )
                for db, k_s in zip(self._shard_dbs, shard_ks)
            ]
            partials = [future.result() for future in futures]
        else:
            partials = [
                execute_query(db, algorithm, options, k_s, scoring)
                for db, k_s in zip(self._shard_dbs, shard_ks)
            ]
        return merge_shard_results(
            partials, [db.n for db in self._shard_dbs], k, algorithm
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release pools; the executor cannot run queries afterwards."""
        if self._closed:
            return
        self._closed = True
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
        if self._process_pools is not None:
            for pool in self._process_pools:
                pool.shutdown(wait=True)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardExecutor shards={self.shards} pool={self._pool_kind} "
            f"n={self._database.n} m={self._database.m}>"
        )
