"""The unified execution core shared by every execution environment.

The paper motivates BPA/BPA2 for middleware and distributed settings;
this package is the repo's single implementation of their coordinator
logic, reused by every stack that executes queries:

* :func:`execute_query` — the single-node path: one query on one
  database through the exact vectorized kernel when one exists, the
  reference algorithm otherwise (the per-shard / per-thread work unit
  of the service and the batch runner);
* :mod:`repro.exec.plan` — declarative :class:`RoundPlan` ops and the
  engine (:func:`drive`) that executes planners against the list
  owners of a :class:`repro.distributed.NetworkBackend` (which turns
  each plan into per-entry, batched or pipelined messages);
* :mod:`repro.exec.drivers` — TA/BPA/BPA2 round planners, classic
  (:func:`run_ta`, :func:`run_bpa`, :func:`run_bpa2`) and block
  (:func:`run_ta_block`, :func:`run_bpa_block`, :func:`run_bpa2_block`);
* :func:`merge_shard_results` — the certificate-checked exact top-k
  merge the shard executor fans in through;
* :mod:`repro.exec.certify` — the reusable k-th-entry certificate:
  classify a mutation delta against a certified answer as unchanged /
  patchable / recompute (shared by the delta-aware result cache and
  standing :mod:`repro.watch` subscriptions);
* :mod:`repro.exec.keys` — :class:`QuerySpec` and the canonical
  query/scoring identities shared by the result cache, the planner and
  the snapshots' per-scoring totals memos.

``repro.service`` runs kernels over local shard pools;
``repro.distributed`` runs the planners over the network.  The
differential suites prove both produce results bit-identical to the
reference single-node algorithms.
"""

from repro.exec.drivers import (
    DRIVERS,
    DriverOutcome,
    run_bpa,
    run_bpa2,
    run_bpa2_block,
    run_bpa_block,
    run_ta,
    run_ta_block,
)
from repro.exec.keys import (
    QuerySpec,
    freeze_value,
    normalized_query_key,
    scoring_key,
)
from repro.exec.merge import entry_key, merge_shard_results
from repro.exec.plan import (
    BlockRound,
    DirectBlock,
    DirectResult,
    ProbeBatch,
    ProbeResult,
    RoundPlan,
    SortedFetch,
    SortedResult,
    drive,
)
from repro.exec.run import execute_query

__all__ = [
    "DriverOutcome",
    "DRIVERS",
    "RoundPlan",
    "SortedFetch",
    "ProbeBatch",
    "DirectBlock",
    "SortedResult",
    "ProbeResult",
    "DirectResult",
    "BlockRound",
    "drive",
    "run_ta",
    "run_bpa",
    "run_bpa2",
    "run_ta_block",
    "run_bpa_block",
    "run_bpa2_block",
    "entry_key",
    "merge_shard_results",
    "execute_query",
    "QuerySpec",
    "scoring_key",
    "freeze_value",
    "normalized_query_key",
]
