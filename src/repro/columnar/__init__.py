"""NumPy-backed columnar storage backend.

Stores each sorted list as contiguous ``scores``/``items`` arrays plus
an item→position index, behind the exact same access protocol as the
pure-Python backend — every registered algorithm runs on either,
unchanged, with identical results and identical metered access tallies
(proven by ``tests/differential/``).  On top of the shared protocol:

* :class:`ColumnarList` / :class:`ColumnarDatabase` — the storage, with
  vectorized batched lookups, block prefetch and whole-database
  score/position matrices;
* :class:`TotalsMemo` — per snapshot and scoring semantics, the
  per-item overall scores, filled on first touch and bounded per
  snapshot (:func:`scoring_capacity`), and for the stock sums
  approximate totals within a certified margin, so most comparisons
  need no exact sum;
* :class:`FirstSeenPrefix` — per snapshot, which rows parallel sorted
  access has seen by each depth, extended lazily and shared by the
  planner's walk and the TA/BPA kernels (:mod:`repro.columnar.walk`);
* :mod:`repro.columnar.engine` — kernels with the reference algorithms'
  exact results: :func:`fast_ta` and :func:`fast_bpa` search the prefix
  for their stop depth and derive the result from it, while
  :func:`fast_bpa2`, :func:`fast_nra` and :func:`fast_quick_combine`
  replay their access sequences over the flat columns, all reading (and
  filling) the snapshot's memo through a :class:`QueryContext`.
"""

from repro.columnar.columnar_list import ColumnarList
from repro.columnar.database import (
    ColumnarDatabase,
    DatabaseLayout,
    scoring_capacity,
)
from repro.columnar.walk import FirstSeenPrefix, TotalsMemo, step_end
from repro.columnar.patch import patch_database
from repro.columnar.engine import (
    KERNELS,
    QueryContext,
    fast_bpa,
    fast_bpa2,
    fast_nra,
    fast_quick_combine,
    fast_ta,
    get_kernel,
)

__all__ = [
    "ColumnarList",
    "ColumnarDatabase",
    "DatabaseLayout",
    "TotalsMemo",
    "FirstSeenPrefix",
    "step_end",
    "scoring_capacity",
    "patch_database",
    "QueryContext",
    "fast_ta",
    "fast_bpa",
    "fast_bpa2",
    "fast_nra",
    "fast_quick_combine",
    "get_kernel",
    "KERNELS",
]
