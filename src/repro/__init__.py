"""repro — Best Position Algorithms for Top-k Queries.

A complete, from-scratch reproduction of

    Reza Akbarinia, Esther Pacitti, Patrick Valduriez.
    "Best Position Algorithms for Top-k Queries." VLDB 2007.

Quickstart::

    from repro import UniformGenerator, BestPositionAlgorithm, SUM

    database = UniformGenerator().generate(n=10_000, m=4, seed=7)
    result = BestPositionAlgorithm().run(database, k=10, scoring=SUM)
    print(result.item_ids, result.tally, result.stop_position)

See :mod:`repro.bench` for the paper's full experimental suite and
:mod:`repro.distributed` for the message-passing simulation.
"""

from repro.algorithms import (
    FaginsAlgorithm,
    NaiveScan,
    NoRandomAccess,
    QuickCombine,
    ThresholdAlgorithm,
)
from repro.algorithms.base import get_algorithm, known_algorithms
from repro.algorithms.progressive import progressive_topk
from repro.core import (
    BestPositionAlgorithm,
    BestPositionAlgorithm2,
    BitArrayTracker,
    BPlusTreeTracker,
    NaiveTracker,
    make_tracker,
)
from repro.bench.batch import BatchRunner
from repro.columnar import (
    ColumnarDatabase,
    ColumnarList,
    fast_bpa,
    fast_bpa2,
    fast_nra,
    fast_quick_combine,
    fast_ta,
)
from repro.exec import QuerySpec
from repro.datagen import (
    CorrelatedGenerator,
    GaussianGenerator,
    UniformGenerator,
    ZipfGenerator,
    figure1_database,
    figure2_database,
)
from repro.dynamic import DynamicDatabase, DynamicSortedList
from repro.errors import ReproError
from repro.lists import Database, SortedList
from repro.reverse import (
    ReverseResult,
    ReverseTopkEngine,
    UserWeightRegistry,
    brute_force_reverse_topk,
)
from repro.service import (
    QueryService,
    ServicePolicy,
    ServiceResult,
    ServiceStats,
    ShardExecutor,
)
from repro.storage import open_database, save_database
from repro.scoring import (
    AVERAGE,
    MAX,
    MIN,
    SUM,
    AverageScoring,
    MaxScoring,
    MinScoring,
    ProductScoring,
    SumScoring,
    WeightedSumScoring,
)
from repro.types import AccessTally, CostModel, ScoredItem, TopKResult

__version__ = "1.0.0"

__all__ = [
    # algorithms
    "NaiveScan",
    "FaginsAlgorithm",
    "ThresholdAlgorithm",
    "NoRandomAccess",
    "QuickCombine",
    "BestPositionAlgorithm",
    "BestPositionAlgorithm2",
    "get_algorithm",
    "known_algorithms",
    "progressive_topk",
    # best-position trackers
    "NaiveTracker",
    "BitArrayTracker",
    "BPlusTreeTracker",
    "make_tracker",
    # data
    "Database",
    "SortedList",
    "ColumnarDatabase",
    "ColumnarList",
    "DynamicDatabase",
    "DynamicSortedList",
    "save_database",
    "open_database",
    "UniformGenerator",
    "GaussianGenerator",
    "CorrelatedGenerator",
    "ZipfGenerator",
    "figure1_database",
    "figure2_database",
    # vectorized kernels & batching
    "fast_ta",
    "fast_bpa",
    "fast_bpa2",
    "fast_nra",
    "fast_quick_combine",
    "BatchRunner",
    "QuerySpec",
    # query service
    "QueryService",
    "ServiceResult",
    "ServiceStats",
    "ServicePolicy",
    "ShardExecutor",
    # reverse top-k
    "UserWeightRegistry",
    "ReverseTopkEngine",
    "ReverseResult",
    "brute_force_reverse_topk",
    # scoring
    "SumScoring",
    "WeightedSumScoring",
    "MinScoring",
    "MaxScoring",
    "AverageScoring",
    "ProductScoring",
    "SUM",
    "MIN",
    "MAX",
    "AVERAGE",
    # results & costs
    "TopKResult",
    "ScoredItem",
    "AccessTally",
    "CostModel",
    # errors
    "ReproError",
    "__version__",
]
