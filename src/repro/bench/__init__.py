"""The paper's experimental suite (Section 6), runnable end to end.

* :mod:`repro.bench.config` — Table 1 defaults and scale presets;
* :mod:`repro.bench.harness` — sweep runner and result tables;
* :mod:`repro.bench.experiments` — one entry per paper figure (3-17)
  plus the headline-claim and adversarial-bound experiments.

Run from the command line::

    python -m repro figure fig3          # one figure
    python -m repro figure all           # everything
    REPRO_SCALE=paper python -m repro figure fig3   # full paper scale
"""

from repro.bench.batch import (
    BatchReport,
    BatchRunner,
    default_query_batch,
)
from repro.bench.config import PAPER_DEFAULTS, Scale, resolve_scale
from repro.bench.harness import Experiment, ResultRow, ResultTable
from repro.bench.experiments import get_figure, list_figures

__all__ = [
    "PAPER_DEFAULTS",
    "Scale",
    "resolve_scale",
    "Experiment",
    "ResultRow",
    "ResultTable",
    "get_figure",
    "list_figures",
    "BatchRunner",
    "BatchReport",
    "default_query_batch",
]
