"""The round planners the networked transports run, off a NetworkBackend.

Lemma 1: BPA is TA with a stop bound that is never larger (lambda <=
delta) on the same accesses, so its planners must send exactly TA's
round plans, cut at BPA's stop round, and stop no later.  Checked for
the classic planners and for the block planners at widths 1, 2 and 8,
over Hypothesis databases, tie-heavy ones included.

Also: BPA2's planners run every list to exhaustion exactly as its
references do when the stop test never holds, and the drivers refuse
an invalid width or a backend without positions for BPA.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import get_algorithm
from repro.datagen import UniformGenerator
from repro.distributed.transport import NetworkBackend
from repro.exec.drivers import DRIVERS
from repro.scoring import SUM
from tests.conftest import databases

#: (TA driver, BPA driver, driver options)
PLANNERS = [
    ("ta", "bpa", {}),
    *(("ta-block", "bpa-block", {"width": width}) for width in (1, 2, 8)),
]


def _recorded(name, database, k, options):
    """One driver run: its outcome and every plan it sent."""
    backend = NetworkBackend(database, include_position=True, protocol="batch")
    plans = []
    execute = backend.execute_plan

    def recording(plan):
        plans.append(plan)
        return execute(plan)

    backend.execute_plan = recording
    return DRIVERS[name](backend, k, SUM, **options), plans


@pytest.mark.parametrize(
    "ta, bpa, options",
    PLANNERS,
    ids=["classic", "block-1", "block-2", "block-8"],
)
@settings(max_examples=40, deadline=None)
@given(
    case=st.one_of(
        databases(max_items=16, max_lists=4),
        databases(max_items=16, max_lists=4, tie_heavy=True),
    )
)
def test_bpa_sends_tas_plans_up_to_its_earlier_stop(ta, bpa, options, case):
    database, k = case
    ta_outcome, ta_plans = _recorded(ta, database, k, options)
    bpa_outcome, bpa_plans = _recorded(bpa, database, k, options)
    assert bpa_outcome.rounds <= ta_outcome.rounds
    assert bpa_outcome.stop_position <= ta_outcome.stop_position
    # Each round is a sorted wave and a probe wave.
    assert len(bpa_plans) == 2 * bpa_outcome.rounds
    assert bpa_plans == ta_plans[: len(bpa_plans)]


def _descending(scores):
    """Not monotone: the stop test fails until every list is exhausted."""
    return -sum(scores)


@pytest.mark.parametrize(
    "name, options",
    [("bpa2", {}), ("bpa2-block", {"width": 2}), ("bpa2-block", {"width": 5})],
)
@pytest.mark.parametrize("n, m", [(3, 2), (7, 2), (9, 4)])
def test_bpa2_exhausts_every_list_as_its_reference_does(name, options, n, m):
    database = UniformGenerator().generate(n, m, seed=n)
    for k in (1, n):
        reference = get_algorithm(name, **options).run(database, k, _descending)
        backend = NetworkBackend(database, protocol="batch")
        outcome = DRIVERS[name](backend, k, _descending, **options)
        assert outcome.items == reference.items
        assert outcome.rounds == reference.rounds
        assert backend.total_tally() == reference.tally


class TestDriverChecks:
    @pytest.fixture()
    def database(self):
        return UniformGenerator().generate(10, 3, seed=1)

    @pytest.mark.parametrize("name", ["ta-block", "bpa-block", "bpa2-block"])
    def test_rejects_a_width_below_one(self, database, name):
        backend = NetworkBackend(database, include_position=True)
        with pytest.raises(ValueError, match="block width must be >= 1, got 0"):
            DRIVERS[name](backend, 2, SUM, width=0)

    @pytest.mark.parametrize("name", ["bpa", "bpa-block"])
    def test_bpa_needs_positions(self, database, name):
        with pytest.raises(ValueError, match="include_position=True"):
            DRIVERS[name](NetworkBackend(database), 2, SUM)
