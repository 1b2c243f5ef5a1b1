"""NetworkBackend unit tests: argument checks and direct-block ends.

The differential suites drive the backend through whole queries; these
pin the cases a query reaches only on some data.  A direct block that
runs off its list's end answers the served entries and ``exhausted``.
Under ``entry`` the block learns of the end from one extra
``direct_next`` answer, so a block that ends exactly at the list end
reports it only at the list's next step.  The batched protocols read
the end from the owner's best position, at once.
"""

from __future__ import annotations

import pytest

from repro.distributed import ClusterPlacement, NetworkBackend
from repro.exec.plan import DirectBlock, RoundPlan
from repro.lists.database import Database

ROWS = [[9.0, 7.0, 5.0], [1.0, 8.0, 2.0]]


@pytest.fixture()
def database():
    return Database.from_score_rows(ROWS)


def _direct(backend, count):
    [result] = backend.execute_plan(RoundPlan(ops=(DirectBlock(0, (), count),)))
    return result


def test_rejects_an_unknown_protocol(database):
    with pytest.raises(ValueError, match="unknown protocol"):
        NetworkBackend(database, protocol="carrier-pigeon")


def test_rejects_a_placement_of_another_width(database):
    with pytest.raises(ValueError, match="placement covers 3 lists"):
        NetworkBackend(database, placement=ClusterPlacement.build(3))


@pytest.mark.parametrize("protocol", ["entry", "batch", "pipelined"])
def test_block_past_the_list_end_stops_there(database, protocol):
    backend = NetworkBackend(database, protocol=protocol)
    result = _direct(backend, 8)
    assert result.entries == ((0, 9.0), (1, 7.0), (2, 5.0))
    assert result.exhausted
    assert backend.total_tally().direct == 3
    # entry: three served accesses plus the exhausted answer.
    expected = 8 if protocol == "entry" else 2
    assert backend.network.stats.messages == expected


@pytest.mark.parametrize(
    "protocol,exhausted", [("entry", False), ("batch", True), ("pipelined", True)]
)
def test_block_ending_at_the_list_end(database, protocol, exhausted):
    backend = NetworkBackend(database, protocol=protocol)
    assert _direct(backend, 3).exhausted is exhausted
    assert _direct(backend, 1).exhausted
    assert backend.total_tally().direct == 3
