"""Differential proof that the unified execution core is exact.

The distributed drivers are thin wrappers over one shared driver per
algorithm (:mod:`repro.exec.drivers`); here each driver runs over the
simulated network under every wire protocol, with owners serving
columnar lists (NumPy gathers) and plain per-entry lists, and must
reproduce the reference single-node algorithm *bit for bit*: identical
ranked items and scores, identical per-mode access tallies, identical
rounds.  Hypothesis drives databases from every shipped distribution
family plus arbitrary tie-heavy matrices.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import get_algorithm
from repro.columnar import ColumnarDatabase
from repro.datagen import make_generator
from repro.distributed import DistributedBPA, DistributedBPA2, DistributedTA
from repro.lists.database import Database
from repro.scoring import SUM
from repro.testing import score_matrix_strategy as score_matrices

DISTRIBUTIONS = ("uniform", "gaussian", "correlated", "zipf", "copula")

DRIVERS = (
    ("ta", DistributedTA),
    ("bpa", DistributedBPA),
    ("bpa2", DistributedBPA2),
)

#: (owner source, driver options): columnar owners answer batches with
#: NumPy gathers, plain owners look every item up on its own.
TRANSPORTS = (
    ("columnar", {"protocol": "entry"}),
    ("columnar", {"protocol": "batch"}),
    ("columnar", {"protocol": "pipelined"}),
    ("plain", {"protocol": "batch"}),
)


def _assert_unified_matches_reference(database, k) -> None:
    sources = {
        "plain": database,
        "columnar": ColumnarDatabase.from_database(database),
    }
    for name, cls in DRIVERS:
        reference = get_algorithm(name).run(database, k, SUM)
        for source, kwargs in TRANSPORTS:
            result = cls(**kwargs).run(sources[source], k, SUM)
            label = f"{name} {source} {kwargs}"
            assert result.items == reference.items, label
            assert result.tally == reference.tally, label
            assert result.rounds == reference.rounds, label
            if name != "bpa2":
                # BPA2's stop position is reported as the deepest best
                # position (owner-side state), not the sorted depth.
                assert result.stop_position == reference.stop_position, label


class TestUnifiedColumnarBackend:
    """Every transport, bit-identical to the single-node reference."""

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_generated_databases(self, distribution, data):
        n = data.draw(st.integers(5, 40), label="n")
        m = data.draw(st.integers(1, 4), label="m")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        k = data.draw(st.integers(1, n), label="k")
        database = make_generator(distribution).generate(n, m, seed=seed)
        _assert_unified_matches_reference(database, k)

    @settings(max_examples=15, deadline=None)
    @given(
        matrix=score_matrices(max_items=16, max_lists=4, tie_heavy=True),
        data=st.data(),
    )
    def test_tie_heavy_matrices(self, matrix, data):
        database = Database.from_score_rows(
            [[float(s) for s in row] for row in matrix]
        )
        k = data.draw(st.integers(1, database.n), label="k")
        _assert_unified_matches_reference(database, k)


class TestWireProtocolEquivalence:
    """Batch coalescing changes messages, never owner-side operations."""

    @pytest.fixture(scope="class")
    def database(self):
        return make_generator("uniform").generate(300, 4, seed=11)

    @pytest.mark.parametrize("name,cls", DRIVERS)
    def test_batch_saves_messages_and_bytes(self, database, name, cls):
        entry = cls(protocol="entry").run(database, 8, SUM)
        batch = cls(protocol="batch").run(database, 8, SUM)
        assert batch.items == entry.items
        assert batch.tally == entry.tally
        entry_net, batch_net = entry.extras["network"], batch.extras["network"]
        assert batch_net["messages"] < entry_net["messages"], name
        assert batch_net["bytes"] < entry_net["bytes"], name
        # Same number of coordinator rounds either way.
        assert batch_net["rounds"] == entry_net["rounds"], name

    def test_entry_protocol_keeps_message_access_proportionality(self, database):
        for _name, cls in DRIVERS:
            result = cls(protocol="entry").run(database, 8, SUM)
            net = result.extras["network"]
            assert net["messages"] == 2 * result.tally.total

    def test_bpa2_ships_less_best_position_traffic_than_bpa(self, database):
        bpa = DistributedBPA().run(database, 8, SUM)
        bpa2 = DistributedBPA2().run(database, 8, SUM)
        assert (
            bpa2.extras["network"]["bp_bytes"]
            < bpa.extras["network"]["bp_bytes"]
        )


class TestTransportChoice:
    """Planners run over owners only; single-node means kernels."""

    @pytest.mark.parametrize("transport", ["carrier-pigeon", "local"])
    def test_unknown_transport_rejected(self, transport):
        with pytest.raises(ValueError, match="unknown transport"):
            DistributedTA(transport=transport)
