"""Differential proof that the block variants are exact — everywhere.

Two claims, both bit-level:

* **Exactness.**  ``ta-block`` / ``bpa-block`` / ``bpa2-block`` return
  the classic algorithm's ranked scores for every block width, and its
  items unless an item outside the classic answer ties the classic
  k-th score.  Block rounds only coarsen *when* the stop test runs; at a
  tied k-th score the stop test ``kth >= threshold`` may pass before
  every tie member is seen, and which one is returned then depends on
  the access order (both answers are exact top-k sets).
* **Engine equivalence.**  The round-plan engine driving the simulated
  network under the entry, batch and pipelined wire protocols, with
  owners over columnar and over plain per-entry lists, reproduces the
  registered reference block algorithms bit for bit: identical items,
  per-mode access tallies and round counts.  Hypothesis drives
  databases from every shipped distribution family plus arbitrary
  tie-heavy matrices.
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

BLOCK_DRIVERS = (
    ("ta", DistributedTA),
    ("bpa", DistributedBPA),
    ("bpa2", DistributedBPA2),
)

#: (owner source, driver options), as in test_distributed_unified.
TRANSPORTS = (
    ("columnar", {"protocol": "entry"}),
    ("columnar", {"protocol": "batch"}),
    ("columnar", {"protocol": "pipelined"}),
    ("plain", {"protocol": "pipelined"}),
)


#: Tie-heavy matrices (k=2, lists as rows) where a block variant and its
#: classic algorithm return different members of the tie at the k-th
#: score 8.0: items 7 and 8 both total 8.
TIED_AT_KTH = (
    [[0, 5, 0, 0, 0, 0, 0, 5, 6, 0], [0, 4, 0, 0, 0, 0, 3, 3, 2, 5]],
    [[0, 4, 0, 0, 0, 0, 3, 3, 2, 0], [0, 5, 0, 0, 0, 0, 0, 5, 6, 0]],
)


def _assert_same_answer(variant, classic, label) -> None:
    """The classic ranked scores, and the classic items unless an item
    outside the classic answer ties the classic k-th score."""
    assert variant.scores == classic.scores, label
    classic_ids = set(classic.item_ids)
    outside = [e for e in variant.items if e.item not in classic_ids]
    if not outside:
        assert variant.items == classic.items, label
    assert all(e.score == classic.scores[-1] for e in outside), label


def _assert_block_matches_reference(database, k, width) -> None:
    sources = {
        "plain": database,
        "columnar": ColumnarDatabase.from_database(database),
    }
    for name, cls in BLOCK_DRIVERS:
        classic = get_algorithm(name).run(database, k, SUM)
        if width == 1:
            # ``block_width=1`` keeps the classic per-entry round
            # structure (Lemma 2 accounting included) — the registered
            # ``*-block`` algorithms at width 1 are the *memoized*
            # variants, which return the same items with fewer probes.
            reference = classic
        else:
            reference = get_algorithm(f"{name}-block", width=width).run(
                database, k, SUM
            )
        # Exactness: block rounds return the classic answer, up to ties
        # at the k-th score.
        _assert_same_answer(reference, classic, (name, width))
        memoized = get_algorithm(f"{name}-block", width=width).run(
            database, k, SUM
        )
        _assert_same_answer(memoized, classic, (name, width))
        for source, kwargs in TRANSPORTS:
            result = cls(block_width=width, **kwargs).run(
                sources[source], k, SUM
            )
            label = f"{name}-block w={width} {source} {kwargs}"
            assert result.items == reference.items, label
            assert result.tally == reference.tally, label
            assert result.rounds == reference.rounds, label
            if not (name == "bpa2" and width == 1):
                # Classic BPA2 reports the sorted-depth stop position;
                # the unified driver reports the deepest best position
                # (owner-side state), as test_distributed_unified notes.
                assert result.stop_position == reference.stop_position, label


class TestBlockVariantsAcrossTransports:
    """Every transport and width, bit-identical to the block reference."""

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_generated_databases(self, distribution, data):
        n = data.draw(st.integers(5, 40), label="n")
        m = data.draw(st.integers(1, 4), label="m")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        k = data.draw(st.integers(1, n), label="k")
        width = data.draw(st.sampled_from([1, 2, 3, 8, 64]), label="width")
        database = make_generator(distribution).generate(n, m, seed=seed)
        _assert_block_matches_reference(database, k, width)

    @settings(max_examples=10, deadline=None)
    @given(
        matrix=score_matrices(max_items=16, max_lists=4, tie_heavy=True),
        data=st.data(),
    )
    def test_tie_heavy_matrices(self, matrix, data):
        database = Database.from_score_rows(
            [[float(s) for s in row] for row in matrix]
        )
        k = data.draw(st.integers(1, database.n), label="k")
        width = data.draw(st.sampled_from([1, 2, 5]), label="width")
        _assert_block_matches_reference(database, k, width)

    @pytest.mark.parametrize("width", [1, 2, 5])
    @pytest.mark.parametrize("matrix", TIED_AT_KTH, ids=["first", "second"])
    def test_ties_at_the_kth_score(self, matrix, width):
        database = Database.from_score_rows(
            [[float(s) for s in row] for row in matrix]
        )
        _assert_block_matches_reference(database, 2, width)


class TestBlockRegistry:
    """The block variants are first-class registered algorithms."""

    def test_registered_names(self):
        from repro.algorithms.base import known_algorithms

        for name in ("ta-block", "bpa-block", "bpa2-block"):
            assert name in known_algorithms()

    def test_width_is_configurable_and_validated(self):
        database = make_generator("uniform").generate(30, 3, seed=1)
        wide = get_algorithm("ta-block", width=30).run(database, 3, SUM)
        narrow = get_algorithm("ta-block", width=1).run(database, 3, SUM)
        assert wide.items == narrow.items
        assert wide.rounds <= narrow.rounds
        from repro.errors import InvalidQueryError

        with pytest.raises(InvalidQueryError, match="width"):
            get_algorithm("ta-block", width=0)

    def test_wider_blocks_mean_fewer_rounds_and_messages(self):
        database = make_generator("uniform").generate(300, 3, seed=7)
        narrow = DistributedBPA2(protocol="batch", block_width=1).run(
            database, 8, SUM
        )
        wide = DistributedBPA2(protocol="batch", block_width=16).run(
            database, 8, SUM
        )
        assert wide.items == narrow.items
        assert wide.rounds < narrow.rounds
        assert (
            wide.extras["network"]["messages"]
            < narrow.extras["network"]["messages"]
        )


class TestPipelinedWireEquivalence:
    """Pipelined waves ship exactly the batched protocol's messages."""

    @pytest.fixture(scope="class")
    def database(self):
        return make_generator("uniform").generate(300, 4, seed=11)

    @pytest.mark.parametrize("name,cls", BLOCK_DRIVERS)
    @pytest.mark.parametrize("width", [1, 8])
    def test_pipelined_equals_batch_counts(self, database, name, cls, width):
        batch = cls(protocol="batch", block_width=width).run(database, 8, SUM)
        pipelined = cls(protocol="pipelined", block_width=width).run(
            database, 8, SUM
        )
        assert pipelined.items == batch.items
        assert pipelined.tally == batch.tally
        for key in ("messages", "bytes", "rounds", "bp_messages", "bp_bytes"):
            assert (
                pipelined.extras["network"][key]
                == batch.extras["network"][key]
            ), (name, width, key)
