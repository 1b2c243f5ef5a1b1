"""List owners hold one query's state, whatever ids the wire carries.

An owner serves one query between ``reset`` requests.  A request field
naming a session is not an owner concept: it must neither split the
owner's cursor nor make it allocate per-id state, or a stream of frames
with distinct ids would grow the owner without bound.
"""

import tracemalloc

from repro.datagen import UniformGenerator
from repro.distributed.daemon import OwnerDaemon
from repro.distributed.nodes import ListOwnerNode
from repro.lists.sorted_list import SortedList


def test_session_field_does_not_split_the_cursor():
    owner = ListOwnerNode(SortedList([(0, 9.0), (1, 7.0), (2, 5.0)]))
    first = owner.handle("sorted_next", {"session": "q1"})
    second = owner.handle("sorted_next", {"session": "q2"})
    assert (first["item"], second["item"]) == (0, 1)
    assert owner.accessor.tally.sorted == 2


def test_distinct_session_ids_do_not_grow_the_owner():
    database = UniformGenerator().generate(20_000, 1, seed=5)
    daemon = OwnerDaemon(database.lists, list_indices=[0])
    daemon.handle("sorted_next", {"session": "warm-up"})
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        for index in range(500):
            daemon.handle("sorted_next", {"session": f"query-{index}"})
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 1_000_000
