"""Tests for the on-disk list storage layer."""

import re
import struct

import pytest

from repro.algorithms.base import get_algorithm
from repro.datagen import UniformGenerator
from repro.errors import (
    CorruptFileError,
    InvalidPositionError,
    StorageError,
    UnknownItemError,
)
from repro.lists.database import Database
from repro.scoring import SUM
from repro.storage import open_database, save_database


@pytest.fixture()
def memory_db() -> Database:
    return UniformGenerator().generate(60, 3, seed=21)


@pytest.fixture()
def db_path(memory_db, tmp_path):
    path = tmp_path / "lists.bptk"
    save_database(memory_db, path)
    return path


class TestRoundtrip:
    def test_shape(self, db_path, memory_db):
        with open_database(db_path) as disk:
            assert disk.m == memory_db.m
            assert disk.n == memory_db.n

    def test_every_entry_matches(self, db_path, memory_db):
        with open_database(db_path) as disk:
            for mem_list, disk_list in zip(memory_db.lists, disk.lists):
                for position in range(1, memory_db.n + 1):
                    assert disk_list.entry_at(position) == mem_list.entry_at(position)

    def test_lookup_matches(self, db_path, memory_db):
        with open_database(db_path) as disk:
            for item in sorted(memory_db.item_ids):
                for mem_list, disk_list in zip(memory_db.lists, disk.lists):
                    assert disk_list.lookup(item) == mem_list.lookup(item)

    def test_items_and_scores(self, db_path, memory_db):
        with open_database(db_path) as disk:
            assert disk.lists[0].items() == memory_db.lists[0].items()
            assert disk.lists[0].scores() == memory_db.lists[0].scores()
            assert disk.item_ids == memory_db.item_ids

    def test_contains(self, db_path):
        with open_database(db_path) as disk:
            assert 0 in disk.lists[0]
            assert 999 not in disk.lists[0]

    def test_save_a_disk_database(self, db_path, memory_db, tmp_path):
        # save_database reads through the public API, so a DiskDatabase
        # can itself be re-serialized losslessly.
        copy_path = tmp_path / "copy.bptk"
        with open_database(db_path) as disk:
            save_database(disk, copy_path)
        assert copy_path.read_bytes() == db_path.read_bytes()


class TestAlgorithmsOnDisk:
    @pytest.mark.parametrize("name", ("ta", "bpa", "bpa2", "fa", "naive"))
    def test_same_answers_and_tallies_as_memory(self, db_path, memory_db, name):
        algorithm = get_algorithm(name)
        mem_result = algorithm.run(memory_db, 5, SUM)
        with open_database(db_path) as disk:
            disk_result = algorithm.run(disk, 5, SUM)
        assert disk_result.same_scores(mem_result)
        assert disk_result.tally == mem_result.tally
        assert disk_result.stop_position == mem_result.stop_position


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            open_database(tmp_path / "nope.bptk")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bptk"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(CorruptFileError, match="magic"):
            open_database(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.bptk"
        path.write_bytes(struct.pack("<4sIII", b"BPTK", 99, 1, 1) + b"\x00" * 40)
        with pytest.raises(CorruptFileError, match="version"):
            open_database(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.bptk"
        path.write_bytes(b"BP")
        with pytest.raises(CorruptFileError, match="truncated"):
            open_database(path)

    def test_size_mismatch(self, db_path):
        data = db_path.read_bytes()
        db_path.write_bytes(data[:-8])
        with pytest.raises(CorruptFileError, match="size"):
            open_database(db_path)

    def test_position_out_of_range(self, db_path):
        with open_database(db_path) as disk:
            with pytest.raises(InvalidPositionError):
                disk.lists[0].entry_at(0)

    def test_unknown_item(self, db_path):
        with open_database(db_path) as disk:
            with pytest.raises(UnknownItemError):
                disk.lists[0].lookup(10_000)

    def test_nan_score_raises_on_every_read_path(self, tmp_path):
        """A NaN score has no rank: each read that meets one raises,
        naming the file, the list and the position."""
        path = tmp_path / "nan.bptk"
        save_database(
            Database.from_score_rows([[0.9, 0.5, 0.1], [0.3, 0.8, 0.6]]), path
        )
        nan = struct.pack("<d", float("nan"))
        data = bytearray(path.read_bytes())
        # List 0's rank section starts after the 16-byte header with
        # 16-byte (item, score) records: position 2's score is at 40.
        data[40:48] = nan
        # Its index section follows, 24-byte (item, rank, score)
        # records by item: item 2's score is at 16 + 48 + 2 * 24 + 16.
        data[128:136] = nan
        path.write_bytes(bytes(data))
        with open_database(path) as disk:
            first = disk.lists[0]
            assert first.entry_at(1).score == 0.9
            with pytest.raises(CorruptFileError, match="L1: NaN score at position 2"):
                first.entry_at(2)
            with pytest.raises(CorruptFileError, match="position 3"):
                first.lookup(2)
            with pytest.raises(CorruptFileError, match=re.escape(str(path))):
                first.scores()
            with pytest.raises(CorruptFileError, match="position 2"):
                get_algorithm("ta").run(disk, 2, SUM)


class TestLifecycle:
    def test_context_manager_closes(self, db_path):
        with open_database(db_path) as disk:
            assert not disk.closed
        assert disk.closed

    def test_reads_after_close_fail(self, db_path):
        disk = open_database(db_path)
        disk.close()
        with pytest.raises(ValueError):
            disk.lists[0].entry_at(1)


class TestConcurrentReads:
    """Positional reads: no shared-cursor races across lists/threads."""

    def test_multithreaded_hammer(self, db_path, memory_db):
        # Interleave random reads from every list of one DiskDatabase
        # across a thread pool.  The pre-pread code shared one file
        # cursor via seek()+read(), so concurrent readers returned
        # records from each other's offsets.
        from concurrent.futures import ThreadPoolExecutor

        with open_database(db_path) as disk:
            expected = [
                [mem_list.entry_at(p) for p in range(1, memory_db.n + 1)]
                for mem_list in memory_db.lists
            ]
            items = sorted(memory_db.item_ids)

            def hammer(worker: int) -> int:
                rng = __import__("random").Random(worker)
                mismatches = 0
                for _ in range(400):
                    li = rng.randrange(memory_db.m)
                    if rng.random() < 0.5:
                        p = rng.randrange(1, memory_db.n + 1)
                        if disk.lists[li].entry_at(p) != expected[li][p - 1]:
                            mismatches += 1
                    else:
                        item = rng.choice(items)
                        want = memory_db.lists[li].lookup(item)
                        if disk.lists[li].lookup(item) != want:
                            mismatches += 1
                return mismatches

            with ThreadPoolExecutor(max_workers=8) as pool:
                totals = list(pool.map(hammer, range(8)))
        assert sum(totals) == 0

    def test_interleaved_entries_streams(self, db_path, memory_db):
        # Two generators over different lists, advanced alternately —
        # the old shared-cursor code required each entries() call to
        # finish its bulk read before the next seek; positional reads
        # make interleaving safe by construction.
        with open_database(db_path) as disk:
            first = disk.lists[0].entries()
            second = disk.lists[1].entries()
            for a, b in zip(first, second):
                assert a == memory_db.lists[0].entry_at(a.position)
                assert b == memory_db.lists[1].entry_at(b.position)


class TestAtomicSave:
    """A failed save must leave the target file untouched."""

    class _ExplodingLists:
        """Database facade whose second list dies mid-serialization."""

        def __init__(self, database):
            self._database = database
            self.m = database.m
            self.n = database.n

        @property
        def lists(self):
            real = self._database.lists

            class _Boom:
                def __init__(self, inner):
                    self._inner = inner

                def entries(self):
                    for count, entry in enumerate(self._inner.entries()):
                        if count == 3:
                            raise OSError("injected mid-write crash")
                        yield entry

            return [real[0], _Boom(real[1]), *real[2:]]

    def test_failed_save_preserves_existing_file(
        self, db_path, memory_db, tmp_path
    ):
        before = db_path.read_bytes()
        with pytest.raises(OSError, match="injected mid-write crash"):
            save_database(self._ExplodingLists(memory_db), db_path)
        # The original file is intact byte for byte and still opens.
        assert db_path.read_bytes() == before
        with open_database(db_path) as disk:
            assert disk.n == memory_db.n

    def test_failed_save_leaves_no_temp_files(self, memory_db, tmp_path):
        target = tmp_path / "fresh.bptk"
        with pytest.raises(OSError):
            save_database(self._ExplodingLists(memory_db), target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_save_is_a_rename_not_an_in_place_write(
        self, db_path, memory_db
    ):
        import os

        inode_before = os.stat(db_path).st_ino
        save_database(memory_db, db_path)
        assert os.stat(db_path).st_ino != inode_before
        with open_database(db_path) as disk:
            assert disk.lists[0].items() == memory_db.lists[0].items()

    def test_save_creates_missing_directories(
        self, memory_db, tmp_path, monkeypatch
    ):
        from repro.storage import disk

        synced = []
        fsync_directory = disk._fsync_directory

        def recording(directory):
            synced.append(directory)
            fsync_directory(directory)

        monkeypatch.setattr(disk, "_fsync_directory", recording)
        target = tmp_path / "a" / "b" / "db.bptk"
        save_database(memory_db, target)
        with open_database(target) as stored:
            assert stored.lists[0].items() == memory_db.lists[0].items()
        # Each new directory's entry is fsynced in its parent, then the
        # target's own entry in its directory.
        assert synced == [tmp_path, tmp_path / "a", tmp_path / "a" / "b"]
