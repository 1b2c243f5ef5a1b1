"""Binary file format and disk-backed list implementation.

File layout (all little-endian)::

    header:   magic "BPTK" | version u32 | m u32 | n u32        (16 bytes)
    per list, repeated m times:
      rank section:  n records of (item i64, score f64)         (16 B each)
                     ordered by rank (position 1 first)
      index section: n records of (item i64, rank i64, score f8)(24 B each)
                     ordered by item id (binary-search target)

The rank section serves sorted and direct access (one seek per read);
the index section serves random access via binary search — ``log2 n``
seeks, which is precisely the paper's ``cr`` cost assumption.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.errors import (
    CorruptFileError,
    InvalidPositionError,
    StorageError,
    UnknownItemError,
)
from repro.types import ItemId, ListEntry, Position, Score

_MAGIC = b"BPTK"
_VERSION = 1
_HEADER = struct.Struct("<4sIII")
_RANK_RECORD = struct.Struct("<qd")  # (item, score)
_INDEX_RECORD = struct.Struct("<qqd")  # (item, rank, score)


def _list_block_size(n: int) -> int:
    return n * _RANK_RECORD.size + n * _INDEX_RECORD.size


def _rank_section_offset(n: int, list_index: int) -> int:
    return _HEADER.size + list_index * _list_block_size(n)


def _index_section_offset(n: int, list_index: int) -> int:
    return _rank_section_offset(n, list_index) + n * _RANK_RECORD.size


def _fsync_directory(directory: Path) -> None:
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def _make_directories(directory: Path) -> None:
    """Create ``directory`` and its missing parents, each entry fsynced."""
    missing = []
    while not directory.exists() and directory != directory.parent:
        missing.append(directory)
        directory = directory.parent
    for created in reversed(missing):
        with contextlib.suppress(FileExistsError):
            created.mkdir()
        _fsync_directory(created.parent)


@contextlib.contextmanager
def atomic_writer(path: str | Path):
    """Yield a binary handle whose contents atomically replace ``path``.

    Writes go to a same-directory temporary file; on clean exit the file
    is flushed, fsynced and moved over ``path`` with :func:`os.replace`
    (atomic on POSIX), then the directory entry is fsynced.  A crash or
    exception mid-write leaves the target untouched — a concurrent
    reader only ever sees the old complete file or the new complete
    file, never a truncated hybrid.  Missing parent directories are
    created first, and each new directory's entry is fsynced in its
    parent.
    """
    path = Path(path)
    _make_directories(path.parent)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_directory(path.parent)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def write_database(handle: BinaryIO, database) -> None:
    """Serialize a database to an open binary handle (``.bptk`` layout)."""
    handle.write(_HEADER.pack(_MAGIC, _VERSION, database.m, database.n))
    for sorted_list in database.lists:
        index_records = []
        for entry in sorted_list.entries():
            handle.write(_RANK_RECORD.pack(entry.item, entry.score))
            index_records.append((entry.item, entry.position, entry.score))
        index_records.sort()
        for item, rank, score in index_records:
            handle.write(_INDEX_RECORD.pack(item, rank, score))


def save_database(database, path: str | Path) -> None:
    """Serialize a database (any object with ``lists``/``m``/``n``).

    Lists are read through their public API, so in-memory, dynamic and
    even other disk databases can all be saved.  The write is atomic
    (:func:`atomic_writer`): a crash mid-write cannot leave a truncated
    file at ``path``, which matters once snapshots are restart-critical.
    """
    with atomic_writer(path) as handle:
        write_database(handle, database)


class DiskSortedList:
    """One sorted list served from the file (no in-memory copy).

    All reads are *positional* (:func:`os.pread`): the file offset is
    part of every read call, so lists sharing one file descriptor —
    every list of a :class:`DiskDatabase`, possibly across threads —
    never race on a shared cursor.  A ``seek``-then-``read`` pair is not
    atomic; under concurrency it returns records from whatever offset
    the last interleaved seek left behind.
    """

    __slots__ = ("_handle", "_n", "_rank_offset", "_index_offset", "_name")

    def __init__(
        self, handle: BinaryIO, n: int, list_index: int, *, name: str = ""
    ) -> None:
        self._handle = handle
        self._n = n
        self._rank_offset = _rank_section_offset(n, list_index)
        self._index_offset = _index_section_offset(n, list_index)
        self._name = name or f"L{list_index + 1}"

    def _pread(self, offset: int, size: int) -> bytes:
        payload = os.pread(self._handle.fileno(), size, offset)
        if len(payload) != size:
            raise CorruptFileError(
                f"list {self._name}: short read of {len(payload)}/{size} "
                f"bytes at offset {offset}"
            )
        return payload

    @property
    def name(self) -> str:
        """List label (``L1``, ``L2``, ...)."""
        return self._name

    def __len__(self) -> int:
        return self._n

    def entry_at(self, position: Position) -> ListEntry:
        """Read the entry at a 1-based position (one positional read)."""
        if not 1 <= position <= self._n:
            raise InvalidPositionError(
                f"position {position} out of range 1..{self._n}"
            )
        item, score = _RANK_RECORD.unpack(
            self._pread(
                self._rank_offset + (position - 1) * _RANK_RECORD.size,
                _RANK_RECORD.size,
            )
        )
        if score != score:
            raise self._nan_score(position)
        return ListEntry(position=position, item=item, score=score)

    def score_at(self, position: Position) -> Score:
        """Local score at a 1-based position."""
        return self.entry_at(position).score

    def item_at(self, position: Position) -> ItemId:
        """Item id at a 1-based position."""
        return self.entry_at(position).item

    def _read_index_record(self, slot: int) -> tuple[int, int, float]:
        record = _INDEX_RECORD.unpack(
            self._pread(
                self._index_offset + slot * _INDEX_RECORD.size,
                _INDEX_RECORD.size,
            )
        )
        if record[2] != record[2]:
            raise self._nan_score(record[1])
        return record

    def _nan_score(self, position: int) -> CorruptFileError:
        """A NaN local score has no rank: the file is corrupt.  Checked
        on every read, since the format has no checksum and a list is
        read lazily."""
        return CorruptFileError(
            f"{self._handle.name}: list {self._name}: NaN score at "
            f"position {position}"
        )

    def lookup(self, item: ItemId) -> tuple[Score, Position]:
        """Random access: binary search the item index (log2 n seeks)."""
        low, high = 0, self._n - 1
        while low <= high:
            mid = (low + high) // 2
            candidate, rank, score = self._read_index_record(mid)
            if candidate == item:
                return score, rank
            if candidate < item:
                low = mid + 1
            else:
                high = mid - 1
        raise UnknownItemError(f"item {item} not in list {self._name}")

    def position_of(self, item: ItemId) -> Position:
        """1-based position of ``item``."""
        return self.lookup(item)[1]

    def __contains__(self, item: ItemId) -> bool:
        try:
            self.lookup(item)
        except UnknownItemError:
            return False
        return True

    def entries(self) -> Iterator[ListEntry]:
        """Sequentially stream the whole rank section."""
        payload = self._pread(self._rank_offset, self._n * _RANK_RECORD.size)
        for index, (item, score) in enumerate(_RANK_RECORD.iter_unpack(payload)):
            if score != score:
                raise self._nan_score(index + 1)
            yield ListEntry(position=index + 1, item=item, score=score)

    def items(self) -> tuple[ItemId, ...]:
        """All item ids in rank order (reads the whole section)."""
        return tuple(entry.item for entry in self.entries())

    def scores(self) -> tuple[Score, ...]:
        """All scores in rank order (reads the whole section)."""
        return tuple(entry.score for entry in self.entries())


class DiskDatabase:
    """A database served from one ``.bptk`` file.

    Context-manager; exposes the same read surface as the in-memory
    :class:`repro.lists.database.Database` so algorithms run unchanged.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._handle: BinaryIO = open(self._path, "rb")
        try:
            header = self._handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise CorruptFileError(f"{self._path}: truncated header")
            magic, version, m, n = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise CorruptFileError(f"{self._path}: bad magic {magic!r}")
            if version != _VERSION:
                raise CorruptFileError(
                    f"{self._path}: unsupported version {version}"
                )
            expected = _HEADER.size + m * _list_block_size(n)
            actual = self._path.stat().st_size
            if actual != expected:
                raise CorruptFileError(
                    f"{self._path}: size {actual} != expected {expected}"
                )
            self._m = m
            self._n = n
            self._lists = tuple(
                DiskSortedList(self._handle, n, index) for index in range(m)
            )
        except Exception:
            self._handle.close()
            raise

    # ------------------------------------------------------------------
    # Database read surface
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of lists."""
        return self._m

    @property
    def n(self) -> int:
        """Number of items per list."""
        return self._n

    @property
    def lists(self) -> tuple[DiskSortedList, ...]:
        """The disk-backed lists."""
        return self._lists

    @property
    def item_ids(self) -> frozenset[ItemId]:
        """The item id set (reads list 1 fully)."""
        return frozenset(self._lists[0].items())

    @property
    def path(self) -> Path:
        """The backing file."""
        return self._path

    def label(self, item: ItemId) -> str:
        """Display label (labels are not persisted)."""
        return f"item {item}"

    def local_scores(self, item: ItemId) -> tuple[Score, ...]:
        """The item's local score in every list."""
        return tuple(lst.lookup(item)[0] for lst in self._lists)

    def __len__(self) -> int:
        return self._m

    def __iter__(self):
        return iter(self._lists)

    def __getitem__(self, index: int) -> DiskSortedList:
        return self._lists[index]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the backing file; further reads raise."""
        self._handle.close()

    @property
    def closed(self) -> bool:
        """Whether the backing file is closed."""
        return self._handle.closed

    def __enter__(self) -> "DiskDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DiskDatabase {self._path} m={self._m} n={self._n}>"


def open_database(path: str | Path) -> DiskDatabase:
    """Open a ``.bptk`` file for querying (validates the header)."""
    path = Path(path)
    if not path.exists():
        raise StorageError(f"no such database file: {path}")
    return DiskDatabase(path)
