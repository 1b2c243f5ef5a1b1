"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class DatabaseError(ReproError):
    """A database (set of sorted lists) is malformed."""


class InconsistentListsError(DatabaseError):
    """The lists of a database do not range over the same item set."""


class DuplicateItemError(DatabaseError):
    """An item appears more than once inside a single sorted list."""


class UnknownItemError(DatabaseError, KeyError):
    """A random access referenced an item that is not in the list."""


class InvalidPositionError(DatabaseError, IndexError):
    """A direct access referenced a position outside ``1..n``."""


class ExhaustedListError(DatabaseError):
    """A sorted access was attempted past the end of a list."""


class ScoringError(ReproError):
    """A scoring function was invalid for the requested operation."""


class NonMonotonicScoringError(ScoringError):
    """A scoring function violated the monotonicity requirement.

    TA, BPA and BPA2 are only correct for monotonic scoring functions
    (paper, Section 2); the library checks cheap necessary conditions and
    raises this error when a violation is detected.
    """


class InvalidQueryError(ReproError):
    """A top-k query had invalid parameters (e.g. ``k < 1`` or ``k > n``)."""


class GenerationError(ReproError):
    """A synthetic database generator received unsatisfiable parameters."""


class DistributedError(ReproError):
    """A failure in the simulated distributed execution layer."""


class ProtocolError(DistributedError):
    """A node received a message it cannot handle in its current state."""


class OwnerUnavailableError(DistributedError, ConnectionError):
    """A remote list owner stopped answering within its deadline.

    Raised on a timeout, an end of stream or a framing error on an
    owner's connection; ``address`` names the owner.  The connection is
    closed at the first failure (its stream is no longer frame-aligned),
    and later requests to the same owner fail fast with this error.
    """

    def __init__(self, address: str, reason: str) -> None:
        super().__init__(f"owner at {address} is unavailable: {reason}")
        self.address = address


class ServiceError(ReproError):
    """A failure inside the query-service layer."""


class WatchServerUnavailableError(ServiceError, ConnectionError):
    """A standing-query server stopped answering within its deadline.

    Raised by :class:`repro.watch.WatchClient` on a timeout, an end of
    stream or a framing error; ``address`` names the server.  The client
    closes its socket at the first failure (its stream is no longer
    frame-aligned), and later calls fail fast with this error.
    """

    def __init__(self, address: str, reason: str) -> None:
        super().__init__(f"watch server at {address} is unavailable: {reason}")
        self.address = address


class ShardMergeError(ServiceError):
    """The shard-merge exactness certificate was violated.

    A truncated shard's k'-th returned entry outranked the merged k-th
    entry, which is impossible when every shard returned its exact
    top-k' — this always indicates a shard under-returned (a bug), never
    bad input, and the merge raises rather than serve a wrong answer.
    """


class StorageError(ReproError):
    """A failure in the on-disk list storage layer."""


class CorruptFileError(StorageError):
    """A database file failed validation (bad magic, version or size, or
    a NaN score met on read)."""
