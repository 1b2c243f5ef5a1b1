"""List-owner nodes.

Each node owns one sorted list and serves the three access modes over the
network.  For BPA-family queries it also maintains the list's best
position locally (paper Section 5: "the best positions are managed by the
list owners") and piggybacks the best-position local score onto responses
whenever an access changed it — that is BPA2's step 3.

Supported request kinds:

========================  ====================================================
``sorted_next``           next entry under sorted access
``random_lookup``         ``{"item": id}`` → local score (+ position when
                          ``include_position`` was enabled, as BPA needs)
``random_lookup_many``    ``{"items": [ids]}`` → all their scores in one
                          message (the batched transport's round lookup)
``sorted_block``          ``{"count": b}`` → the next up-to-``b`` entries
                          under sorted access in one message (the block
                          variants' sorted wave; clipped at the list end)
``direct_next``           entry at ``bp + 1`` (BPA2's direct access)
``direct_step``           ``{"items": [ids]}`` → the pending lookups for
                          ``items`` followed by one direct access, in one
                          message (the batched transport's BPA2 step)
``direct_block``          ``{"items": [ids], "count": b}`` → the pending
                          lookups, then up to ``b`` direct accesses, each
                          at the (possibly advanced) best position + 1
                          (the block BPA2 round step)
``state``                 → the best position and access tally
                          (remote transports read end-of-query state
                          through this instead of peeking at objects)
``get_scores_above``      ``{"threshold": t}`` → all entries scoring >= t
                          (TPUT phase 2 bulk fetch)
``top``                   ``{"count": c}`` → the first c entries (TPUT
                          phase 1 bulk fetch)
``reset``                 clear per-query state
========================  ====================================================

An owner serves one query between ``reset`` requests: it holds exactly
one sorted-access cursor, one access tally and one best-position
tracker, so its state stays the size of its list whatever the wire
sends.  A coordinator that runs queries one after another resets the
owners in between, as ``repro-topk cluster serve`` clients do.

One node class serves every source, one path per access kind.  A
request is served from the list's plain-list mirrors
(:class:`~repro.lists.accessor.ListMirrors`: ids and scores by
position, and an id -> position dict), which an immutable list builds once
and shares with every node and query over it: a batch of lookups is one
pass over the id dict, a sorted block two slices, a direct block the
tracker's direct walk, and a piggybacked ``bp_score`` one index.  The
tracker marks each request's positions in bulk (a batch, a range, or
the walk).  A batch holding an id the mirrors cannot name replays
through the per-item loop, so it fails at that id with the partial
tally and marks of the accesses before it, as single lookups would.
Responses, tallies, best-position walks and piggyback points are the
same for every source (``tests/unit/test_owner_daemon.py`` and
``tests/differential/test_owner_mirrors.py`` drive plain and columnar
lists through the same op sequences to prove it).
"""

from __future__ import annotations

from repro.core.best_position import BestPositionTracker, make_tracker
from repro.errors import ExhaustedListError, ProtocolError
from repro.lists.accessor import ListAccessor, SortedListLike, list_mirrors
from repro.types import ItemId, Position, Score


class ListOwnerNode:
    """The server side of one list (owner daemons host one per list).

    Args:
        sorted_list: the list this node owns (any backend
            satisfying :class:`repro.lists.accessor.SortedListLike` —
            plain :class:`~repro.lists.sorted_list.SortedList` or columnar).
        tracker: best-position structure kind (``"bitarray"`` default).
        include_position: ship item positions in ``random_lookup``
            responses (BPA needs them at the originator; BPA2 does not,
            which is exactly its communication saving).
    """

    def __init__(
        self,
        sorted_list: SortedListLike,
        *,
        tracker: str = "bitarray",
        include_position: bool = False,
    ) -> None:
        self._list = sorted_list
        self._tracker_kind = tracker
        self._include_position = include_position
        self.reset()

    # ------------------------------------------------------------------
    # Owner-side state (used by the drivers)
    # ------------------------------------------------------------------

    @property
    def accessor(self) -> ListAccessor:
        """The metered accessor (for post-run access accounting)."""
        return self._accessor

    @property
    def best_position(self) -> Position:
        """The locally managed best position."""
        return self._tracker.best_position

    def best_position_score(self) -> Score:
        """Local score at the best position (inf while nothing is seen)."""
        bp = self._tracker.best_position
        if bp == 0:
            return float("inf")
        return self._mirrors.scores[bp]

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def handle(self, kind: str, payload: dict) -> dict:
        """Serve one request (see module docstring for the protocol)."""
        if kind == "sorted_next":
            return self._sorted_next()
        if kind == "random_lookup":
            return self._random_lookup(payload["item"])
        if kind == "random_lookup_many":
            return self._random_lookup_many(payload["items"])
        if kind == "sorted_block":
            return self._sorted_block(payload["count"])
        if kind == "direct_next":
            return self._direct_next()
        if kind == "direct_step":
            return self._direct_step(payload["items"])
        if kind == "direct_block":
            return self._direct_block(payload.get("items", []), payload["count"])
        if kind == "state":
            return self._state()
        if kind == "top":
            return self._top(payload["count"])
        if kind == "get_scores_above":
            return self._get_scores_above(payload["threshold"])
        if kind == "reset":
            self.reset()
            return {}
        raise ProtocolError(f"unknown request kind: {kind!r}")

    def reset(self) -> None:
        """Clear the per-query state (cursor, tally, best position)."""
        self._mirrors = list_mirrors(self._list)
        self._accessor = ListAccessor(self._list)
        self._tracker: BestPositionTracker = make_tracker(
            self._tracker_kind, len(self._list)
        )

    # ------------------------------------------------------------------
    # Access paths: one per access kind, each serving a whole request
    # ------------------------------------------------------------------

    def _sorted(self, count: int) -> range:
        """Metered sorted access to up to ``count`` next positions, all
        marked (clipped at the list end)."""
        positions = self._accessor.claim_sorted(count)
        self._tracker.mark_range(positions.start, positions.stop)
        return positions

    def _lookups(self, items: list[ItemId]) -> tuple[list[Score], list[Position]]:
        """Metered random accesses for ``items``, each position marked.

        The tally and marks equal ``len(items)`` ``random_lookup``
        requests.  An id the mirrors cannot name sends the batch through
        the per-item loop, which fails at that id with the accesses
        before it counted and marked (or, for an id only the list's own
        ``lookup`` can name, answers it).
        """
        named = self._mirrors.positions
        try:
            positions = [named[item] for item in items]
        except (KeyError, TypeError):
            scores: list[Score] = []
            positions = []
            for item in items:
                score, position = self._accessor.random_lookup(item)
                self._tracker.mark(position)
                scores.append(score)
                positions.append(position)
            return scores, positions
        self._accessor.tally.random += len(positions)
        self._tracker.mark_many(positions)
        scores = self._mirrors.scores
        return [scores[position] for position in positions], positions

    def _direct(self, count: int) -> list[Position]:
        """Up to ``count`` metered direct accesses, each at the best
        position + 1 the one before left (BPA2's walk)."""
        positions = self._tracker.direct_walk(count)
        self._accessor.tally.direct += len(positions)
        return positions

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _sorted_next(self) -> dict:
        old_bp = self._tracker.best_position
        positions = self._sorted(1)
        if not positions:
            raise ExhaustedListError(
                f"sorted access past the end of {self._list.name or 'list'}"
            )
        (position,) = positions
        mirrors = self._mirrors
        response = {"item": mirrors.items[position], "score": mirrors.scores[position]}
        if self._include_position:
            response["position"] = position
        self._piggyback(response, old_bp)
        return response

    def _random_lookup(self, item: ItemId) -> dict:
        old_bp = self._tracker.best_position
        scores, positions = self._lookups([item])
        response: dict = {"score": scores[0]}
        if self._include_position:
            response["position"] = positions[0]
        self._piggyback(response, old_bp)
        return response

    def _random_lookup_many(self, items: list[ItemId]) -> dict:
        """Batched random access: one message for a round's lookups.

        The owner-side operations of ``len(items)`` ``random_lookup``
        requests (see :meth:`_lookups`), but a single response; the
        best-position score is piggybacked once if the whole batch
        advanced it.
        """
        old_bp = self._tracker.best_position
        scores, positions = self._lookups(items)
        response: dict = {"scores": scores}
        if self._include_position:
            response["positions"] = positions
        self._piggyback(response, old_bp)
        return response

    def _sorted_block(self, count: int) -> dict:
        """Block sorted access: up to ``count`` entries in one message.

        The per-entry operations (metered accesses and tracker marks)
        are identical to ``count`` ``sorted_next`` requests; only the
        message count changes.  The block is clipped at the list end.
        """
        old_bp = self._tracker.best_position
        positions = self._sorted(count)
        start, stop = positions.start, positions.stop
        mirrors = self._mirrors
        response: dict = {
            "items": mirrors.items[start:stop],
            "scores": mirrors.scores[start:stop],
        }
        if self._include_position:
            response["positions"] = list(positions)
        self._piggyback(response, old_bp)
        return response

    def _direct_block(self, items: list[ItemId], count: int) -> dict:
        """Block BPA2 step: pending lookups, then up to ``count`` direct
        accesses, each at the (possibly advanced) best position + 1.

        ``exhausted`` reports whether the best position reached the list
        end while serving, so the originator can stop planning steps for
        this list without an extra probe message.
        """
        old_bp = self._tracker.best_position
        scores, _positions = self._lookups(items)
        mirrors = self._mirrors
        listed, ranked = mirrors.items, mirrors.scores
        response: dict = {
            "scores": scores,
            "entries": [
                (listed[position], ranked[position])
                for position in self._direct(count)
            ],
            "exhausted": self._tracker.best_position >= len(self._accessor),
        }
        self._piggyback(response, old_bp)
        return response

    def _state(self) -> dict:
        """End-of-query state: best position plus the access tally."""
        tally = self._accessor.tally
        return {
            "best_position": self._tracker.best_position,
            "sorted": tally.sorted,
            "random": tally.random,
            "direct": tally.direct,
        }

    def _direct_next(self) -> dict:
        old_bp = self._tracker.best_position
        positions = self._direct(1)
        if not positions:
            return {"exhausted": True}
        position = positions[0]
        mirrors = self._mirrors
        response = {"item": mirrors.items[position], "score": mirrors.scores[position]}
        self._piggyback(response, old_bp)
        return response

    def _direct_step(self, items: list[ItemId]) -> dict:
        """BPA2 round step: pending lookups, then one direct access.

        The per-item operations (and hence this owner's best-position
        walk, tally and piggyback points) are identical to receiving
        ``len(items)`` ``random_lookup`` requests followed by one
        ``direct_next`` — only the message count changes.
        """
        old_bp = self._tracker.best_position
        scores, _positions = self._lookups(items)
        response: dict = {"scores": scores}
        positions = self._direct(1)
        if positions:
            mirrors = self._mirrors
            response["item"] = mirrors.items[positions[0]]
            response["score"] = mirrors.scores[positions[0]]
        else:
            response["exhausted"] = True
        self._piggyback(response, old_bp)
        return response

    def _top(self, count: int) -> dict:
        """TPUT phase 1: the first ``count`` entries in one message."""
        count = min(count, len(self._accessor))
        entries = []
        for _ in range(count):
            entry = self._accessor.sorted_next()
            entries.append((entry.item, entry.score))
        return {"entries": entries}

    def _get_scores_above(self, threshold: float) -> dict:
        """TPUT phase 2: every entry scoring at least ``threshold``.

        Continues sorted access from the current cursor; entries already
        shipped in phase 1 are not repeated.
        """
        entries = []
        while not self._accessor.exhausted:
            entry = self._accessor.sorted_next()
            if entry.score < threshold:
                break
            entries.append((entry.item, entry.score))
        return {"entries": entries}

    def _piggyback(self, response: dict, old_bp: Position) -> None:
        """Attach the best-position score when the access advanced it."""
        new_bp = self._tracker.best_position
        if new_bp != old_bp:
            response["bp_score"] = self._mirrors.scores[new_bp]
