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
``state``                 → the session's best position and access tally
                          (remote transports read end-of-query state
                          through this instead of peeking at objects)
``get_scores_above``      ``{"threshold": t}`` → all entries scoring >= t
                          (TPUT phase 2 bulk fetch)
``top``                   ``{"count": c}`` → the first c entries (TPUT
                          phase 1 bulk fetch)
``reset``                 clear per-query state
========================  ====================================================

Concurrent queries: every request may carry a ``"session"`` id.  Each
session gets its own sorted-access cursor, access tally and best-position
tracker, so interleaved queries against the same owner do not disturb
each other (see :class:`_Session`).  Requests without a session id share
the default session, preserving the single-query API.

One node class serves every source.  Batched lookups answer with one
NumPy gather when the list has a vectorized ``lookup_many`` (a
:class:`~repro.columnar.ColumnarList`) and every item is known, and
with the per-item loop otherwise; sorted blocks come from
:meth:`ListAccessor.sorted_block_raw`, which slices columnar arrays and
reads other sources entry by entry.  Responses, tallies, best-position
walks and piggyback points are identical either way
(``tests/unit/test_owner_daemon.py`` drives a plain and a columnar
database through the same op sequences to prove it).
"""

from __future__ import annotations

from repro.core.best_position import BestPositionTracker, make_tracker
from repro.errors import ProtocolError, UnknownItemError
from repro.lists.accessor import ListAccessor, SortedListLike
from repro.types import Position, Score

#: Session id used when a request does not specify one.
DEFAULT_SESSION = "default"


class _Session:
    """Per-query state at one owner: cursor/tally + best positions."""

    __slots__ = ("accessor", "tracker")

    def __init__(self, sorted_list: SortedListLike, tracker_kind: str) -> None:
        self.accessor = ListAccessor(sorted_list)
        self.tracker: BestPositionTracker = make_tracker(
            tracker_kind, len(sorted_list)
        )


class ListOwnerNode:
    """One list owner in the simulated distributed system.

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
        #: the source's vectorized batch lookup, when it has one
        self._gather = getattr(sorted_list, "lookup_many", None)
        self._tracker_kind = tracker
        self._include_position = include_position
        self._sessions: dict[str, _Session] = {}
        self._session_for(DEFAULT_SESSION)

    def _session_for(self, session_id: str) -> _Session:
        session = self._sessions.get(session_id)
        if session is None:
            session = _Session(self._list, self._tracker_kind)
            self._sessions[session_id] = session
        return session

    @property
    def _accessor(self) -> ListAccessor:
        # Default-session accessor; kept as the public single-query view.
        return self._sessions[DEFAULT_SESSION].accessor

    @property
    def _tracker(self) -> BestPositionTracker:
        return self._sessions[DEFAULT_SESSION].tracker

    # ------------------------------------------------------------------
    # Owner-side state (default-session views, used by the drivers)
    # ------------------------------------------------------------------

    @property
    def accessor(self) -> ListAccessor:
        """The metered accessor (for post-run access accounting)."""
        return self._accessor

    @property
    def best_position(self) -> Position:
        """The locally managed best position (default session)."""
        return self._tracker.best_position

    def best_position_score(self, session: str = DEFAULT_SESSION) -> Score:
        """Local score at the best position (inf while nothing is seen)."""
        bp = self._session_for(session).tracker.best_position
        if bp == 0:
            return float("inf")
        return self._list.score_at(bp)

    def session_tally(self, session: str):
        """Access tally of one session (for per-query accounting)."""
        return self._session_for(session).accessor.tally

    @property
    def active_sessions(self) -> tuple[str, ...]:
        """Ids of all sessions this owner has seen."""
        return tuple(self._sessions)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def handle(self, kind: str, payload: dict) -> dict:
        """Serve one request (see module docstring for the protocol)."""
        session = self._session_for(payload.get("session", DEFAULT_SESSION))
        if kind == "sorted_next":
            return self._sorted_next(session)
        if kind == "random_lookup":
            return self._random_lookup(session, payload["item"])
        if kind == "random_lookup_many":
            return self._random_lookup_many(session, payload["items"])
        if kind == "sorted_block":
            return self._sorted_block(session, payload["count"])
        if kind == "direct_next":
            return self._direct_next(session)
        if kind == "direct_step":
            return self._direct_step(session, payload["items"])
        if kind == "direct_block":
            return self._direct_block(
                session, payload.get("items", []), payload["count"]
            )
        if kind == "state":
            return self._state(session)
        if kind == "top":
            return self._top(session, payload["count"])
        if kind == "get_scores_above":
            return self._get_scores_above(session, payload["threshold"])
        if kind == "reset":
            self.reset(payload.get("session", DEFAULT_SESSION))
            return {}
        raise ProtocolError(f"unknown request kind: {kind!r}")

    def reset(self, session_id: str = DEFAULT_SESSION) -> None:
        """Clear one session's state (cursor, tally, best position)."""
        self._sessions[session_id] = _Session(self._list, self._tracker_kind)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _sorted_next(self, session: _Session) -> dict:
        entry = session.accessor.sorted_next()
        old_bp = session.tracker.best_position
        session.tracker.mark(entry.position)
        response = {"item": entry.item, "score": entry.score}
        if self._include_position:
            response["position"] = entry.position
        self._piggyback(session, response, old_bp)
        return response

    def _random_lookup(self, session: _Session, item: int) -> dict:
        score, position = session.accessor.random_lookup(item)
        old_bp = session.tracker.best_position
        session.tracker.mark(position)
        response: dict = {"score": score}
        if self._include_position:
            response["position"] = position
        self._piggyback(session, response, old_bp)
        return response

    def _lookups(
        self, session: _Session, items: list[int]
    ) -> tuple[list[Score], list[Position]]:
        """Metered random accesses for ``items``, each position marked.

        The per-item operations of ``random_lookup``, in order: one
        metered access and one tracker mark each.  A vectorized source
        answers an all-known batch with one gather instead; any item it
        cannot serve sends the batch through the per-item loop, which
        fails at the same item with the same partial tally and marks.
        """
        if items and self._gather is not None:
            try:
                scores, positions = self._gather(items)
            except UnknownItemError:
                pass
            else:
                session.accessor.tally.random += len(items)
                positions = positions.tolist()
                for position in positions:
                    session.tracker.mark(position)
                return scores.tolist(), positions
        scores: list[Score] = []
        positions: list[Position] = []
        for item in items:
            score, position = session.accessor.random_lookup(item)
            session.tracker.mark(position)
            scores.append(score)
            positions.append(position)
        return scores, positions

    def _random_lookup_many(self, session: _Session, items: list[int]) -> dict:
        """Batched random access: one message for a round's lookups.

        The owner-side operations of ``len(items)`` ``random_lookup``
        requests (see :meth:`_lookups`), but a single response; the
        best-position score is piggybacked once if the whole batch
        advanced it.
        """
        old_bp = session.tracker.best_position
        scores, positions = self._lookups(session, items)
        response: dict = {"scores": scores}
        if self._include_position:
            response["positions"] = positions
        self._piggyback(session, response, old_bp)
        return response

    def _sorted_block(self, session: _Session, count: int) -> dict:
        """Block sorted access: up to ``count`` entries in one message.

        The per-entry operations (metered accesses and tracker marks)
        are identical to ``count`` ``sorted_next`` requests; only the
        message count changes.  The block is clipped at the list end.
        """
        old_bp = session.tracker.best_position
        positions, items, scores = session.accessor.sorted_block_raw(count)
        for position in positions:
            session.tracker.mark(position)
        response: dict = {"items": items, "scores": scores}
        if self._include_position:
            response["positions"] = positions
        self._piggyback(session, response, old_bp)
        return response

    def _direct_block(self, session: _Session, items: list[int], count: int) -> dict:
        """Block BPA2 step: pending lookups, then up to ``count`` direct
        accesses, each at the (possibly advanced) best position + 1.

        ``exhausted`` reports whether the best position reached the list
        end while serving, so the originator can stop planning steps for
        this list without an extra probe message.
        """
        old_bp = session.tracker.best_position
        scores, _positions = self._lookups(session, items)
        entries: list[tuple[int, Score]] = []
        for _ in range(count):
            position = session.tracker.best_position + 1
            if position > len(session.accessor):
                break
            entry = session.accessor.direct_at(position)
            session.tracker.mark(entry.position)
            entries.append((entry.item, entry.score))
        response: dict = {
            "scores": scores,
            "entries": entries,
            "exhausted": session.tracker.best_position
            >= len(session.accessor),
        }
        self._piggyback(session, response, old_bp)
        return response

    def _state(self, session: _Session) -> dict:
        """End-of-query state: best position plus the access tally."""
        tally = session.accessor.tally
        return {
            "best_position": session.tracker.best_position,
            "sorted": tally.sorted,
            "random": tally.random,
            "direct": tally.direct,
        }

    def _direct_next(self, session: _Session) -> dict:
        position = session.tracker.best_position + 1
        if position > len(session.accessor):
            return {"exhausted": True}
        entry = session.accessor.direct_at(position)
        old_bp = session.tracker.best_position
        session.tracker.mark(entry.position)
        response = {"item": entry.item, "score": entry.score}
        self._piggyback(session, response, old_bp)
        return response

    def _direct_step(self, session: _Session, items: list[int]) -> dict:
        """BPA2 round step: pending lookups, then one direct access.

        The per-item operations (and hence this owner's best-position
        walk, tally and piggyback points) are identical to receiving
        ``len(items)`` ``random_lookup`` requests followed by one
        ``direct_next`` — only the message count changes.
        """
        old_bp = session.tracker.best_position
        scores, _positions = self._lookups(session, items)
        response: dict = {"scores": scores}
        position = session.tracker.best_position + 1
        if position > len(session.accessor):
            response["exhausted"] = True
        else:
            entry = session.accessor.direct_at(position)
            session.tracker.mark(entry.position)
            response["item"] = entry.item
            response["score"] = entry.score
        self._piggyback(session, response, old_bp)
        return response

    def _top(self, session: _Session, count: int) -> dict:
        """TPUT phase 1: the first ``count`` entries in one message."""
        count = min(count, len(session.accessor))
        entries = []
        for _ in range(count):
            entry = session.accessor.sorted_next()
            entries.append((entry.item, entry.score))
        return {"entries": entries}

    def _get_scores_above(self, session: _Session, threshold: float) -> dict:
        """TPUT phase 2: every entry scoring at least ``threshold``.

        Continues sorted access from the current cursor; entries already
        shipped in phase 1 are not repeated.
        """
        entries = []
        while not session.accessor.exhausted:
            entry = session.accessor.sorted_next()
            if entry.score < threshold:
                break
            entries.append((entry.item, entry.score))
        return {"entries": entries}

    def _piggyback(self, session: _Session, response: dict, old_bp: Position) -> None:
        """Attach the best-position score when the access advanced it."""
        new_bp = session.tracker.best_position
        if new_bp != old_bp:
            response["bp_score"] = self._list.score_at(new_bp)
