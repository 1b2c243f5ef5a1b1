"""The owner connection's binary codec: typed-array frames.

Every message between :class:`~repro.distributed.socket_transport.SocketNetwork`
and an owner daemon is one frame: a 4-byte big-endian body length
(at most :data:`MAX_FRAME_BYTES`), then a body holding the version byte
and one *section*.  A section is a fixed little-endian ``struct`` header
followed by typed arrays — ids and positions as int64, scores as
IEEE-754 float64 — packed together with the header in one ``struct``
call and unpacked in one more, so a score's bits cross the wire
unchanged and no text is parsed on the data plane.

Request section (:data:`_OP`, 18 bytes)::

    kind u8 | flags u8 | list u32 | count i64 | ids u32 | ids x i64

``flags`` mark a ``"list"`` routing field and a metrics ``state``;
``count`` is ``sorted_block`` / ``direct_block``'s ``count``; the ids
are ``random_lookup``'s ``item`` or the other kinds' ``items``.  A
``multi`` frame is a MULTI section whose ``count`` is the number of
sub-op sections that follow it.

Reply section (:data:`_REPLY`, 10 bytes)::

    kind u8 | flags u8 | a u32 | b u32 | [bp_score f64]
    | (a + b) x f64 scores | b x i64 ids | [(a + b) x i64 positions]

A reply section names the kind it answers, so decoding needs no request
state.  For data replies ``a`` counts lookup scores and ``b`` entries
(an item and its score: a sorted block, a direct access); ``flags``
mark ``exhausted``, shipped positions (one per score) and a piggybacked
``bp_score``.  A ``state`` reply carries its four counters as ``a``
int64s, a MULTI reply ``a`` sub-sections, and the two text sections
``a`` UTF-8 bytes: ERROR, an owner-side failure, and METRICS, the
metrics document as JSON, the only JSON left on the owner connection.

Decoders return the dicts the JSON wire carried (Python ints and
floats, lists for arrays), and raise
:class:`~repro.errors.ProtocolError` for any body they cannot parse:
an unknown version byte or kind code, a section that does not fit its
kind, counts beyond the rest of the body (checked before anything is
allocated), or trailing bytes.
"""

from __future__ import annotations

import json
import struct

from repro.errors import ProtocolError

#: Version byte opening every body.
VERSION = 1

LENGTH = struct.Struct(">I")

#: Largest frame body either side will send or accept.  The protocol's
#: biggest legitimate payloads (a batched round of lookups, a pushed
#: result delta) are a few kilobytes; anything near this limit is a
#: corrupt length prefix or a hostile peer, and honouring it would make
#: :func:`recv_body` buffer unboundedly.  Oversized frames raise
#: :class:`~repro.errors.ProtocolError` *before* any body byte is read,
#: so the reader can drop the connection without desynchronising.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Request kind that asks an owner process to exit its serve loop.
SHUTDOWN = "__shutdown__"

_OP = struct.Struct("<BBIqI")
_REPLY = struct.Struct("<BBII")
_F64 = struct.Struct("<d")
_VERSION = bytes([VERSION])

# Request flags.
_LIST = 0x01
_METRICS = 0x02
# Reply flags.
_EXHAUSTED = 0x01
_POSITIONS = 0x02
_BP_SCORE = 0x04

(
    _SORTED_NEXT,
    _SORTED_BLOCK,
    _RANDOM_LOOKUP,
    _RANDOM_LOOKUP_MANY,
    _DIRECT_NEXT,
    _DIRECT_STEP,
    _DIRECT_BLOCK,
    _STATE,
    _RESET,
    _SHUTDOWN,
    _MULTI,
    _ERROR,
    _METRICS_TEXT,
) = range(1, 14)

#: request kind -> (code, payload field holding its ids, carries count)
_REQUESTS = {
    "sorted_next": (_SORTED_NEXT, None, False),
    "sorted_block": (_SORTED_BLOCK, None, True),
    "random_lookup": (_RANDOM_LOOKUP, "item", False),
    "random_lookup_many": (_RANDOM_LOOKUP_MANY, "items", False),
    "direct_next": (_DIRECT_NEXT, None, False),
    "direct_step": (_DIRECT_STEP, "items", False),
    "direct_block": (_DIRECT_BLOCK, "items", True),
    "state": (_STATE, None, False),
    "reset": (_RESET, None, False),
    SHUTDOWN: (_SHUTDOWN, None, False),
}
#: request code -> (kind, ids field, carries count, ids it must carry)
_KINDS = {
    code: (kind, ids, counted, {None: 0, "item": 1}.get(ids))
    for kind, (code, ids, counted) in _REQUESTS.items()
}

_ANY = 2**32
#: data reply code -> (lookup scores min, max, entries min, max, flags,
#: exactly one of an entry and ``exhausted``)
_SHAPES = {
    _SORTED_NEXT: (0, 0, 1, 1, _POSITIONS | _BP_SCORE, False),
    _RANDOM_LOOKUP: (1, 1, 0, 0, _POSITIONS | _BP_SCORE, False),
    _RANDOM_LOOKUP_MANY: (0, _ANY, 0, 0, _POSITIONS | _BP_SCORE, False),
    _SORTED_BLOCK: (0, 0, 0, _ANY, _POSITIONS | _BP_SCORE, False),
    _DIRECT_NEXT: (0, 0, 0, 1, _EXHAUSTED | _BP_SCORE, True),
    _DIRECT_STEP: (0, _ANY, 0, 1, _EXHAUSTED | _BP_SCORE, True),
    _DIRECT_BLOCK: (0, _ANY, 0, _ANY, _EXHAUSTED | _BP_SCORE, False),
    _RESET: (0, 0, 0, 0, 0, False),
    _SHUTDOWN: (0, 0, 0, 0, 0, False),
}
_STATE_FIELDS = ("best_position", "sorted", "random", "direct")


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def _recv_exact(sock, count: int, *, allow_eof: bool = False) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on EOF before the first
    byte when ``allow_eof``, :class:`ConnectionError` on EOF after it."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_body(sock, *, max_bytes: int = MAX_FRAME_BYTES) -> bytes | None:
    """Read one frame's body; ``None`` on a clean EOF before any byte.

    Raises :class:`~repro.errors.ProtocolError` on a length prefix over
    ``max_bytes`` (before reading any body byte) and
    :class:`ConnectionError` on a frame truncated mid-body — in either
    case the stream can no longer be trusted to be frame-aligned.
    """
    header = _recv_exact(sock, LENGTH.size, allow_eof=True)
    if header is None:
        return None
    (length,) = LENGTH.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"peer announced {length}-byte frame (limit {max_bytes})"
        )
    return _recv_exact(sock, length)


def _frame(sections: list[bytes]) -> bytes:
    length = 1 + sum(map(len, sections))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    return b"".join([LENGTH.pack(length), _VERSION, *sections])


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


def encode_request(kind: str, payload: dict | None) -> bytes:
    """One request frame (length prefix included).

    Raises :class:`~repro.errors.ProtocolError`, before anything is
    written, for a kind without a wire code, a field the kind's section
    cannot carry, or a value outside its field (an id outside int64).
    """
    payload = payload or {}
    try:
        if kind == "multi":
            ops = payload["ops"]
            sections = [_OP.pack(_MULTI, 0, 0, len(ops), 0)]
            sections += [
                _request_section(op["kind"], op.get("payload") or {}) for op in ops
            ]
            if len(payload) != 1:
                raise ProtocolError(f"multi request fields {sorted(payload)}")
        else:
            sections = [_request_section(kind, payload)]
    except (AttributeError, KeyError, TypeError, struct.error) as exc:
        raise ProtocolError(f"cannot encode {kind!r} request: {exc!r}") from exc
    return _frame(sections)


def _request_section(kind: str, payload: dict) -> bytes:
    spec = _REQUESTS.get(kind)
    if spec is None:
        raise ProtocolError(f"request kind {kind!r} has no wire code")
    code, ids_field, counted = spec
    flags = index = count = 0
    unread = len(payload)
    if "list" in payload:
        flags, index, unread = _LIST, payload["list"], unread - 1
    if "metrics" in payload:
        unread -= 1
        if payload["metrics"]:
            flags |= _METRICS
    if counted:
        count, unread = payload["count"], unread - 1
    ids = ()
    if ids_field is not None:
        ids = (payload["item"],) if ids_field == "item" else payload[ids_field]
        unread -= 1
    if unread:
        raise ProtocolError(f"{kind} request fields {sorted(payload)}")
    return struct.pack(f"<BBIqI{len(ids)}q", code, flags, index, count, len(ids), *ids)


def decode_request(body: bytes) -> tuple[str, dict]:
    """The ``(kind, payload)`` of one request body."""
    head, offset = _unpack(_OP, body, _open(body))
    code, flags, index, count, n_ids = head
    if code != _MULTI:
        kind, payload, offset = _request_op(body, offset, head)
    elif flags or index or n_ids or count < 0:
        raise ProtocolError("malformed multi section")
    else:
        ops = []
        for _ in range(count):
            sub, offset = _unpack(_OP, body, offset)
            kind, payload, offset = _request_op(body, offset, sub)
            ops.append({"kind": kind, "payload": payload})
        kind, payload = "multi", {"ops": ops}
    _close(body, offset)
    return kind, payload


def _request_op(body: bytes, offset: int, head: tuple) -> tuple[str, dict, int]:
    code, flags, index, count, n_ids = head
    spec = _KINDS.get(code)
    if spec is None:
        raise ProtocolError(f"unknown request kind code {code}")
    kind, ids_field, counted, arity = spec
    if (
        flags & ~(_LIST | _METRICS)
        or (index and not flags & _LIST)
        or (count and not counted)
        or (arity is not None and n_ids != arity)
    ):
        raise ProtocolError(f"malformed {kind} section")
    payload: dict = {}
    if flags & _LIST:
        payload["list"] = index
    if counted:
        payload["count"] = count
    if ids_field is not None:
        start, offset = offset, _extent(body, offset, n_ids)
        ids = struct.unpack_from(f"<{n_ids}q", body, start)
        payload[ids_field] = ids[0] if arity == 1 else list(ids)
    if flags & _METRICS:
        payload["metrics"] = True
    return kind, payload, offset


# ----------------------------------------------------------------------
# Replies
# ----------------------------------------------------------------------


def encode_reply(kind: str, payload: dict, response: dict) -> bytes:
    """One reply frame for the decoded request ``(kind, payload)``."""
    if kind == "multi":
        ops = payload["ops"]
        sections = [_REPLY.pack(_MULTI, 0, len(ops), 0)]
        sections += [
            _reply_section(op["kind"], op["payload"], result)
            for op, result in zip(ops, response["results"])
        ]
    else:
        sections = [_reply_section(kind, payload, response)]
    return _frame(sections)


def encode_error(message: str) -> bytes:
    """An error reply frame carrying ``message``."""
    return _frame([_text_section(_ERROR, message)])


def _text_section(code: int, text: str) -> bytes:
    data = text.encode("utf-8")
    return _REPLY.pack(code, 0, len(data), 0) + data


def _reply_section(kind: str, payload: dict, response: dict) -> bytes:
    code = _REQUESTS[kind][0]
    if code == _STATE:
        if payload.get("metrics"):
            return _text_section(_METRICS_TEXT, json.dumps(response))
        values = [response[name] for name in _STATE_FIELDS]
        return struct.pack("<BBII4q", _STATE, 0, 4, 0, *values)
    lookups = response.get("scores", ())
    ids = scores = positions = bp_score = ()
    if "items" in response:
        lookups, ids, scores = (), response["items"], lookups
    elif "entries" in response:
        ids = [item for item, _score in response["entries"]]
        scores = [score for _item, score in response["entries"]]
    elif "item" in response:
        ids, scores = (response["item"],), (response["score"],)
    elif "score" in response:
        lookups = (response["score"],)
    flags = _EXHAUSTED if response.get("exhausted") else 0
    if "bp_score" in response:
        flags, bp_score = flags | _BP_SCORE, (response["bp_score"],)
    if "positions" in response:
        flags, positions = flags | _POSITIONS, response["positions"]
    elif "position" in response:
        flags, positions = flags | _POSITIONS, (response["position"],)
    total = len(lookups) + len(ids)
    ints = len(ids) + (total if flags & _POSITIONS else 0)
    return struct.pack(
        f"<BBII{len(bp_score) + total}d{ints}q",
        code,
        flags,
        len(lookups),
        len(ids),
        *bp_score,
        *lookups,
        *scores,
        *ids,
        *positions,
    )


def decode_reply(body: bytes) -> dict:
    """The response dict of one reply body.

    An ERROR section decodes to ``{"__error__": message}``, a MULTI
    section to ``{"results": [...]}``.
    """
    head, offset = _unpack(_REPLY, body, _open(body))
    code, flags, count, extra = head
    if code == _ERROR:
        message, offset = _text(body, offset, head)
        response = {"__error__": message}
    elif code != _MULTI:
        response, offset = _reply_op(body, offset, head)
    elif flags or extra:
        raise ProtocolError("malformed multi section")
    else:
        results = []
        for _ in range(count):
            sub, offset = _unpack(_REPLY, body, offset)
            result, offset = _reply_op(body, offset, sub)
            results.append(result)
        response = {"results": results}
    _close(body, offset)
    return response


def _reply_op(body: bytes, offset: int, head: tuple) -> tuple[dict, int]:
    code, flags, lookups, entries = head
    shape = _SHAPES.get(code)
    if shape is None:
        return _control_reply(body, offset, head)
    low, high, least, most, allowed, one_of = shape
    if (
        flags & ~allowed
        or not low <= lookups <= high
        or not least <= entries <= most
        or (one_of and bool(entries) == bool(flags & _EXHAUSTED))
    ):
        raise ProtocolError(f"malformed {_KINDS[code][0]} section")
    bp = 1 if flags & _BP_SCORE else 0
    total = lookups + entries
    ints = entries + (total if flags & _POSITIONS else 0)
    start, offset = offset, _extent(body, offset, bp + total + ints)
    values = struct.unpack_from(f"<{bp + total}d{ints}q", body, start)
    mid = bp + total  # where the int64 group starts
    if code == _SORTED_BLOCK:
        response = {"items": list(values[mid : mid + entries]), "scores": list(values[bp:mid])}
    elif code == _RANDOM_LOOKUP_MANY:
        response = {"scores": list(values[bp:mid])}
    elif code == _DIRECT_BLOCK:
        response = {
            "scores": list(values[bp : bp + lookups]),
            "entries": list(zip(values[mid : mid + entries], values[bp + lookups : mid])),
            "exhausted": bool(flags & _EXHAUSTED),
        }
    elif code == _RANDOM_LOOKUP:
        response = {"score": values[bp]}
    else:  # at most one entry: sorted_next, direct_next, direct_step, reset, shutdown
        response = {"scores": list(values[bp : bp + lookups])} if code == _DIRECT_STEP else {}
        if flags & _EXHAUSTED:
            response["exhausted"] = True
        elif entries:
            response["item"], response["score"] = values[mid], values[mid - 1]
    if flags & _POSITIONS:
        if code in (_SORTED_NEXT, _RANDOM_LOOKUP):
            response["position"] = values[mid + entries]
        else:
            response["positions"] = list(values[mid + entries :])
    if bp:
        response["bp_score"] = values[0]
    return response, offset


def _control_reply(body: bytes, offset: int, head: tuple) -> tuple[dict, int]:
    """A reply section that is not a data access: state, metrics."""
    code, flags, count, extra = head
    if code == _STATE:
        if flags or count != 4 or extra:
            raise ProtocolError("malformed state section")
        start, offset = offset, _extent(body, offset, 4)
        return dict(zip(_STATE_FIELDS, struct.unpack_from("<4q", body, start))), offset
    if code != _METRICS_TEXT:
        raise ProtocolError(f"unknown reply kind code {code}")
    text, offset = _text(body, offset, head)
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise ProtocolError(f"undecodable metrics document: {exc}") from exc
    if not isinstance(document, dict):
        raise ProtocolError("metrics document must be a JSON object")
    return document, offset


# ----------------------------------------------------------------------
# Body reading helpers
# ----------------------------------------------------------------------


def _open(body: bytes) -> int:
    if body[:1] != _VERSION:
        raise ProtocolError(f"unsupported wire version {body[:1]!r}")
    return 1


def _close(body: bytes, offset: int) -> None:
    if offset != len(body):
        raise ProtocolError(f"{len(body) - offset} trailing bytes after the frame")


def _unpack(layout: struct.Struct, body: bytes, offset: int) -> tuple[tuple, int]:
    end = offset + layout.size
    if end > len(body):
        raise ProtocolError("frame ends inside a section header")
    return layout.unpack_from(body, offset), end


def _extent(body: bytes, offset: int, count: int) -> int:
    """End of ``count`` 8-byte values at ``offset``, checked against the
    body before anything is unpacked or allocated."""
    end = offset + 8 * count
    if end > len(body):
        raise ProtocolError(
            f"section announces {count} values, {len(body) - offset} bytes remain"
        )
    return end


def _text(body: bytes, offset: int, head: tuple) -> tuple[str, int]:
    _code, flags, size, extra = head
    end = offset + size
    if flags or extra or end > len(body):
        raise ProtocolError("malformed text section")
    try:
        return body[offset:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable text section: {exc}") from exc
