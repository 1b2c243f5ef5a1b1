"""The owner connection's binary codec (:mod:`repro.distributed.wire`).

* Round trips: every request kind a coordinator sends over sockets and
  every reply shape an owner answers with decode to the dict that was
  encoded, with floats compared by their bits (``float.hex``): -0.0,
  infinities, NaN, subnormals, int64 extremes and empty arrays included.
* Fuzzing: arbitrary and mutated bodies either decode or raise
  :class:`~repro.errors.ProtocolError`, and decoding never allocates
  more than a small multiple of the body it was given.
* Hardening: the binary reader's counterparts of the JSON frame
  reader's tests in ``tests/differential/test_socket_transport.py``.
"""

from __future__ import annotations

import socket
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnarDatabase
from repro.datagen import make_generator
from repro.distributed import wire
from repro.distributed.daemon import OwnerDaemon
from repro.errors import ProtocolError

INT64 = st.integers(-(2**63), 2**63 - 1)
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
EDGE_FLOATS = (-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 2.2e-308)
EDGE_IDS = (-(2**63), 2**63 - 1, 0, -1)
#: the request kinds a coordinator sends over sockets, with their fields
SIMPLE_KINDS = (
    "sorted_next",
    "sorted_block",
    "random_lookup",
    "random_lookup_many",
    "direct_next",
    "direct_step",
    "direct_block",
    "state",
    "reset",
)


def canonical(value):
    """Compare-by-bits form: floats by ``float.hex``, types kept apart."""
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def body_of(frame: bytes) -> bytes:
    (length,) = wire.LENGTH.unpack(frame[:4])
    assert length == len(frame) - 4
    return frame[4:]


def request_round_trip(kind, payload):
    return wire.decode_request(body_of(wire.encode_request(kind, payload)))


def reply_round_trip(kind, payload, response):
    return wire.decode_reply(body_of(wire.encode_reply(kind, payload, response)))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def request_payloads(draw, kind):
    payload = {}
    if kind in ("sorted_block", "direct_block"):
        payload["count"] = draw(INT64)
    if kind == "random_lookup":
        payload["item"] = draw(INT64)
    if kind in ("random_lookup_many", "direct_step", "direct_block"):
        payload["items"] = draw(st.lists(INT64, max_size=12))
    if kind == "state" and draw(st.booleans()):
        payload["metrics"] = True
    if draw(st.booleans()):
        payload["list"] = draw(st.integers(0, 2**32 - 1))
    return payload


@st.composite
def requests(draw, multi=True):
    kinds = SIMPLE_KINDS + (wire.SHUTDOWN,) + (("multi",) if multi else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "multi":
        ops = draw(st.lists(requests(multi=False), max_size=8))
        return "multi", {"ops": [{"kind": k, "payload": p} for k, p in ops]}
    if kind == wire.SHUTDOWN:
        return kind, {}
    return kind, draw(request_payloads(kind))


@st.composite
def replies(draw, kind):
    """A response shaped like the one an owner answers ``kind`` with."""
    size = draw(st.integers(0, 10))
    response: dict = {}
    if kind == "sorted_next":
        response = {"item": draw(INT64), "score": draw(FLOATS)}
    elif kind == "random_lookup":
        response = {"score": draw(FLOATS)}
    elif kind == "random_lookup_many":
        response = {"scores": draw(st.lists(FLOATS, min_size=size, max_size=size))}
    elif kind == "sorted_block":
        response = {
            "items": draw(st.lists(INT64, min_size=size, max_size=size)),
            "scores": draw(st.lists(FLOATS, min_size=size, max_size=size)),
        }
    elif kind in ("direct_next", "direct_step"):
        if kind == "direct_step":
            response["scores"] = draw(st.lists(FLOATS, max_size=10))
        if draw(st.booleans()):
            response["exhausted"] = True
        else:
            response["item"], response["score"] = draw(INT64), draw(FLOATS)
    elif kind == "direct_block":
        response = {
            "scores": draw(st.lists(FLOATS, max_size=10)),
            "entries": draw(st.lists(st.tuples(INT64, FLOATS), max_size=10)),
            "exhausted": draw(st.booleans()),
        }
    elif kind == "state":
        response = dict(zip(wire._STATE_FIELDS, draw(st.lists(INT64, min_size=4, max_size=4))))
    if kind in ("sorted_next", "random_lookup") and draw(st.booleans()):
        response["position"] = draw(INT64)
    if kind in ("random_lookup_many", "sorted_block") and draw(st.booleans()):
        response["positions"] = draw(
            st.lists(INT64, min_size=len(response["scores"]), max_size=len(response["scores"]))
        )
    if kind not in ("state", "reset", wire.SHUTDOWN) and draw(st.booleans()):
        response["bp_score"] = draw(FLOATS)
    return response


METRICS_DOCUMENTS = st.dictionaries(
    st.text(max_size=8),
    st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    max_size=5,
)


@st.composite
def exchanges(draw):
    """A decoded request and the response an owner would answer it with."""
    kind, payload = draw(requests())

    def answer(sub_kind, sub_payload):
        if sub_kind == "state" and sub_payload.get("metrics"):
            return draw(METRICS_DOCUMENTS)
        return draw(replies(sub_kind))

    if kind == "multi":
        results = [answer(op["kind"], op["payload"]) for op in payload["ops"]]
        return kind, payload, {"results": results}
    return kind, payload, answer(kind, payload)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


class TestRequestRoundTrip:
    @settings(max_examples=400)
    @given(requests())
    def test_every_request_kind_round_trips(self, request):
        kind, payload = request
        assert request_round_trip(kind, payload) == (kind, payload)

    @pytest.mark.parametrize("kind", SIMPLE_KINDS + (wire.SHUTDOWN,))
    def test_each_kind_without_routing(self, kind):
        payload = {
            "sorted_block": {"count": 8},
            "random_lookup": {"item": 7},
            "random_lookup_many": {"items": [3, 1, 2]},
            "direct_step": {"items": []},
            "direct_block": {"items": list(EDGE_IDS), "count": 4},
        }.get(kind, {})
        assert request_round_trip(kind, payload) == (kind, payload)

    def test_routed_multi_with_a_metrics_state(self):
        ops = [
            {"kind": kind, "payload": {"list": index}}
            for index, kind in enumerate(("sorted_next", "direct_next", "reset"))
        ]
        ops.append({"kind": "state", "payload": {"list": 2**32 - 1, "metrics": True}})
        ops.append({"kind": "random_lookup", "payload": {"item": -(2**63), "list": 3}})
        assert request_round_trip("multi", {"ops": ops}) == ("multi", {"ops": ops})
        assert request_round_trip("multi", {"ops": []}) == ("multi", {"ops": []})

    def test_metrics_false_travels_as_a_plain_state(self):
        assert request_round_trip("state", {"metrics": False}) == ("state", {})

    def test_missing_payload_is_empty(self):
        assert request_round_trip("reset", None) == ("reset", {})
        multi = {"ops": [{"kind": "sorted_next"}]}
        assert request_round_trip("multi", multi) == (
            "multi",
            {"ops": [{"kind": "sorted_next", "payload": {}}]},
        )


class TestReplyRoundTrip:
    @settings(max_examples=400)
    @given(exchanges())
    def test_every_reply_shape_round_trips_bit_for_bit(self, exchange):
        kind, payload, response = exchange
        decoded = reply_round_trip(kind, payload, response)
        assert canonical(decoded) == canonical(response)

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    def test_edge_floats_keep_their_bits(self, value):
        response = {"items": [1], "scores": [value], "bp_score": value}
        decoded = reply_round_trip("sorted_block", {}, response)
        assert decoded["scores"][0].hex() == value.hex()
        assert decoded["bp_score"].hex() == value.hex()

    def test_every_shape_once(self):
        cases = [
            ("sorted_next", {"item": 2**63 - 1, "score": -0.0, "position": 1}),
            ("sorted_next", {"item": 5, "score": 0.5, "bp_score": 0.5}),
            ("random_lookup", {"score": 1.0, "position": 9}),
            ("random_lookup", {"score": 1.0}),
            ("random_lookup_many", {"scores": [], "positions": []}),
            ("random_lookup_many", {"scores": [0.25, 0.5], "bp_score": 0.25}),
            ("sorted_block", {"items": [], "scores": []}),
            ("sorted_block", {"items": [4, -(2**63)], "scores": [1.0, 0.5], "positions": [1, 2]}),
            ("direct_next", {"exhausted": True}),
            ("direct_next", {"item": 3, "score": 0.125, "bp_score": 0.125}),
            ("direct_step", {"scores": [0.5], "exhausted": True}),
            ("direct_step", {"scores": [], "item": 8, "score": 0.0}),
            ("direct_block", {"scores": [], "entries": [], "exhausted": False}),
            (
                "direct_block",
                {"scores": [0.5], "entries": [(1, 0.75), (2, 0.5)], "exhausted": True, "bp_score": 0.5},
            ),
            ("state", {"best_position": 4, "sorted": 3, "random": 2**63 - 1, "direct": 0}),
            ("reset", {}),
            (wire.SHUTDOWN, {}),
        ]
        for kind, response in cases:
            assert canonical(reply_round_trip(kind, {}, response)) == canonical(response), kind
        ops = [{"kind": kind, "payload": {}} for kind, _ in cases]
        multi = {"results": [response for _, response in cases]}
        decoded = reply_round_trip("multi", {"ops": ops}, multi)
        assert canonical(decoded) == canonical(multi)

    def test_metrics_reply_is_the_json_document(self):
        document = {"lists": [0, 1], "ops": {"multi": 3}, "latency": {"count": 0}}
        assert reply_round_trip("state", {"metrics": True}, document) == document
        multi = {"ops": [{"kind": "state", "payload": {"metrics": True}}]}
        assert reply_round_trip("multi", multi, {"results": [document]}) == {
            "results": [document]
        }

    def test_error_reply_carries_utf8_text(self):
        message = "UnknownItemError: item 'é' is not in the list"
        assert wire.decode_reply(body_of(wire.encode_error(message))) == {
            "__error__": message
        }


class TestOwnerResponsesRoundTrip:
    """What real owners answer, NumPy scalars included, decodes to the
    same Python values."""

    @pytest.mark.parametrize("columnar", [False, True])
    @pytest.mark.parametrize("include_position", [False, True])
    def test_daemon_answers_round_trip(self, columnar, include_position):
        database = make_generator("zipf").generate(30, 2, seed=3)
        if columnar:
            database = ColumnarDatabase.from_database(database)
        daemon = OwnerDaemon(
            list(database.lists), list_indices=[0, 1], include_position=include_position
        )
        item = database.lists[1].entry_at(1).item
        script = [
            ("sorted_next", {"list": 0}),
            ("sorted_block", {"list": 0, "count": 4}),
            ("random_lookup", {"list": 1, "item": item}),
            ("random_lookup_many", {"list": 1, "items": [item]}),
            ("direct_next", {"list": 1}),
            ("direct_step", {"list": 1, "items": [item]}),
            ("direct_block", {"list": 1, "items": [], "count": 40}),
            ("direct_next", {"list": 1}),
            ("state", {"list": 0}),
            ("state", {"metrics": True}),
            ("reset", {}),
        ]
        for kind, payload in script:
            kind, payload = request_round_trip(kind, payload)
            response = daemon.handle(kind, payload)
            decoded = reply_round_trip(kind, payload, response)
            assert canonical(decoded) == canonical(_plain(response)), kind
        ops = [{"kind": "sorted_next", "payload": {"list": index}} for index in (0, 1)]
        response = daemon.handle("multi", {"ops": ops})
        decoded = reply_round_trip("multi", {"ops": ops}, response)
        assert canonical(decoded) == canonical(_plain(response))


def _plain(value):
    """NumPy scalars as the Python values the wire delivers."""
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


# ----------------------------------------------------------------------
# Sender-side refusals
# ----------------------------------------------------------------------


class TestSenderRefusals:
    @pytest.mark.parametrize("item", [2**63, -(2**63) - 1, 10**30])
    def test_id_outside_int64_is_rejected_at_the_sender(self, item):
        with pytest.raises(ProtocolError, match="random_lookup"):
            wire.encode_request("random_lookup", {"item": item})
        with pytest.raises(ProtocolError):
            wire.encode_request("random_lookup_many", {"items": [1, item]})

    def test_non_integer_id_is_rejected(self):
        with pytest.raises(ProtocolError):
            wire.encode_request("direct_step", {"items": [1.5]})

    def test_kind_without_wire_code(self):
        with pytest.raises(ProtocolError, match="no-such-kind"):
            wire.encode_request("no-such-kind", {})
        with pytest.raises(ProtocolError, match="no wire code"):
            wire.encode_request("multi", {"ops": [{"kind": "multi", "payload": {}}]})

    def test_fields_the_section_cannot_carry(self):
        with pytest.raises(ProtocolError, match="fields"):
            wire.encode_request("sorted_next", {"count": 3})
        with pytest.raises(ProtocolError, match="fields"):
            wire.encode_request("multi", {"ops": [], "list": 0})

    def test_missing_required_field(self):
        with pytest.raises(ProtocolError, match="sorted_block"):
            wire.encode_request("sorted_block", {})
        with pytest.raises(ProtocolError, match="multi"):
            wire.encode_request("multi", {})

    def test_list_index_outside_its_field(self):
        with pytest.raises(ProtocolError):
            wire.encode_request("sorted_next", {"list": -1})

    def test_oversized_frame_is_refused(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(ProtocolError, match="refusing to send"):
            wire.encode_request("random_lookup_many", {"items": list(range(16))})
        with pytest.raises(ProtocolError, match="refusing to send"):
            wire.encode_error("x" * 100)


# ----------------------------------------------------------------------
# Reader hardening (binary counterparts of TestFrameHardening)
# ----------------------------------------------------------------------


def _op(code, flags=0, index=0, count=0, ids=0):
    return struct.pack("<BBIqI", code, flags, index, count, ids)


def _reply(code, flags=0, first=0, second=0):
    return struct.pack("<BBII", code, flags, first, second)


V = bytes([wire.VERSION])
#: kind code of each request kind (a reply section answering it reuses it)
CODE = {kind: spec[0] for kind, spec in wire._REQUESTS.items()}


class TestBinaryReaderHardening:
    def test_oversized_length_prefix_rejected_before_body(self):
        left, right = socket.socketpair()
        with left, right:
            # A 2 GiB announcement with nothing behind it: refused up
            # front rather than blocking while buffering it.
            left.sendall(wire.LENGTH.pack(2**31))
            with pytest.raises(ProtocolError, match="limit"):
                wire.recv_body(right)

    def test_small_max_bytes_is_enforced(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(wire.encode_request("random_lookup_many", {"items": list(range(20))}))
            with pytest.raises(ProtocolError, match="limit"):
                wire.recv_body(right, max_bytes=64)

    def test_truncated_body_raises_connection_error(self):
        left, right = socket.socketpair()
        with right:
            left.sendall(wire.LENGTH.pack(100) + b"only ten b")
            left.close()  # EOF mid-body
            with pytest.raises(ConnectionError, match="mid-frame"):
                wire.recv_body(right)

    def test_clean_eof_and_a_whole_frame(self):
        left, right = socket.socketpair()
        with right:
            frame = wire.encode_request("sorted_next", None)
            left.sendall(frame)
            left.close()
            assert wire.recv_body(right) == frame[4:]
            assert wire.recv_body(right) is None

    @pytest.mark.parametrize("decode", [wire.decode_request, wire.decode_reply])
    @pytest.mark.parametrize("body", [b"", b"\x00", b"\x02" + _op(CODE["sorted_next"])])
    def test_unknown_version_byte(self, decode, body):
        with pytest.raises(ProtocolError, match="version"):
            decode(body)

    def test_unknown_kind_code(self):
        with pytest.raises(ProtocolError, match="unknown request kind code 99"):
            wire.decode_request(V + _op(99))
        with pytest.raises(ProtocolError, match="unknown reply kind code 99"):
            wire.decode_reply(V + _reply(99))
        # MULTI does not nest, and ERROR is a whole frame's answer.
        with pytest.raises(ProtocolError, match="unknown request kind code"):
            wire.decode_request(V + _op(wire._MULTI, count=1) + _op(wire._MULTI))
        with pytest.raises(ProtocolError, match="unknown reply kind code"):
            wire.decode_reply(V + _reply(wire._MULTI, first=1) + _reply(wire._ERROR))

    @pytest.mark.parametrize(
        "kind,payload,response",
        [
            ("sorted_next", {}, {"item": 1, "score": 0.5}),
            ("state", {}, dict.fromkeys(wire._STATE_FIELDS, 1)),
            ("state", {"metrics": True}, {"ops": {}}),
        ],
    )
    def test_trailing_bytes(self, kind, payload, response):
        with pytest.raises(ProtocolError, match="trailing"):
            wire.decode_request(body_of(wire.encode_request(kind, payload)) + b"\x00")
        with pytest.raises(ProtocolError, match="trailing"):
            wire.decode_reply(body_of(wire.encode_reply(kind, payload, response)) + b"\x00")

    def test_count_larger_than_the_rest_of_the_body(self):
        with pytest.raises(ProtocolError, match="announces"):
            wire.decode_request(V + _op(CODE["random_lookup_many"], ids=2**32 - 1) + b"\x00" * 8)
        with pytest.raises(ProtocolError, match="announces"):
            wire.decode_reply(V + _reply(CODE["sorted_block"], second=2**32 - 1))
        with pytest.raises(ProtocolError, match="announces"):
            wire.decode_reply(V + _reply(CODE["state"], first=4) + b"\x00" * 31)
        with pytest.raises(ProtocolError, match="text"):
            wire.decode_reply(V + _reply(wire._ERROR, first=2**32 - 1) + b"oops")

    def test_frame_ends_inside_a_header(self):
        with pytest.raises(ProtocolError, match="header"):
            wire.decode_request(V + _op(CODE["sorted_next"])[:-1])
        with pytest.raises(ProtocolError, match="header"):
            wire.decode_reply(V + _reply(wire._MULTI, first=2) + _reply(CODE["reset"]))
        with pytest.raises(ProtocolError, match="header"):
            wire.decode_request(V + _op(wire._MULTI, count=2**62))

    @pytest.mark.parametrize(
        "body",
        [
            V + _op(wire._MULTI, flags=1),
            V + _op(wire._MULTI, count=-1),
            V + _op(CODE["sorted_next"], flags=0x80),
            V + _op(CODE["sorted_next"], index=3),
            V + _op(CODE["sorted_next"], count=3),
            V + _op(CODE["random_lookup"], ids=2) + b"\x00" * 16,
            V + _op(CODE["sorted_next"], ids=1) + b"\x00" * 8,
        ],
    )
    def test_malformed_request_sections(self, body):
        with pytest.raises(ProtocolError, match="malformed"):
            wire.decode_request(body)

    @pytest.mark.parametrize(
        "body",
        [
            V + _reply(wire._MULTI, flags=1),
            V + _reply(wire._MULTI, second=1),
            V + _reply(CODE["sorted_next"], flags=wire._EXHAUSTED, second=1) + b"\x00" * 16,
            V + _reply(CODE["sorted_next"], first=1, second=1) + b"\x00" * 24,
            V + _reply(CODE["random_lookup"], second=0),
            V + _reply(CODE["random_lookup_many"], second=1) + b"\x00" * 16,
            V + _reply(CODE["direct_next"]),
            V + _reply(CODE["direct_step"], flags=wire._EXHAUSTED, second=1) + b"\x00" * 16,
            V + _reply(CODE["reset"], flags=wire._BP_SCORE) + b"\x00" * 8,
            V + _reply(CODE["state"], first=3) + b"\x00" * 24,
            V + _reply(CODE["state"], flags=1, first=4) + b"\x00" * 32,
        ],
    )
    def test_malformed_reply_sections(self, body):
        with pytest.raises(ProtocolError, match="malformed"):
            wire.decode_reply(body)

    def test_undecodable_text_sections(self):
        with pytest.raises(ProtocolError, match="undecodable text"):
            wire.decode_reply(V + _reply(wire._ERROR, first=2) + b"\xff\xfe")
        with pytest.raises(ProtocolError, match="malformed text"):
            wire.decode_reply(V + _reply(wire._ERROR, flags=1))
        metrics = wire._METRICS_TEXT
        with pytest.raises(ProtocolError, match="undecodable metrics"):
            wire.decode_reply(V + _reply(metrics, first=3) + b"{x}")
        with pytest.raises(ProtocolError, match="JSON object"):
            wire.decode_reply(V + _reply(metrics, first=9) + b"[1, 2, 3]")


# ----------------------------------------------------------------------
# Fuzzing
# ----------------------------------------------------------------------


def assert_decodes_or_refuses(decode, body):
    """``decode(body)`` returns or raises ProtocolError, and allocates at
    most a small multiple of the body (never what a count announces)."""
    tracemalloc.start()
    try:
        try:
            decode(body)
        except ProtocolError:
            pass
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * len(body) + 64 * 1024


@st.composite
def mutated_bodies(draw):
    kind, payload, response = draw(exchanges())
    if draw(st.booleans()):
        body = body_of(wire.encode_request(kind, payload))
    else:
        body = body_of(wire.encode_reply(kind, payload, response))
    data = bytearray(body)
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(("flip", "truncate", "extend", "count")))
        if action == "flip" and data:
            index = draw(st.integers(0, len(data) - 1))
            data[index] = draw(st.integers(0, 255))
        elif action == "truncate":
            del data[draw(st.integers(0, len(data))) :]
        elif action == "extend":
            data += draw(st.binary(max_size=16))
        elif len(data) >= 6:
            # Overwrite a 4-byte field with a large count.
            index = draw(st.integers(1, len(data) - 4))
            data[index : index + 4] = struct.pack("<I", draw(st.integers(0, 2**32 - 1)))
    return bytes(data)


class TestFuzz:
    @settings(max_examples=300)
    @given(st.binary(max_size=96))
    def test_arbitrary_bodies(self, body):
        assert_decodes_or_refuses(wire.decode_request, body)
        assert_decodes_or_refuses(wire.decode_reply, body)

    @settings(max_examples=300)
    @given(st.binary(max_size=64))
    def test_arbitrary_sections_behind_a_valid_version(self, tail):
        assert_decodes_or_refuses(wire.decode_request, V + tail)
        assert_decodes_or_refuses(wire.decode_reply, V + tail)

    @settings(max_examples=400)
    @given(mutated_bodies())
    def test_mutated_frames(self, body):
        assert_decodes_or_refuses(wire.decode_request, body)
        assert_decodes_or_refuses(wire.decode_reply, body)

    def test_huge_counts_allocate_nothing(self):
        body = V + _op(CODE["direct_block"], count=1, ids=2**32 - 1)
        assert_decodes_or_refuses(wire.decode_request, body)
        for first, second in ((2**32 - 1, 0), (0, 2**32 - 1), (2**31, 2**31)):
            body = V + _reply(CODE["direct_block"], 0, first, second)
            assert_decodes_or_refuses(wire.decode_reply, body)
