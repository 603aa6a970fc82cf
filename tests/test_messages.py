"""Tests for SDMessage encoding and reply correlation helpers."""

from __future__ import annotations

import pytest

from repro.common.errors import SerializationError
from repro.common.ids import GlobalAddress, ManagerId
from repro.messages import MsgType, SDMessage, make_reply


def sample(**kwargs) -> SDMessage:
    base = dict(
        type=MsgType.HELP_REQUEST,
        src_site=1, src_manager=ManagerId.SCHEDULING,
        dst_site=2, dst_manager=ManagerId.SCHEDULING,
        payload={"load": 3.0},
        program=42, seq=7,
    )
    base.update(kwargs)
    return SDMessage(**base)


class TestWire:
    def test_roundtrip(self):
        msg = sample()
        decoded = SDMessage.decode(msg.encode())
        assert decoded.type is MsgType.HELP_REQUEST
        assert decoded.src_site == 1
        assert decoded.src_manager is ManagerId.SCHEDULING
        assert decoded.dst_site == 2
        assert decoded.payload == {"load": 3.0}
        assert decoded.program == 42
        assert decoded.seq == 7
        assert decoded.reply_to == -1

    def test_src_load_roundtrip(self):
        msg = sample(src_load=5)
        assert SDMessage.decode(msg.encode()).src_load == 5

    def test_header_figures_are_ints(self):
        """The load and queue figures are frame counts: ints from the
        sender through the wire to the receiver, a small varint each, and
        the snapshot a sim wire carries agrees with the parse."""
        msg = sample(src_load=5, src_queue=3)
        for got in (SDMessage.decode(msg.encode()), msg.snapshot()):
            assert (got.src_load, got.src_queue) == (5, 3)
            assert type(got.src_load) is int and type(got.src_queue) is int
        unset = sample()
        assert (unset.src_load, unset.src_queue) == (-1, -1)
        assert type(unset.src_load) is int and type(unset.src_queue) is int
        # as float64s the two figures would cost 7 bytes more each
        as_floats = sample(src_load=5.0, src_queue=3.0)
        assert as_floats.wire_size() == msg.wire_size() + 14

    def test_payload_with_addresses(self):
        msg = sample(payload={"addr": GlobalAddress(3, 9), "slot": 1})
        decoded = SDMessage.decode(msg.encode())
        assert decoded.payload["addr"] == GlobalAddress(3, 9)

    def test_every_msg_type_roundtrips(self):
        for msg_type in MsgType:
            msg = sample(type=msg_type)
            assert SDMessage.decode(msg.encode()).type is msg_type

    def test_wire_size_positive(self):
        assert sample().wire_size() > 0

    def test_garbage_rejected(self):
        with pytest.raises(SerializationError):
            SDMessage.decode(b"definitely not a message")

    def test_wrong_shape_rejected(self):
        from repro.serde import dumps
        with pytest.raises(SerializationError):
            SDMessage.decode(dumps((1, 2, 3)))

    def test_unknown_enum_rejected(self):
        from repro.serde import dumps
        bad = dumps((9999, 1, 1, 2, 2, -1, 0, -1, -1.0, {}))
        with pytest.raises(SerializationError):
            SDMessage.decode(bad)

    def test_non_dict_payload_rejected(self):
        from repro.serde import dumps
        bad = dumps((int(MsgType.HEARTBEAT), 1, 7, 2, 7, -1, 0, -1, -1.0,
                     [1, 2]))
        with pytest.raises(SerializationError):
            SDMessage.decode(bad)


class TestEncodeOnce:
    def test_encode_returns_same_object(self):
        msg = sample()
        assert msg.encode() is msg.encode()

    def test_wire_size_matches_encode(self):
        msg = sample()
        assert msg.wire_size() == len(msg.encode())
        # in either probe order
        other = sample(payload={"big": list(range(100))})
        assert len(other.encode()) == other.wire_size()

    def test_mutation_after_encode_does_not_change_wire(self):
        msg = sample(payload={"load": 3.0})
        wire = msg.encode()
        msg.payload["load"] = 99.0
        msg.dst_site = 5
        assert msg.encode() is wire
        assert SDMessage.decode(msg.encode()).payload == {"load": 3.0}

    def test_invalidate_wire_re_encodes(self):
        msg = sample()
        before = msg.encode()
        msg.seq = 1234
        msg.invalidate_wire()
        after = msg.encode()
        assert after != before
        assert SDMessage.decode(after).seq == 1234

    def test_decode_leaves_cache_cold(self):
        # a received message may be re-addressed (heir forwarding) before
        # it is encoded again, so decode must not pin the incoming bytes
        wire = sample().encode()
        decoded = SDMessage.decode(wire)
        decoded.dst_site = 9
        assert SDMessage.decode(decoded.encode()).dst_site == 9


class TestReply:
    def test_make_reply_swaps_endpoints(self):
        request = sample()
        reply = make_reply(request, MsgType.CANT_HELP, {"load": 0.0})
        assert reply.dst_site == request.src_site
        assert reply.dst_manager is request.src_manager
        assert reply.src_site == request.dst_site
        assert reply.reply_to == request.seq
        assert reply.program == request.program

    def test_make_reply_default_payload(self):
        reply = make_reply(sample(), MsgType.CANT_HELP)
        assert reply.payload == {}
