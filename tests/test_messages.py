"""Tests for SDMessage encoding and reply correlation helpers."""

from __future__ import annotations

import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.common.config import SDVMConfig
from repro.common.errors import SerializationError
from repro.common.ids import GlobalAddress, ManagerId
from repro.messages import (HANDLER_OF, MANAGER_OF, MsgType, SDMessage,
                            make_reply)
from repro.serde import dumps, dumps_record, loads
from repro.site.simcluster import SimCluster


def sample(**kwargs) -> SDMessage:
    base = dict(
        type=MsgType.HELP_REQUEST,
        src_site=1, dst_site=2,
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
        assert MANAGER_OF[decoded.type] is ManagerId.SCHEDULING
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
        # a float figure is refused, not sent as a float64 7 bytes longer
        with pytest.raises(SerializationError):
            sample(src_load=5.0, src_queue=3.0).encode()

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
        with pytest.raises(SerializationError):
            SDMessage.decode(dumps((1, 2, 3)))

    def test_unknown_enum_rejected(self):
        bad = dumps_record((9999, 1, 2, -1, 0, -1, -1, -1), {})
        with pytest.raises(SerializationError):
            SDMessage.decode(bad)

    def test_non_dict_payload_rejected(self):
        # a record's payload is a dict by its grammar, so the nearest a
        # wire gets is the same fields as a plain tuple ending in a list
        header = (int(MsgType.HEARTBEAT), 1, 2, -1, 0, -1, -1, -1)
        with pytest.raises(SerializationError):
            SDMessage.decode(dumps((*header, [1, 2])))
        with pytest.raises(SerializationError):
            SDMessage.decode(dumps((*header, {})))
        with pytest.raises(SerializationError):
            sample(payload=[1, 2]).encode()


class TestHeader:
    """The envelope is one codec record: tag ``R``, eight untagged zigzag
    varints — type, src_site, dst_site, program, seq, reply_to, src_load,
    src_queue — then the payload dict's count and pairs."""

    def test_header_is_eight_varints_then_the_payload(self):
        msg = sample(type=MsgType.CANT_HELP, src_site=1, dst_site=2,
                     payload={}, program=-1, seq=7, src_load=0, src_queue=0)
        assert msg.encode() == b"R" + bytes([24, 2, 4, 1, 14, 1, 0, 0, 0])

    def test_plain_loads_reads_the_envelope(self):
        """Any codec reader can open an envelope: ``loads`` returns the
        eight figures and the payload as one tuple."""
        msg = sample(payload={"load": 3.0})
        assert loads(msg.encode()) == (
            int(MsgType.HELP_REQUEST), 1, 2, 42, 7, -1, -1, -1, {"load": 3.0})

    def test_truncated_header_rejected(self):
        wire = sample().encode()
        for cut in range(len(wire)):
            with pytest.raises(SerializationError):
                SDMessage.decode(wire[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(SerializationError):
            SDMessage.decode(sample().encode() + b"\x00")

    @pytest.mark.parametrize("field", [
        "src_site", "dst_site", "program", "seq", "reply_to", "src_load",
        "src_queue"])
    def test_float_header_figure_rejected_at_encode(self, field):
        with pytest.raises(SerializationError):
            sample(**{field: 1.0}).encode()

    def test_header_figure_past_64_bits_rejected_at_encode(self):
        with pytest.raises(SerializationError):
            sample(seq=1 << 63).encode()
        assert SDMessage.decode(sample(seq=(1 << 63) - 1).encode()).seq \
            == (1 << 63) - 1

    @settings(max_examples=300)
    @given(st.binary(max_size=64))
    def test_random_bytes_raise_only_serialization_errors(self, data):
        try:
            SDMessage.decode(data)
        except SerializationError:
            pass

    def test_cant_help_fits_in_16_bytes(self):
        """A CANT_HELP between sites below 64 with a ``seq`` below 2**13:
        eight header figures and an empty payload.  With the tagged
        12-tuple and the causal stamp it took 43 B."""
        msg = SDMessage(type=MsgType.CANT_HELP, src_site=63, dst_site=62,
                        seq=(1 << 13) - 1, reply_to=(1 << 13) - 1,
                        src_load=40, src_queue=30)
        assert msg.wire_size() <= 16


#: replies only their request reads: a late or duplicated copy is dropped
#: by the site (the message manager counts it in ``orphan_replies``)
REPLY_ONLY = {MsgType.CANT_HELP, MsgType.MEM_LOCATION, MsgType.MEM_NOT_FOUND,
              MsgType.DIR_ACK, MsgType.RECOVER_ACK, MsgType.STATUS_REPLY,
              MsgType.IO_FILE_READ_REPLY, MsgType.IO_FILE_WRITE_ACK}


class TestManagerTable:
    def test_every_type_has_an_owner_every_site_has(self):
        cluster = SimCluster(nsites=1, config=SDVMConfig())
        managers = cluster.sites[0].managers
        assert set(MANAGER_OF) == set(MsgType)
        for msg_type, manager in MANAGER_OF.items():
            assert managers[manager].manager_id is manager, msg_type

    def test_every_other_type_has_its_handler_on_its_owner(self):
        managers = SimCluster(nsites=1, config=SDVMConfig()).sites[0].managers
        assert set(HANDLER_OF) == set(MsgType)
        for msg_type in MsgType:
            handler = getattr(managers[MANAGER_OF[msg_type]],
                              HANDLER_OF[msg_type], None)
            assert (handler is None) is (msg_type in REPLY_ONLY), msg_type
            assert handler is None or callable(handler), msg_type

    def test_no_manager_dispatches_by_hand(self):
        src = pathlib.Path(repro.__file__).parent
        handles = [f"{path.relative_to(src)}:{node.lineno}"
                   for path in sorted(src.rglob("*.py"))
                   for cls in ast.walk(ast.parse(path.read_text()))
                   if isinstance(cls, ast.ClassDef)
                   for node in cls.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "handle"]
        assert handles == []

    def test_a_reply_without_handler_is_dropped(self):
        site = SimCluster(nsites=1, config=SDVMConfig()).sites[0]
        site.route(SDMessage(type=MsgType.IO_FILE_WRITE_ACK, src_site=0,
                             dst_site=0, reply_to=5))
        assert site.log_lines[-1].endswith(
            "message IO_FILE_WRITE_ACK without handler dropped")


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
        assert MANAGER_OF[reply.type] is MANAGER_OF[request.type]
        assert reply.src_site == request.dst_site
        assert reply.reply_to == request.seq
        assert reply.program == request.program

    def test_make_reply_default_payload(self):
        reply = make_reply(sample(), MsgType.CANT_HELP)
        assert reply.payload == {}
