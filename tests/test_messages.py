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
from repro.messages import (HANDLER_OF, MESSAGE_TABLE, MsgType, SDMessage,
                            make_reply)
from repro.serde import dumps, dumps_record, loads
from repro.site.simcluster import SimCluster


def sample(**kwargs) -> SDMessage:
    base = dict(
        type=MsgType.HELP_REQUEST,
        src_site=1, dst_site=2,
        payload={"want": 3},
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
        assert MESSAGE_TABLE[decoded.type].owner is ManagerId.SCHEDULING
        assert decoded.dst_site == 2
        assert decoded.payload == {"want": 3}
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
        msg = sample(type=MsgType.APPLY_RESULT,
                     payload={"addr": GlobalAddress(3, 9), "slot": 1,
                              "value": None, "epoch": 0})
        decoded = SDMessage.decode(msg.encode())
        assert decoded.payload["addr"] == GlobalAddress(3, 9)

    def test_every_msg_type_roundtrips(self):
        for msg_type in MsgType:
            payload = {name: [bit] for bit, name
                       in enumerate(MESSAGE_TABLE[msg_type].fields)}
            decoded = SDMessage.decode(
                sample(type=msg_type, payload=payload).encode())
            assert decoded.type is msg_type
            assert decoded.payload == payload

    def test_wire_size_positive(self):
        assert sample().wire_size() > 0

    def test_garbage_rejected(self):
        with pytest.raises(SerializationError):
            SDMessage.decode(b"definitely not a message")

    def test_wrong_shape_rejected(self):
        with pytest.raises(SerializationError):
            SDMessage.decode(dumps((1, 2, 3)))

    def test_unknown_enum_rejected(self):
        bad = dumps_record((9999, 1, 2, -1, 0, -1, -1, -1), 0, [])
        with pytest.raises(SerializationError):
            SDMessage.decode(bad)

    def test_non_dict_payload_rejected(self):
        # a record's payload is a mask and values by its grammar, so the
        # nearest a wire gets is the same fields as a plain tuple
        header = (int(MsgType.HEARTBEAT), 1, 2, -1, 0, -1, -1, -1)
        with pytest.raises(SerializationError):
            SDMessage.decode(dumps((*header, 0, ())))
        with pytest.raises(SerializationError):
            SDMessage.decode(dumps((*header, {})))
        with pytest.raises(SerializationError):
            sample(payload=[1, 2]).encode()


class TestHeader:
    """The envelope is one codec record: tag ``R``, eight untagged zigzag
    varints — type, src_site, dst_site, program, seq, reply_to, src_load,
    src_queue — then the presence mask and the present payload values in
    the order of the type's row."""

    def test_header_is_eight_varints_then_the_payload(self):
        msg = sample(type=MsgType.HELP_REPLY, src_site=1, dst_site=2,
                     payload={}, program=-1, seq=7, src_load=0, src_queue=0)
        assert msg.encode() == b"R" + bytes([22, 2, 4, 1, 14, 1, 0, 0, 0])

    def test_no_payload_repeats_what_the_envelope_says(self):
        """REPLICATE's program and CHECKPOINT_STATE's sender ride in the
        envelope only; REPLICATE's seven fields take a 1-byte mask."""
        assert "program" not in MESSAGE_TABLE[MsgType.REPLICATE].fields
        assert "site" not in MESSAGE_TABLE[MsgType.CHECKPOINT_STATE].fields
        values = {"frame": GlobalAddress(1, 2), "thread": 3,
                  "targets": [], "args": [4], "oplog": [], "now": 0.5,
                  "work": 1.0}
        msg = sample(type=MsgType.REPLICATE, payload=values, program=5,
                     seq=7, src_load=0, src_queue=0)
        assert msg.encode() == (b"R" + bytes([30, 2, 4, 10, 14, 1, 0, 0])
                                + bytes([0x7f])
                                + b"".join(dumps(v) for v in values.values()))

    def test_plain_loads_reads_the_envelope(self):
        """Any codec reader can open an envelope without the table:
        ``loads`` returns the eight figures, the mask and the values."""
        msg = sample(payload={"rseq": 9, "want": 3})
        assert loads(msg.encode()) == (
            int(MsgType.HELP_REQUEST), 1, 2, 42, 7, -1, -1, -1, 0b10001,
            (3, 9))

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
        """A refusal — a HELP_REPLY without frames — between sites below
        64 with a ``seq`` below 2**13: eight header figures and an empty
        payload.  With the tagged 12-tuple and the causal stamp it took
        43 B."""
        msg = SDMessage(type=MsgType.HELP_REPLY, src_site=63, dst_site=62,
                        seq=(1 << 13) - 1, reply_to=(1 << 13) - 1,
                        src_load=40, src_queue=30)
        assert msg.wire_size() <= 16


#: replies only their request reads: a late or duplicated copy is dropped
#: by the site (the message manager counts it in ``orphan_replies``)
REPLY_ONLY = {MsgType.ACK, MsgType.IO_FILE_REPLY}


class TestManagerTable:
    def test_every_type_has_an_owner_every_site_has(self):
        cluster = SimCluster(nsites=1, config=SDVMConfig())
        managers = cluster.sites[0].managers
        assert set(MESSAGE_TABLE) == set(MsgType)
        for msg_type, row in MESSAGE_TABLE.items():
            assert row.type is msg_type
            assert managers[row.owner].manager_id is row.owner, msg_type

    def test_every_other_type_has_its_handler_on_its_owner(self):
        managers = SimCluster(nsites=1, config=SDVMConfig()).sites[0].managers
        assert set(HANDLER_OF) == set(MsgType)
        for msg_type in MsgType:
            handler = getattr(managers[MESSAGE_TABLE[msg_type].owner],
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

    def test_delivery_is_the_message_managers(self):
        """Acking and resending are one rule in the message manager: each
        must-arrive type is a handled request, no other module builds an
        ACK and no module keeps a retry budget of its own."""
        from repro.site.message_manager import MessageManager
        assert MessageManager._MUST_ARRIVE == {
            MsgType.DIR_UPDATE, MsgType.SIGN_OFF, MsgType.CHECKPOINT_COMMIT,
            MsgType.RECOVER_BEGIN, MsgType.RECOVER_STATE, MsgType.RECOVER_DONE}
        managers = SimCluster(nsites=1, config=SDVMConfig()).sites[0].managers
        for msg_type in MessageManager._MUST_ARRIVE:
            assert callable(getattr(managers[MESSAGE_TABLE[msg_type].owner],
                                    HANDLER_OF[msg_type], None)), msg_type
        src = pathlib.Path(repro.__file__).parent
        acks, budgets = [], []
        for path in sorted(src.rglob("*.py")):
            where = str(path.relative_to(src))
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute) and node.attr == "ACK"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "MsgType"):
                    acks.append(where)
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target]
                           if isinstance(node, ast.AnnAssign) else [])
                budgets += [f"{where}: {target.id}" for target in targets
                            if isinstance(target, ast.Name)
                            and target.id.startswith("_")
                            and target.id.endswith("RETRIES")]
        assert acks == ["site/message_manager.py"]
        assert budgets == []

    def test_a_reply_without_handler_is_dropped(self):
        site = SimCluster(nsites=1, config=SDVMConfig()).sites[0]
        site.route(SDMessage(type=MsgType.IO_FILE_REPLY, src_site=0,
                             dst_site=0, reply_to=5))
        assert site.log_lines[-1].endswith(
            "message IO_FILE_REPLY without handler dropped")


def _literal_payloads(root):
    """Every payload written as a dict literal in ``root``: the type and
    the string keys of ``SDMessage(type=MsgType.X, payload={...})`` and of
    any call that passes ``MsgType.X`` followed by a dict literal
    (``make_reply(m, MsgType.X, {...})``, ``_send_ctrl(_, MsgType.X,
    {...})``, ...), with the place it was found."""
    def msg_type(node):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "MsgType"):
            return MsgType[node.attr]
        return None

    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            pairs = list(zip(node.args, node.args[1:]))
            kwargs = {kw.arg: kw.value for kw in node.keywords}
            if "type" in kwargs and "payload" in kwargs:
                pairs.append((kwargs["type"], kwargs["payload"]))
            for type_node, payload in pairs:
                mtype = msg_type(type_node)
                if mtype is not None and isinstance(payload, ast.Dict):
                    keys = [key.value for key in payload.keys
                            if isinstance(key, ast.Constant)]
                    found.append((mtype, keys,
                                  f"{path.relative_to(root)}:{node.lineno}"))
    return found


def test_every_type_is_sent_in_src():
    """A type nothing sends is protocol in disguise (the twin of
    ``test_config.py::test_every_config_field_is_set_outside_tests``):
    every ``MsgType`` member is passed, as a call argument or as
    ``type=``, by some call in ``src/`` outside the table's module."""
    src = pathlib.Path(repro.__file__).parent
    table = src / "messages" / "message.py"
    passed = {node.attr
              for path in sorted(src.rglob("*.py")) if path != table
              for call in ast.walk(ast.parse(path.read_text()))
              if isinstance(call, ast.Call)
              for node in (*call.args,
                           *(kw.value for kw in call.keywords
                             if kw.arg == "type"))
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "MsgType"}
    assert [t.name for t in MsgType if t.name not in passed] == []


#: the types some module of ``src/`` sends with a dict-literal payload
LITERAL_SENT = {
    MsgType.VERDICT, MsgType.CODE_REQUEST,
    MsgType.CODE_SOURCE, MsgType.CODE_BINARY, MsgType.APPLY_RESULT,
    MsgType.MEM_READ, MsgType.MEM_WRITE,
    MsgType.DIR_UPDATE, MsgType.FRAME_TRANSFER,
    MsgType.SIGN_ON, MsgType.SIGN_OFF,
    MsgType.PROGRAM_TERMINATED, MsgType.PROGRAM_RESULT, MsgType.IO_OUTPUT,
    MsgType.IO_INPUT, MsgType.IO_FILE, MsgType.CHECKPOINT_BEGIN,
    MsgType.CHECKPOINT_STATE, MsgType.CHECKPOINT_ACK,
    MsgType.CHECKPOINT_COMMIT, MsgType.CRASH_NOTICE, MsgType.RECOVER_BEGIN,
    MsgType.RECOVER_STATE, MsgType.RECOVER_DONE, MsgType.CHECKPOINT_REPLICA,
    MsgType.KEY_EXCHANGE}


class TestMessageTable:
    """One row per type names its owner, its payload fields in wire order
    (which of them every sender fills in), whether a departed site relays
    it and which field carries computed data."""

    def test_every_literal_payload_key_is_in_its_row(self):
        found = _literal_payloads(pathlib.Path(repro.__file__).parent)
        # the scan sees every type some sender writes as a dict literal:
        # one that goes blind on a type fails here, whatever the count
        assert {mtype for mtype, _keys, _where in found} == LITERAL_SENT
        strays = [f"{where}: {mtype.name} {key!r}"
                  for mtype, keys, where in found for key in keys
                  if key not in MESSAGE_TABLE[mtype].fields]
        assert strays == []

    def test_derived_sets_read_the_table(self):
        from repro.chaos.engine import ChaosController
        from repro.site.message_manager import MessageManager
        assert MessageManager._FORWARDABLE == {
            MsgType.APPLY_RESULT, MsgType.FRAME_TRANSFER, MsgType.MEM_READ,
            MsgType.MEM_WRITE, MsgType.DIR_UPDATE,
            MsgType.CODE_REQUEST, MsgType.CODE_BINARY,
            MsgType.HELP_REQUEST, MsgType.SIGN_ON,
            MsgType.PROGRAM_REGISTER, MsgType.IO_OUTPUT}
        assert ChaosController._WIRE_KEYS == {
            "param": {"APPLY_RESULT": "value"},
            "replicate": {"REPLICATE": "args", "VERDICT": "effects"}}

    def test_no_name_on_the_wire(self):
        msg = sample(type=MsgType.APPLY_RESULT, payload={
            "addr": GlobalAddress(1, 2), "slot": 0, "value": 7, "epoch": 0})
        wire = msg.encode()
        assert not any(name.encode() in wire
                       for name in ("addr", "slot", "value", "epoch"))

    def test_absent_is_not_none(self):
        """The mask tells a field that is absent from one that is None."""
        for payload in ({"value": None}, {"error": None}, {}):
            msg = sample(type=MsgType.IO_FILE_REPLY, payload=payload)
            assert SDMessage.decode(msg.encode()).payload == payload

    def test_a_key_outside_the_row_is_refused_at_encode(self):
        with pytest.raises(SerializationError, match="'load'"):
            sample(payload={"want": 1, "load": 3.0}).encode()
        with pytest.raises(SerializationError, match="required"):
            sample(payload={"record": []}).encode()

    def test_a_request_that_cannot_encode_leaves_nothing_pending(self):
        cluster = SimCluster(nsites=2, config=SDVMConfig())
        cluster.sim.run(until=0.2)
        a, b = cluster.sites
        msg = SDMessage(type=MsgType.HEARTBEAT, src_site=a.site_id,
                        dst_site=b.site_id, payload={"deep": True})
        with pytest.raises(SerializationError):
            a.message_manager.request(msg, lambda reply: None, timeout=1.0)
        assert a.message_manager._pending == {}


def _full_payload(row):
    return {name: bit for bit, name in enumerate(row.fields)}


def _malformed(row):
    """Records of ``row``'s type that no sender writes: every cut of a
    whole one, one with a mask bit beyond the row and one without each
    required field."""
    header = (int(row.type), 1, 0, -1, 5, -1, 0, 0)
    whole = SDMessage(type=row.type, src_site=1, dst_site=0,
                      payload=_full_payload(row), seq=5).encode()
    yield from (whole[:cut] for cut in range(1, len(whole)))
    full = (1 << len(row.fields)) - 1
    yield dumps_record(header, (full << 1) | 1,
                       list(range(len(row.fields) + 1)))
    for bit in range(len(row.fields)):
        if row.required >> bit & 1:
            yield dumps_record(header, full & ~(1 << bit),
                               list(range(len(row.fields) - 1)))


@pytest.fixture(scope="module")
def receiver():
    cluster = SimCluster(nsites=1, config=SDVMConfig())
    cluster.sim.run(until=0.05)
    return cluster, cluster.sites[0]


class TestMalformedPayloads:
    """What a decode refuses is counted ``malformed`` by the message
    manager; no handler ever sees a payload its row does not promise."""

    @pytest.mark.parametrize("mtype", list(MsgType), ids=lambda t: t.name)
    def test_every_type_is_counted_malformed_and_never_handled(
            self, receiver, mtype, monkeypatch):
        cluster, site = receiver
        routed = []
        monkeypatch.setattr(site, "route", routed.append)
        stats = site.message_manager.stats
        before = (stats.get("malformed").count, stats.get("received").count)
        envelopes = list(_malformed(MESSAGE_TABLE[mtype]))
        for envelope in envelopes:
            site.message_manager.deliver_raw(envelope)
        cluster.sim.run(until=cluster.sim.now + 0.01)
        assert (stats.get("malformed").count,
                stats.get("received").count) == (
            before[0] + len(envelopes), before[1])
        assert routed == []

    def test_the_whole_record_is_handled(self, receiver, monkeypatch):
        """The control: the uncut record of each type reaches the site."""
        cluster, site = receiver
        routed = []
        monkeypatch.setattr(site, "route", routed.append)
        for row in MESSAGE_TABLE.values():
            site.message_manager.deliver_raw(SDMessage(
                type=row.type, src_site=1, dst_site=0,
                payload=_full_payload(row)).encode())
        cluster.sim.run(until=cluster.sim.now + 0.01)
        assert sorted(msg.type for msg in routed) == sorted(MsgType)


class TestEncodeOnce:
    def test_encode_returns_same_object(self):
        msg = sample()
        assert msg.encode() is msg.encode()

    def test_wire_size_matches_encode(self):
        msg = sample()
        assert msg.wire_size() == len(msg.encode())
        # in either probe order
        other = sample(payload={"want": 1, "record": list(range(100))})
        assert len(other.encode()) == other.wire_size()

    def test_mutation_after_encode_does_not_change_wire(self):
        msg = sample(payload={"want": 3})
        wire = msg.encode()
        msg.payload["want"] = 99
        msg.dst_site = 5
        assert msg.encode() is wire
        assert SDMessage.decode(msg.encode()).payload == {"want": 3}

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
        reply = make_reply(request, MsgType.HELP_REPLY, {})
        assert reply.dst_site == request.src_site
        assert (MESSAGE_TABLE[reply.type].owner
                is MESSAGE_TABLE[request.type].owner)
        assert reply.src_site == request.dst_site
        assert reply.reply_to == request.seq
        assert reply.program == request.program

    def test_make_reply_default_payload(self):
        reply = make_reply(sample(), MsgType.HELP_REPLY)
        assert reply.payload == {}
