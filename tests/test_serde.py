"""Unit + property tests for the wire codec."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.common.ids import FileHandle, GlobalAddress
from repro.messages import MESSAGE_TABLE, MsgType, SDMessage
from repro.serde import (Encoded, dumps, dumps_record, loads, loads_record,
                         wire_copy)
from repro.serde.codec import MAX_DECODE_DEPTH, read_uvarint, write_uvarint


class TestScalars:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 127, 128, -128, 2**62, -(2**62),
        2**63 - 1, -(2**63), 2**100, -(2**100), 0.0, -0.0, 1.5, -1.5,
        float("inf"), float("-inf"), 1e-300, "", "ascii", "üñïçödé",
        "line\nbreak", b"", b"\x00\xff" * 10,
    ])
    def test_roundtrip(self, value):
        assert loads(dumps(value)) == value

    def test_nan_roundtrip(self):
        result = loads(dumps(float("nan")))
        assert math.isnan(result)

    def test_bool_is_not_int(self):
        assert loads(dumps(True)) is True
        assert loads(dumps(1)) == 1
        assert not isinstance(loads(dumps(1)), bool)

    def test_big_int_precision(self):
        value = 12345678901234567890123456789012345678901234567890
        assert loads(dumps(value)) == value
        assert loads(dumps(-value)) == -value


class TestContainers:
    @pytest.mark.parametrize("value", [
        [], [1, 2, 3], [1, [2, [3, [4]]]], (), (1, "a"), ((),),
        {}, {"a": 1}, {1: "x", "y": 2}, {(1, 2): [3, 4]},
        set(), {1, 2, 3}, frozenset({1}) and {1},
        [None, True, 1.5, "s", b"b", (1,), {2: 3}, {4}],
    ])
    def test_roundtrip(self, value):
        assert loads(dumps(value)) == value

    def test_tuple_list_distinct(self):
        assert loads(dumps((1, 2))) == (1, 2)
        assert loads(dumps([1, 2])) == [1, 2]
        assert isinstance(loads(dumps((1, 2))), tuple)
        assert isinstance(loads(dumps([1, 2])), list)

    def test_dict_preserves_insertion_order(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(loads(dumps(value))) == ["z", "a", "m"]

    def test_set_encoding_deterministic(self):
        assert dumps({3, 1, 2}) == dumps({2, 3, 1})


class TestDomainTypes:
    def test_global_address(self):
        addr = GlobalAddress(17, 123456)
        assert loads(dumps(addr)) == addr

    def test_file_handle(self):
        handle = FileHandle(3, 99)
        assert loads(dumps(handle)) == handle

    def test_nested_addresses(self):
        value = {"chain": [GlobalAddress(0, 1), GlobalAddress(2, 3)],
                 "fh": FileHandle(1, 1)}
        assert loads(dumps(value)) == value

    def test_record(self):
        """A record is its tag, the eight ints untagged, the presence mask
        and one tagged value per set bit: no field names, no count."""
        ints, mask, values = (1, -1, 300, 0, 5, -300, 7, 8), 0b101, [[1, 2], 3]
        data = dumps_record(ints, mask, values)
        assert len(data) == 1 + 10 + 1 + len(dumps([1, 2])) + len(dumps(3))
        assert loads_record(data) == loads(data) == (*ints, mask, ([1, 2], 3))
        for bad in (dumps(values), dumps((*ints, mask, values)),
                    data + b"\x00", data[:-1]):
            with pytest.raises(SerializationError):
                loads_record(bad)
        for ints, mask, values in (((1,) * 7, 0, []), ((1,) * 8, 1, []),
                                   ((1,) * 8, 0b11, [1]), ((1,) * 8, -1, []),
                                   ((1,) * 7 + (True,), 0, [])):
            with pytest.raises(SerializationError):
                dumps_record(ints, mask, values)


class TestErrors:
    def test_unserializable_type_rejected(self):
        with pytest.raises(SerializationError):
            dumps(object())

    def test_function_rejected(self):
        with pytest.raises(SerializationError):
            dumps(lambda: None)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SerializationError):
            loads(dumps(1) + b"x")

    def test_truncated_rejected(self):
        data = dumps("hello world")
        with pytest.raises(SerializationError):
            loads(data[:-1])

    def test_empty_rejected(self):
        with pytest.raises(SerializationError):
            loads(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            loads(b"\x7f")

    def test_bad_utf8_rejected(self):
        with pytest.raises(SerializationError):
            loads(b"S\x02\xff\xfe")


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_roundtrip(self, value):
        out = bytearray()
        write_uvarint(out, value)
        decoded, pos = read_uvarint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            write_uvarint(bytearray(), -1)

    def test_truncated_varint(self):
        with pytest.raises(SerializationError):
            read_uvarint(b"\x80", 0)


# ---------------------------------------------------------------------------
# property-based round-trips

wire_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=40)
    | st.binary(max_size=40)
    | st.builds(GlobalAddress,
                st.integers(min_value=0, max_value=2**20),
                st.integers(min_value=0, max_value=2**30))
    | st.builds(FileHandle,
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=1000)),
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=200)
@given(wire_values)
def test_roundtrip_property(value):
    assert loads(dumps(value)) == value


@settings(max_examples=100)
@given(wire_values)
def test_encoding_deterministic_property(value):
    assert dumps(value) == dumps(value)


@settings(max_examples=100)
@given(st.integers())
def test_int_roundtrip_property(value):
    assert loads(dumps(value)) == value


# ---------------------------------------------------------------------------
# the structural copy: loads(dumps(x)) without the bytes

_hashable_leaves = (st.integers() | st.text(max_size=8)
                    | st.binary(max_size=8) | st.booleans() | st.none())

#: wire_values plus what the wire changes the type of (frozenset,
#: bytearray, memoryview), sets, and dict keys that are not strings
copy_values = st.recursive(
    wire_values
    | st.binary(max_size=40).map(bytearray)
    | st.binary(max_size=40).map(memoryview)
    | st.sets(_hashable_leaves, max_size=4)
    | st.frozensets(_hashable_leaves, max_size=4),
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(
            _hashable_leaves | st.tuples(st.integers(), st.text(max_size=4)),
            children, max_size=4)
    ),
    max_leaves=25,
)


class _Text(str):
    """Exact-type dispatch: a subclass of a wire type is not a wire type."""


#: values the codec refuses, to be buried anywhere inside a legal one
_strangers = st.sampled_from(
    [object(), 1j, MsgType.HELP_REQUEST, _Text("x"), range(3), Ellipsis])
maybe_copyable = st.recursive(
    copy_values | _strangers,
    lambda children: (st.lists(children, max_size=3)
                      | st.tuples(children, children)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=10,
)


def assert_same_shape(got, want):
    """Equal, with identical types at every node and containers that
    iterate in the same order."""
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for (gk, gv), (wk, wv) in zip(got.items(), want.items()):
            assert_same_shape(gk, wk)
            assert_same_shape(gv, wv)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_shape(g, w)
    elif isinstance(want, set):
        assert got == want and list(got) == list(want)
        assert ({type(item) for item in got}
                == {type(item) for item in want})
    else:
        assert got == want


def mutable_ids(value, into=None):
    """ids of every container under ``value`` a holder could mutate."""
    into = set() if into is None else into
    if isinstance(value, (dict, list, set, bytearray, memoryview)):
        into.add(id(value))
    if isinstance(value, dict):
        for key, val in value.items():
            mutable_ids(key, into)
            mutable_ids(val, into)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            mutable_ids(item, into)
    return into


class TestWireCopy:
    @settings(max_examples=150)
    @given(copy_values)
    def test_equals_the_round_trip_and_shares_nothing_mutable(self, value):
        copied = wire_copy(value)
        assert_same_shape(copied, loads(dumps(value)))
        assert not mutable_ids(copied) & mutable_ids(value)

    @settings(max_examples=100)
    @given(maybe_copyable)
    def test_raises_exactly_when_dumps_does(self, value):
        try:
            dumps(value)
        except SerializationError:
            with pytest.raises(SerializationError):
                wire_copy(value)
        else:
            assert_same_shape(wire_copy(value), loads(dumps(value)))

    def test_immutable_leaves_are_shared(self):
        text, blob, addr = "x" * 50, b"y" * 50, GlobalAddress(1, 2)
        copied = wire_copy([text, blob, addr])
        assert (copied[0] is text and copied[1] is blob
                and copied[2] is addr)

    def test_depth_guard_matches_the_decoder(self):
        value = "leaf"
        for _ in range(MAX_DECODE_DEPTH):
            value = [value]
        assert wire_copy(value) == loads(dumps(value))
        with pytest.raises(SerializationError):
            loads(dumps([value]))
        with pytest.raises(SerializationError):
            wire_copy([value])
        # ``depth`` counts containers already around the value on the wire
        with pytest.raises(SerializationError):
            wire_copy(value, 1)

    @pytest.mark.parametrize("value", [
        {frozenset({1})}, {(1, frozenset({2}))}, {frozenset({1}): "v"}],
        ids=["set-in-set", "set-in-tuple-in-set", "set-as-dict-key"])
    def test_what_decodes_unhashable_is_refused(self, value):
        """A frozenset comes off the wire as a set, which nothing can hold
        as a key or an element: the round trip fails, so the copy does."""
        with pytest.raises(SerializationError):
            loads(dumps(value))
        with pytest.raises(SerializationError):
            wire_copy(value)


_site_ids = st.integers(min_value=-1, max_value=2**20)


@st.composite
def _typed_payloads(draw):
    """A type and a payload its row accepts: every required field, some
    of the optional ones, in any order and with any value."""
    row = draw(st.sampled_from(list(MESSAGE_TABLE.values())))
    names = [name for bit, name in enumerate(row.fields)
             if row.required >> bit & 1 or draw(st.booleans())]
    names = draw(st.permutations(names))
    return row.type, {name: draw(copy_values) for name in names}


_typed = _typed_payloads()
sd_messages = st.builds(
    lambda typed, **fields: SDMessage(type=typed[0], payload=typed[1],
                                      **fields),
    _typed,
    src_site=_site_ids, dst_site=_site_ids,
    program=st.integers(min_value=-1, max_value=2**40),
    seq=st.integers(min_value=-1, max_value=2**40),
    reply_to=st.integers(min_value=-1, max_value=2**40),
    src_load=st.integers(min_value=-1, max_value=10**6),
    src_queue=st.integers(min_value=-1, max_value=10**6),
)

_FIELDS = [name for name in SDMessage.__slots__ if name != "_wire"]


class TestMessageSnapshot:
    @settings(max_examples=100)
    @given(sd_messages)
    def test_equals_decode_of_encode_field_by_field(self, msg):
        snap, parsed = msg.snapshot(), SDMessage.decode(msg.encode())
        for name in _FIELDS:
            assert_same_shape(getattr(snap, name), getattr(parsed, name))
        assert snap._wire is None and parsed._wire is None
        assert not mutable_ids(snap.payload) & mutable_ids(msg.payload)

    def test_enum_fields_come_back_as_members(self):
        msg = SDMessage(type=10, src_site=0, dst_site=1, payload={"want": 1})
        snap = msg.snapshot()
        assert snap.type is MsgType.HELP_REQUEST
        assert snap.type is SDMessage.decode(msg.encode()).type

    @pytest.mark.parametrize("field, value", [
        ("type", 9999), ("src_load", 1.5), ("payload", [1, 2])])
    def test_what_decode_rejects_snapshot_rejects(self, field, value):
        msg = SDMessage(type=MsgType.HEARTBEAT, src_site=0, dst_site=1)
        setattr(msg, field, value)
        with pytest.raises(SerializationError):
            SDMessage.decode(msg.encode())
        with pytest.raises(SerializationError):
            msg.snapshot()


_frozen_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.binary(max_size=8), st.floats(allow_nan=False),
    st.builds(GlobalAddress, st.integers(0, 2**20), st.integers(0, 2**30)))
frozen_tuples = st.recursive(
    st.lists(_frozen_leaves, max_size=6).map(tuple),
    lambda inner: st.lists(st.one_of(_frozen_leaves, inner),
                           max_size=4).map(tuple),
    max_leaves=20)


class TestEncoded:
    """A value many messages carry is encoded once and its bytes copied."""

    @settings(max_examples=150)
    @given(frozen_tuples)
    def test_bytes_are_dumps_of_the_plain_tuple(self, plain):
        value = Encoded(plain)
        assert value == plain and value.wire == dumps(plain)
        assert dumps(value) == dumps(plain)
        assert dumps([value, 1]) == dumps([plain, 1])
        assert (dumps_record((0,) * 8, 1, [value])
                == dumps_record((0,) * 8, 1, [plain]))

    @settings(max_examples=100)
    @given(frozen_tuples)
    def test_a_real_wire_decodes_the_plain_tuple(self, plain):
        decoded = loads(dumps({"v": Encoded(plain)}))["v"]
        assert type(decoded) is tuple
        assert_same_shape(decoded, loads(dumps(plain)))

    def test_wire_copy_shares_it(self):
        value = Encoded((1, "sim://1", (2.0, None)))
        assert wire_copy(value) is value
        copied = wire_copy([value, {"k": value}])
        assert copied[0] is value and copied[1]["k"] is value
        msg = SDMessage(type=MsgType.CLUSTER_INFO, src_site=0, dst_site=1,
                        payload={"sites": [value]})
        assert msg.snapshot().payload["sites"][0] is value

    @pytest.mark.parametrize("plain", [
        ([1],), ({"k": 1},), ({1},), (1, (2, [3])), (bytearray(b"x"),)],
        ids=["list", "dict", "set", "nested-list", "bytearray"])
    def test_mutable_contents_are_refused(self, plain):
        with pytest.raises(SerializationError):
            Encoded(plain)

    def test_outside_the_type_set_is_refused(self):
        with pytest.raises(SerializationError):
            Encoded((object(),))


# ---------------------------------------------------------------------------
# input safety and robustness against corrupt wire data


class TestInputSafety:
    def test_decode_depth_guard(self):
        # deeper than MAX_DECODE_DEPTH must fail with SerializationError,
        # not blow the interpreter's recursion limit
        data = dumps("leaf")
        for _ in range(MAX_DECODE_DEPTH + 10):
            data = b"L\x01" + data  # list-of-one wrapper
        with pytest.raises(SerializationError):
            loads(data)

    def test_within_depth_limit_roundtrips(self):
        value = "leaf"
        for _ in range(MAX_DECODE_DEPTH - 2):
            value = [value]
        assert loads(dumps(value)) == value

    def test_loads_accepts_memoryview_and_bytearray(self):
        value = {"nested": [1, 2.5, "s", b"b", (None, True)]}
        data = dumps(value)
        assert loads(memoryview(data)) == value
        assert loads(bytearray(data)) == value
        # a sliced view too (zero-copy framing path)
        padded = b"xx" + data + b"yy"
        assert loads(memoryview(padded)[2:-2]) == value


@settings(max_examples=150)
@given(wire_values)
def test_truncation_never_escapes_serialization_error(value):
    """Every strict prefix of a valid encoding must raise SerializationError
    — never IndexError/struct.error/RecursionError or a silent value."""
    data = dumps(value)
    for cut in range(len(data)):
        with pytest.raises(SerializationError):
            loads(data[:cut])


@settings(max_examples=150)
@given(wire_values, st.data())
def test_corruption_is_contained(value, data_strategy):
    """Flipping one byte either still decodes (to something) or raises
    SerializationError; no other exception type may escape."""
    data = bytearray(dumps(value))
    index = data_strategy.draw(
        st.integers(min_value=0, max_value=len(data) - 1))
    flip = data_strategy.draw(st.integers(min_value=1, max_value=255))
    data[index] ^= flip
    try:
        loads(bytes(data))
    except SerializationError:
        pass
