"""Unit + property tests for the wire codec."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.common.ids import FileHandle, GlobalAddress, ManagerId
from repro.messages import MsgType, SDMessage
from repro.serde import dumps, encoded_size, loads, measured_size, wire_copy
from repro.serde.codec import (MAX_DECODE_DEPTH, read_uvarint, write_uvarint,
                               zigzag)


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


def test_encoded_size_matches():
    value = {"key": [1, 2, 3], "other": "text"}
    assert encoded_size(value) == len(dumps(value))


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
sd_messages = st.builds(
    SDMessage,
    type=st.sampled_from(list(MsgType)),
    src_site=_site_ids, src_manager=st.sampled_from(list(ManagerId)),
    dst_site=_site_ids, dst_manager=st.sampled_from(list(ManagerId)),
    payload=st.dictionaries(st.text(max_size=8), copy_values, max_size=4),
    program=st.integers(min_value=-1, max_value=2**40),
    seq=st.integers(min_value=-1, max_value=2**40),
    reply_to=st.integers(min_value=-1, max_value=2**40),
    src_load=st.integers(min_value=-1, max_value=10**6),
    src_queue=st.integers(min_value=-1, max_value=10**6),
    origin_site=_site_ids,
    cause_id=st.integers(min_value=-1, max_value=2**63),
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
        msg = SDMessage(type=10, src_site=0, src_manager=1, dst_site=1,
                        dst_manager=1)
        snap = msg.snapshot()
        assert snap.type is MsgType.HELP_REQUEST
        assert snap.src_manager is SDMessage.decode(msg.encode()).src_manager

    @pytest.mark.parametrize("field, value", [
        ("type", 9999), ("dst_manager", 9999), ("payload", [1, 2])])
    def test_what_decode_rejects_snapshot_rejects(self, field, value):
        msg = SDMessage(type=MsgType.HEARTBEAT, src_site=0,
                        src_manager=ManagerId.CLUSTER, dst_site=1,
                        dst_manager=ManagerId.CLUSTER)
        setattr(msg, field, value)
        with pytest.raises(SerializationError):
            SDMessage.decode(msg.encode())
        with pytest.raises(SerializationError):
            msg.snapshot()


# ---------------------------------------------------------------------------
# size accounting, input safety, and robustness against corrupt wire data


class TestMeasuredSize:
    @pytest.mark.parametrize("value", [
        None, True, 0, -1, 127, 128, 2**62, -(2**63), 2**100, -(2**100),
        1.5, float("nan"), "", "ascii", "üñïçödé", b"", b"\x00" * 200,
        [], [1, [2, [3]]], (1, "a"), {}, {"k": [1.5, None]},
        {(1, 2): b"x"}, set(), {1, "a", 2.5},
        GlobalAddress(17, 123456), FileHandle(3, 99),
    ])
    def test_matches_dumps(self, value):
        assert measured_size(value) == len(dumps(value))

    def test_rejects_like_dumps(self):
        with pytest.raises(SerializationError):
            measured_size(object())

    @settings(max_examples=200)
    @given(wire_values)
    def test_matches_dumps_property(self, value):
        assert measured_size(value) == len(dumps(value))


class TestInputSafety:
    def test_zigzag_out_of_range_raises(self):
        # a silent wrong value here would corrupt wire sizes undetected
        with pytest.raises(SerializationError):
            zigzag(2**63)
        with pytest.raises(SerializationError):
            zigzag(-(2**63) - 1)
        assert zigzag(2**63 - 1) == (2**64 - 2)
        assert zigzag(-(2**63)) == (2**64 - 1)

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
