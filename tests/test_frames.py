"""Tests for microframes — the dataflow firing rules (§3.1–3.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FrameStateError, SerializationError
from repro.common.ids import GlobalAddress, make_program_id
from repro.core.frames import MISSING, FrameState, Microframe
from repro.serde import dumps, loads


def make(nparams=2, targets=()):
    return Microframe(GlobalAddress(1, 7), thread_id=3, program=9,
                      nparams=nparams, targets=targets)


class TestFiringRule:
    def test_zero_param_frame_born_executable(self):
        frame = make(nparams=0)
        assert frame.state is FrameState.EXECUTABLE
        assert frame.executable

    def test_incomplete_until_last_parameter(self):
        frame = make(nparams=3)
        assert not frame.apply_parameter(0, "a")
        assert not frame.apply_parameter(2, "c")
        assert not frame.executable
        assert frame.apply_parameter(1, "b")
        assert frame.executable
        assert frame.arguments() == ["a", "b", "c"]

    def test_double_fill_rejected(self):
        frame = make()
        frame.apply_parameter(0, 1)
        with pytest.raises(FrameStateError):
            frame.apply_parameter(0, 2)

    def test_out_of_range_slot_rejected(self):
        frame = make(nparams=2)
        with pytest.raises(FrameStateError):
            frame.apply_parameter(2, "x")
        with pytest.raises(FrameStateError):
            frame.apply_parameter(-1, "x")

    def test_arguments_before_complete_rejected(self):
        frame = make()
        frame.apply_parameter(0, 1)
        with pytest.raises(FrameStateError):
            frame.arguments()

    def test_none_is_a_valid_parameter_value(self):
        frame = make(nparams=1)
        assert frame.apply_parameter(0, None)
        assert frame.arguments() == [None]

    def test_consume_lifecycle(self):
        frame = make(nparams=1)
        frame.apply_parameter(0, "v")
        frame.consume()
        assert frame.state is FrameState.CONSUMED
        with pytest.raises(FrameStateError):
            frame.consume()
        with pytest.raises(FrameStateError):
            frame.apply_parameter(0, "again")

    def test_consume_incomplete_rejected(self):
        with pytest.raises(FrameStateError):
            make().consume()

    def test_negative_nparams_rejected(self):
        with pytest.raises(FrameStateError):
            make(nparams=-1)


class TestWire:
    def test_roundtrip_partial(self):
        frame = make(nparams=3, targets=[(GlobalAddress(2, 2), 1)])
        frame.apply_parameter(1, {"nested": [1, 2]})
        frame.priority = 5.0
        frame.critical = True
        clone = Microframe.from_wire(frame.to_wire())
        assert clone.frame_id == frame.frame_id
        assert clone.thread_id == frame.thread_id
        assert clone.program == frame.program
        assert clone.missing_count == 2
        assert clone.params[1] == {"nested": [1, 2]}
        assert clone.params[0] is MISSING
        assert clone.targets == [(GlobalAddress(2, 2), 1)]
        assert clone.priority == 5.0
        assert clone.critical

    def test_roundtrip_survives_codec(self):
        frame = make(nparams=2)
        frame.apply_parameter(0, "x")
        clone = Microframe.from_wire(loads(dumps(frame.to_wire())))
        assert clone.params[0] == "x"
        assert clone.missing_count == 1

    def test_every_field_survives_the_codec(self):
        frame = Microframe(GlobalAddress(3, 41), thread_id=2, program=1 << 20,
                           nparams=4, targets=[(GlobalAddress(1, 5), 0),
                                               (GlobalAddress(2, 6), 3)],
                           priority=-2.5, critical=True, created_at=0.123456789)
        frame.apply_parameter(1, {"nested": [1, 2]})
        frame.apply_parameter(3, None)
        clone = Microframe.from_wire(loads(dumps(frame.to_wire())))
        assert (clone.frame_id, clone.thread_id, clone.program) == (
            GlobalAddress(3, 41), 2, 1 << 20)
        assert clone.params == [MISSING, {"nested": [1, 2]}, MISSING, None]
        assert clone.missing_count == 2
        assert clone.state is FrameState.INCOMPLETE
        assert clone.targets == [(GlobalAddress(1, 5), 0),
                                 (GlobalAddress(2, 6), 3)]
        assert (clone.priority, clone.critical, clone.created_at) == (
            -2.5, True, 0.123456789)

    def test_wire_form_is_a_positional_list(self):
        frame = make(nparams=2, targets=[(GlobalAddress(2, 2), 1)])
        frame.apply_parameter(0, "x")
        assert frame.to_wire() == [GlobalAddress(1, 7), 3, 9, 2, [(0, "x")],
                                   [(GlobalAddress(2, 2), 1)], 0.0, False,
                                   0.0]

    def test_treesum_node_frame_fits_in_56_bytes(self):
        """A ``node`` frame of treesum as it waits in a 32-site cluster's
        attraction memory: three empty slots and one target in its merge
        frame.  With keys on the wire it took 126 B."""
        frame = Microframe(GlobalAddress(17, 3000), thread_id=1,
                           program=make_program_id(0, 1), nparams=3,
                           targets=[(GlobalAddress(17, 2999), 1)],
                           created_at=0.5512345678901)
        assert len(dumps(frame.to_wire())) <= 56

    def test_malformed_wire_rejected(self):
        good = [GlobalAddress(0, 1), 3, 9, 2, [], [], 0.0, False, 0.0]
        for wire in (
                good[:1], good + [1],                      # arity
                {"id": GlobalAddress(0, 1)}, tuple(good), "not a frame",
                good[:4] + [[(0,)]] + good[5:],            # (slot, value)
                good[:4] + [[5]] + good[5:],
                good[:4] + [[(2, "x")]] + good[5:],        # no slot 2
                good[:4] + [[(0, "x"), (0, "y")]] + good[5:],
                good[:3] + [-1] + good[4:],
                good[:5] + [[(GlobalAddress(0, 2),)]] + good[6:]):
            with pytest.raises(SerializationError):
                Microframe.from_wire(wire)
        assert Microframe.from_wire(good).nparams == 2


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=8), st.randoms())
def test_firing_exactly_once_property(nparams, rng):
    """A frame reports executable exactly when its last slot fills,
    regardless of fill order."""
    frame = make(nparams=nparams)
    slots = list(range(nparams))
    rng.shuffle(slots)
    fired = 0
    for slot in slots:
        if frame.apply_parameter(slot, slot):
            fired += 1
    if nparams == 0:
        assert frame.executable
    else:
        assert fired == 1
        assert frame.executable
        assert frame.arguments() == list(range(nparams))
